"""Integration: the one-call experiment workflow (§6, Figure 2)."""

import os

import pytest

from repro import run_experiment, small_internet
from repro.loader import fig5_topology, save_graphml
from repro.workflow import load_topology


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    return run_experiment(
        small_internet(),
        output_dir=str(tmp_path_factory.mktemp("workflow")),
        lab_name="si",
    )


def test_all_phases_timed(result):
    assert set(result.timings) == {"load_build", "compile", "render", "deploy"}
    assert all(value >= 0 for value in result.timings.values())
    assert "load_build" in result.timing_summary()


def test_artifacts_chained(result):
    assert result.anm.has_overlay("ospf")
    assert len(result.nidb) == 14
    assert result.render_result.n_files > 50
    assert result.lab is not None and result.lab.converged


def test_small_internet_under_a_second(result):
    """§3.1/§6.1: build + compile for the lab takes well under a second."""
    assert result.timings["load_build"] + result.timings["compile"] < 1.0


#: Lines of the §6.1 walkthrough that design the Small-Internet lab:
#: 6 (load + phy) + 7 (ospf/ebgp/ibgp overlays).
WALKTHROUGH_DESIGN_LINES = 13


def _line_count(path):
    with open(path) as handle:
        return sum(1 for _ in handle)


def test_config_volume_dwarfs_the_design(result):
    """§3.1/§6.1: ~500 lines of router configuration from a dozen lines
    of design code.  DNS and startup files come on top."""
    lines = {path: _line_count(path) for path in result.render_result.files}
    routing = sum(
        count for path, count in lines.items()
        if os.path.basename(path) in ("zebra.conf", "ospfd.conf", "bgpd.conf")
    )
    assert routing >= 500
    assert sum(lines.values()) > 30 * WALKTHROUGH_DESIGN_LINES


def test_deploy_can_be_skipped(tmp_path):
    result = run_experiment(fig5_topology(), deploy=False, output_dir=str(tmp_path))
    assert result.deployment is None
    assert result.lab is None
    assert os.path.exists(os.path.join(result.render_result.lab_dir, "lab.conf"))


def test_load_topology_from_files(tmp_path):
    path = tmp_path / "fig5.graphml"
    save_graphml(fig5_topology(), path)
    graph = load_topology(str(path))
    assert len(graph) == 5
    # graph objects pass through unchanged
    assert load_topology(graph) is graph


def test_load_topology_unknown_extension_is_a_clear_error(tmp_path):
    from repro.exceptions import LoaderError

    path = tmp_path / "topology.yaml"
    path.write_text("routers: []\n")
    with pytest.raises(LoaderError) as failure:
        load_topology(str(path))
    message = str(failure.value)
    for extension in (".graphml", ".gml", ".json"):
        assert extension in message


def test_workflow_from_graphml_file(tmp_path):
    path = tmp_path / "fig5.graphml"
    save_graphml(fig5_topology(), path)
    result = run_experiment(str(path), output_dir=str(tmp_path / "out"))
    assert result.lab.converged
    assert len(result.lab.network) == 5


def test_other_platforms_render_without_deploy(tmp_path):
    for platform in ("dynagen", "junosphere", "cbgp"):
        result = run_experiment(
            fig5_topology(),
            platform=platform,
            deploy=False,
            output_dir=str(tmp_path / platform),
        )
        assert result.render_result.n_files >= 1


def test_experiment_is_repeatable(tmp_path, result):
    """§2: rebuilding the experiment yields identical configurations."""
    again = run_experiment(
        small_internet(), output_dir=str(tmp_path / "again"), deploy=False
    )
    first_texts = {
        os.path.relpath(p, result.render_result.lab_dir): open(p).read()
        for p in result.render_result.files
    }
    second_texts = {
        os.path.relpath(p, again.render_result.lab_dir): open(p).read()
        for p in again.render_result.files
    }
    assert first_texts == second_texts
