"""The build engine end to end: process render == serial, caching, incrementality."""

import os

import pytest

from repro.engine import ArtifactCache, BuildEngine
from repro.exceptions import EngineError
from repro.loader import small_internet
from repro.observability import Telemetry
from repro.workflow import run_experiment


def _corpus(root):
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


@pytest.fixture(scope="module")
def serial_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("serial")
    BuildEngine(jobs=1).build(small_internet(), output_dir=str(out))
    return _corpus(str(out))


def test_serial_build_matches_classic_renderer(serial_corpus, tmp_path):
    result = run_experiment(
        small_internet(), deploy=False, output_dir=str(tmp_path)
    )
    assert result.render_result.n_files > 50
    assert _corpus(str(tmp_path)) == serial_corpus


def test_process_parallel_build_is_byte_identical(serial_corpus, tmp_path):
    report = BuildEngine(jobs=2).build(small_internet(), output_dir=str(tmp_path))
    assert report.ok and report.jobs == 2
    assert len(report.rendered_devices) == report.devices_total
    assert _corpus(str(tmp_path)) == serial_corpus


def test_process_render_fills_the_disk_cache(serial_corpus, tmp_path):
    cache_dir = str(tmp_path / "cache")
    BuildEngine(jobs=2, cache_dir=cache_dir).build(
        small_internet(), output_dir=str(tmp_path / "first")
    )
    report = BuildEngine(jobs=2, cache_dir=cache_dir).build(
        small_internet(), output_dir=str(tmp_path / "second")
    )
    assert report.rendered_devices == []
    assert report.cache_hits == report.devices_total
    assert _corpus(str(tmp_path / "second")) == serial_corpus


def test_parallel_matches_serial_on_reduced_nren(tmp_path):
    from repro.loader import european_nren_model

    graph = european_nren_model(scale=0.05)
    serial_dir = tmp_path / "serial"
    BuildEngine(jobs=1).build(graph, output_dir=str(serial_dir))

    parallel_dir = tmp_path / "parallel"
    BuildEngine(jobs=2).build(graph, output_dir=str(parallel_dir))

    corpus = _corpus(str(serial_dir))
    assert corpus and _corpus(str(parallel_dir)) == corpus


def test_warm_cache_rebuild_renders_nothing(serial_corpus, tmp_path):
    engine = BuildEngine(jobs=1)
    cold = engine.build(small_internet(), output_dir=str(tmp_path))
    assert cold.cache_hits == 0
    assert len(cold.rendered_devices) == cold.devices_total

    warm = engine.build(small_internet(), output_dir=str(tmp_path))
    assert warm.cache_hits == warm.devices_total
    assert warm.cache_misses == 0
    assert warm.rendered_devices == []
    assert warm.files_written == 0  # everything on disk already matched
    assert _corpus(str(tmp_path)) == serial_corpus


def test_disk_cache_shared_across_engines(serial_corpus, tmp_path):
    cache_dir = tmp_path / "cache"
    BuildEngine(jobs=1, cache_dir=str(cache_dir)).build(
        small_internet(), output_dir=str(tmp_path / "first")
    )
    second = BuildEngine(jobs=1, cache_dir=str(cache_dir))
    report = second.build(small_internet(), output_dir=str(tmp_path / "second"))
    assert report.cache_hits == report.devices_total
    assert report.rendered_devices == []
    assert _corpus(str(tmp_path / "second")) == serial_corpus


def test_template_edit_between_builds_misses_the_cache(tmp_path, monkeypatch):
    from repro.engine import hashing
    from repro.loader import fig5_topology

    engine = BuildEngine(jobs=1)
    engine.build(fig5_topology(), output_dir=str(tmp_path))
    original = hashing.template_source
    monkeypatch.setattr(
        hashing, "template_source", lambda name: original(name) + "\n! edited"
    )
    rebuilt = engine.build(fig5_topology(), output_dir=str(tmp_path))
    assert rebuilt.devices_total == 5
    assert rebuilt.cache_hits == 0
    assert rebuilt.cache_misses == rebuilt.devices_total


def test_cache_accounting_in_telemetry(tmp_path):
    telemetry = Telemetry()
    engine = BuildEngine(jobs=1)
    engine.build(small_internet(), output_dir=str(tmp_path), telemetry=telemetry)
    engine.build(small_internet(), output_dir=str(tmp_path), telemetry=telemetry)
    counters = telemetry.metrics.snapshot()["counters"]
    devices = len(engine.nidb.nodes())
    assert counters["engine.cache_misses"] >= devices
    assert counters["engine.cache_hits"] >= devices
    assert counters["engine.builds"] == 2


def test_no_cache_mode_always_renders(tmp_path):
    engine = BuildEngine(jobs=1, use_cache=False)
    first = engine.build(small_internet(), output_dir=str(tmp_path))
    second = engine.build(small_internet(), output_dir=str(tmp_path))
    assert engine.cache is None
    assert first.cache_hits == second.cache_hits == 0
    assert len(second.rendered_devices) == second.devices_total


def test_incremental_link_change_rerenders_endpoints_only(tmp_path):
    graph = small_internet()
    engine = BuildEngine(jobs=1)
    engine.build(graph, output_dir=str(tmp_path / "inc"))

    changed = graph.copy()
    edge = next(
        (u, v)
        for u, v, data in changed.edges(data=True)
        if changed.nodes[u].get("device_type") == "router"
        and changed.nodes[v].get("device_type") == "router"
        and changed.nodes[u].get("asn") == changed.nodes[v].get("asn")
    )
    changed.edges[edge]["ospf_cost"] = 42

    report = engine.incremental_update(changed)
    assert report.mode == "incremental-partial"
    assert sorted(report.rendered_devices) == sorted(str(n) for n in edge)

    fresh = tmp_path / "fresh"
    BuildEngine(jobs=1).build(changed, output_dir=str(fresh))
    assert _corpus(str(tmp_path / "inc")) == _corpus(str(fresh))


def test_incremental_noop_rerenders_nothing(tmp_path):
    graph = small_internet()
    engine = BuildEngine(jobs=1)
    engine.build(graph, output_dir=str(tmp_path))
    report = engine.incremental_update(graph.copy())
    assert report.rendered_devices == []
    assert report.files_written == 0


def test_incremental_node_removal_falls_back_to_full(tmp_path):
    graph = small_internet()
    engine = BuildEngine(jobs=1)
    engine.build(graph, output_dir=str(tmp_path / "inc"))

    changed = graph.copy()
    victim = min(changed.degree, key=lambda pair: pair[1])[0]
    changed.remove_node(victim)

    report = engine.incremental_update(changed)
    assert report.mode == "incremental-full"
    assert str(victim) in report.removed_devices
    assert not os.path.isdir(str(tmp_path / "inc" / "localhost" / "netkit" / str(victim)))

    fresh = tmp_path / "fresh"
    BuildEngine(jobs=1).build(changed, output_dir=str(fresh))
    assert _corpus(str(tmp_path / "inc")) == _corpus(str(fresh))


def test_incremental_requires_a_prior_build():
    with pytest.raises(EngineError, match="requires a completed build"):
        BuildEngine(jobs=1).incremental_update(small_internet())


def test_engine_phase_spans_match_workflow(tmp_path):
    telemetry = Telemetry()
    result = run_experiment(
        small_internet(),
        deploy=False,
        output_dir=str(tmp_path),
        telemetry=telemetry,
        engine=BuildEngine(jobs=2),
    )
    assert set(result.timings) == {"load_build", "compile", "render"}
    assert result.render_result.n_files > 50


def test_run_experiment_deploys_an_engine_build(tmp_path):
    engine = BuildEngine()
    result = run_experiment(
        small_internet(), output_dir=str(tmp_path), lab_name="si", engine=engine
    )
    assert result.render_result is engine.render_result
    assert result.deployment is not None
    assert result.deployment.lab.converged


def test_manifest_prune_removes_stale_outputs(tmp_path):
    cache = ArtifactCache(str(tmp_path / "cache"))
    graph = small_internet()
    out = tmp_path / "out"
    BuildEngine(jobs=1, cache=cache).build(
        graph, output_dir=str(out), manifest_name="si@netkit"
    )

    changed = graph.copy()
    victim = min(changed.degree, key=lambda pair: pair[1])[0]
    changed.remove_node(victim)

    report = BuildEngine(jobs=1, cache=cache).build(
        changed, output_dir=str(out), manifest_name="si@netkit", prune_stale=True
    )
    assert str(victim) in report.removed_devices
    assert not os.path.isdir(str(out / "localhost" / "netkit" / str(victim)))


def test_each_phase_boundary_is_a_supervision_checkpoint(tmp_path, monkeypatch):
    from repro.engine import engine as engine_module

    seen = []
    monkeypatch.setattr(engine_module, "checkpoint", seen.append)
    engine = BuildEngine()
    engine.build(small_internet(), output_dir=str(tmp_path))
    engine.incremental_update(small_internet())
    phases = ["engine.load_build", "engine.compile", "engine.render"]
    assert seen == phases + phases
