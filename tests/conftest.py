"""Shared fixtures: designed models, rendered labs, booted emulations.

Expensive artefacts (the Small-Internet lab end to end, the Bad-Gadget
labs per platform) are session-scoped so the suite stays fast while
integration tests all exercise the same real pipeline output.
"""

from __future__ import annotations

import pytest

from repro.compilers import platform_compiler
from repro.deployment import LocalEmulationHost
from repro.deployment import deploy as deploy_lab
from repro.design import design_network
from repro.emulation import EmulatedLab
from repro.loader import bad_gadget_topology, fig5_topology, small_internet
from repro.render import render_nidb


@pytest.fixture(scope="session")
def fig5_anm():
    return design_network(fig5_topology())


@pytest.fixture(scope="session")
def si_anm():
    return design_network(small_internet())


@pytest.fixture(scope="session")
def si_nidb(si_anm):
    return platform_compiler("netkit", si_anm).compile()


@pytest.fixture(scope="session")
def si_render(si_nidb, tmp_path_factory):
    return render_nidb(si_nidb, tmp_path_factory.mktemp("si_render"))


@pytest.fixture(scope="session")
def si_lab(si_render):
    return EmulatedLab.boot(si_render.lab_dir)


@pytest.fixture(scope="session")
def si_deployment(si_render, tmp_path_factory):
    host = LocalEmulationHost(
        work_dir=str(tmp_path_factory.mktemp("host")), name="testhost"
    )
    return deploy_lab(si_render.lab_dir, host=host, lab_name="small_internet")


def _gadget_lab(platform, tmp_path_factory):
    anm = design_network(bad_gadget_topology())
    nidb = platform_compiler(platform, anm).compile()
    result = render_nidb(nidb, tmp_path_factory.mktemp("gadget_%s" % platform))
    return EmulatedLab.boot(result.lab_dir, max_rounds=40)


@pytest.fixture(scope="session")
def gadget_lab_quagga(tmp_path_factory):
    return _gadget_lab("netkit", tmp_path_factory)


@pytest.fixture(scope="session")
def gadget_lab_ios(tmp_path_factory):
    return _gadget_lab("dynagen", tmp_path_factory)


@pytest.fixture(scope="session")
def gadget_lab_junos(tmp_path_factory):
    return _gadget_lab("junosphere", tmp_path_factory)


@pytest.fixture(scope="session")
def gadget_lab_cbgp(tmp_path_factory):
    return _gadget_lab("cbgp", tmp_path_factory)


@pytest.fixture(scope="session")
def measured_labs(tmp_path_factory):
    """Three booted experiments the measured-vs-designed checks run on:
    Small-Internet, the Figure 5 network and a small RPKI lab."""
    from repro.design import DEFAULT_RULES
    from repro.loader import rpki_topology
    from repro.workflow import run_experiment

    rpki_rules = ("phy", "ipv4", "ospf", "ebgp", "ibgp", "rpki")
    sources = {
        "small_internet": (small_internet(), DEFAULT_RULES),
        "fig5": (fig5_topology(), DEFAULT_RULES),
        "rpki": (rpki_topology(n_child_cas=2, n_caches=4, n_routers=4), rpki_rules),
    }
    return {
        name: run_experiment(
            graph, rules=rules, output_dir=str(tmp_path_factory.mktemp(name))
        )
        for name, (graph, rules) in sources.items()
    }


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden rendered-config snapshots under "
        "tests/golden/ instead of comparing against them",
    )
