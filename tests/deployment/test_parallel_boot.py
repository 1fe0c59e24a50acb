"""Boot determinism across ``jobs``: ``jobs=N`` is indistinguishable from serial.

``deploy(..., jobs=4)`` is still accepted and the boot stays one serial
path; the resulting lab must be *identical* to a ``jobs=1`` boot — same
reachability, same per-router RIB dumps, same BGP outcome.  These tests
are the contract that lets callers keep passing ``--jobs``.
"""

from __future__ import annotations

import pytest

from repro.deployment import LocalEmulationHost
from repro.deployment import deploy as deploy_lab
from repro.emulation import EmulatedLab, reachability_summary


@pytest.fixture(scope="module")
def deployments(si_render, tmp_path_factory):
    records = {}
    for jobs in (1, 4):
        host = LocalEmulationHost(
            work_dir=str(tmp_path_factory.mktemp("host_j%d" % jobs)),
            name="host-j%d" % jobs,
        )
        records[jobs] = deploy_lab(
            si_render.lab_dir,
            host=host,
            lab_name="small_internet",
            jobs=jobs,
        )
    return records


class TestParallelBootDeterminism:
    def test_reachability_summary_identical(self, deployments):
        serial, parallel = deployments[1].lab, deployments[4].lab
        assert reachability_summary(serial) == reachability_summary(parallel)

    def test_per_router_rib_dumps_identical(self, deployments):
        serial, parallel = deployments[1].lab, deployments[4].lab
        assert sorted(serial.network.machines) == sorted(
            parallel.network.machines
        )
        for name in sorted(serial.network.machines):
            for command in ("show ip route", "show ip bgp"):
                assert serial.vm(name).run(command) == parallel.vm(name).run(
                    command
                ), "%s diverged on %r under parallel boot" % (name, command)

    def test_bgp_outcome_identical(self, deployments):
        serial, parallel = deployments[1].lab, deployments[4].lab
        assert serial.bgp_result.selected == parallel.bgp_result.selected
        assert serial.bgp_result.rounds == parallel.bgp_result.rounds
        assert serial.converged and parallel.converged

    def test_parallel_boot_also_matches_direct_boot(self, si_render):
        direct = EmulatedLab.boot(si_render.lab_dir, jobs=4)
        serial = EmulatedLab.boot(si_render.lab_dir)
        assert direct.bgp_result.selected == serial.bgp_result.selected
        assert sorted(direct.network.machines) == sorted(
            serial.network.machines
        )
