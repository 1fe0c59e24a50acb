"""Incremental SPF invalidation is live on small labs too.

The counts are Dijkstra runs (``ospf.spf_runs``), not seconds: one
link failure inside AS 100 of the 14-machine Small Internet must
re-run only the SPF trees that link can reach, never every machine's,
and so cost less than answering every machine's routes from scratch.
"""

from repro.emulation import EmulatedLab
from repro.emulation.ospf_engine import IgpState
from repro.observability import Telemetry


def _spf_runs(work) -> int:
    telemetry = Telemetry()
    with telemetry.activate():
        work()
    return telemetry.metrics.value("ospf.spf_runs")


def test_link_down_reruns_only_the_affected_spf_trees(si_render):
    lab = EmulatedLab.boot(si_render.lab_dir)
    machines = len(lab.network.all_machines)
    assert machines == 14

    def fresh_routes():
        fresh = IgpState(lab.network)
        for name in lab.network.machines:
            fresh.routes(name)

    from_scratch = _spf_runs(fresh_routes)
    after_fault = _spf_runs(lambda: lab.link_down("as100r1", "as100r2"))
    assert lab.converged
    assert 0 < after_fault < machines
    assert after_fault < from_scratch, (after_fault, from_scratch)
