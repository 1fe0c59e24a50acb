"""E13 — incremental live deployment vs reboot on the emulated NREN.

The live-update pipeline's reason to exist is that reacting to a config
change should cost the *blast radius of the change*, not a full
re-parse-and-reboot of the lab.  This benchmark pins that claim on the
NREN model: an intra-NREN backbone link cost change is diffed into a
DiffPlan and applied to a running lab (one incremental reconvergence),
and the wall clock is compared against the reboot path (fresh boot of
the edited design).  Equivalence is asserted, not assumed: the live lab
must match the rebooted oracle bit-for-bit before either number counts.

Results land in ``BENCH_liveupdate.json`` (perf key
``liveupdate:nren:cost_change``) for the warn-only `repro perf compare`
gate, and as a ``liveupdate`` section in ``BENCH_pipeline.json``.
"""

import json
import os
import tempfile
import time

from repro.emulation import EmulatedLab
from repro.liveupdate import apply_edits, apply_plan, diff_designs, verify_equivalence
from repro.loader import european_nren_model

from _util import _provenance, full_scale, record, update_pipeline_record

#: Full scale is the 1158-router continental model; CI runs the 116-router
#: cut.  The speedup *grows* with scale (reboot pays parse x convergence,
#: live apply pays only the change's blast radius).
SCALE = 1.0 if full_scale() else 0.1

COST_EDIT = [{"kind": "cost", "link": ["at_r1", "at_r2"], "value": 40}]


def test_live_apply_vs_reboot():
    graph = european_nren_model(scale=SCALE)
    work_dir = tempfile.mkdtemp(prefix="bench_liveupdate_")
    delta = diff_designs(
        graph, apply_edits(graph, COST_EDIT), "netkit", work_dir=work_dir
    )
    assert not delta.plan.is_empty
    # Both trees render on first read; read them before either timer
    # starts so the reboot time is the boot alone.
    old_dir, new_dir = delta.old_dir, delta.new_dir

    lab = EmulatedLab.boot(old_dir, jobs=os.cpu_count() or 1)

    started = time.perf_counter()
    report = apply_plan(lab, delta.plan)
    apply_seconds = time.perf_counter() - started

    started = time.perf_counter()
    oracle = EmulatedLab.boot(new_dir, jobs=os.cpu_count() or 1)
    reboot_seconds = time.perf_counter() - started

    equivalence = verify_equivalence(lab, oracle)
    assert equivalence.ok, equivalence.summary()
    assert apply_seconds < reboot_seconds, (
        "live apply (%.3fs) should beat a reboot (%.3fs)"
        % (apply_seconds, reboot_seconds)
    )

    speedup = reboot_seconds / max(apply_seconds, 1e-9)
    rows = {
        "scale": SCALE,
        "routers": graph.number_of_nodes(),
        "plan_ops": len(delta.plan),
        "devices_touched": len(delta.plan.devices()),
        "apply_seconds": round(apply_seconds, 4),
        "reboot_seconds": round(reboot_seconds, 4),
        "speedup": round(speedup, 1),
    }
    record(
        "E13_liveupdate",
        [
            "NREN @%.2f scale (%d routers), backbone cost change:"
            % (SCALE, rows["routers"]),
            "  plan: %s" % delta.plan.summary(),
            "  live apply %.3fs vs reboot %.3fs -> %.1fx "
            "(equivalent RIBs/reachability/verdict asserted)"
            % (apply_seconds, reboot_seconds, speedup),
            "  applied %d op(s), %d skipped" % (report.applied, len(report.skipped)),
        ],
    )

    bench_path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_liveupdate.json",
    )
    payload = {
        "bench": "liveupdate",
        "topology": "nren",
        "mode": "cost_change",
        "liveupdate": rows,
    }
    payload.update(_provenance())
    payload["timestamp"] = time.time()
    with open(bench_path, "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
    update_pipeline_record(liveupdate=rows)
