"""Incremental live deployment: config diff -> minimal change commands.

The package turns "design changed" from a full re-render-and-reboot
into a three-step pipeline:

1. **diff** — two rendered config trees (or design-level topologies)
   are content-hashed and parsed into the vendor-neutral device
   intent, then diffed into a :class:`DiffPlan` of per-device change
   commands with an exact :meth:`~DiffPlan.inverse` for rollback
   (:mod:`repro.liveupdate.diffing`);
2. **apply** — the plan executes against a *running*
   :class:`~repro.emulation.EmulatedLab` with one incremental
   reconvergence instead of a reboot, journaled per operation and
   bounded by a supervision deadline (:mod:`repro.liveupdate.apply`);
3. **verify** — :func:`verify_equivalence` proves the live-applied lab
   equal to a fresh boot of the target design: the same
   :class:`~repro.emulation.LabSnapshot` (per-router IGP and BGP-selected
   routes, fabric, convergence verdict).

`repro diff --plan` and `repro apply --live` drive the pipeline from
the CLI; the campaign layer's ``design_deltas`` axis drives it at
matrix scale.
"""

from repro.liveupdate.apply import (
    ApplyReport,
    EquivalenceReport,
    apply_plan,
    verify_equivalence,
)
from repro.liveupdate.codec import (
    device_from_dict,
    device_to_dict,
    lab_devices_from_dicts,
    lab_devices_to_dicts,
)
from repro.liveupdate.diffing import (
    DesignDelta,
    diff_designs,
    diff_intents,
    diff_rendered,
)
from repro.liveupdate.edits import (
    EDIT_KINDS,
    DesignEdit,
    apply_edits,
    canonical_edits,
    parse_edits,
)
from repro.liveupdate.plan import (
    OP_KINDS,
    ChangeOp,
    DiffPlan,
    apply_op,
    simulate_plan,
)

__all__ = [
    "ApplyReport",
    "ChangeOp",
    "DesignDelta",
    "DesignEdit",
    "DiffPlan",
    "EDIT_KINDS",
    "EquivalenceReport",
    "OP_KINDS",
    "apply_edits",
    "apply_op",
    "apply_plan",
    "canonical_edits",
    "device_from_dict",
    "device_to_dict",
    "diff_designs",
    "diff_intents",
    "diff_rendered",
    "lab_devices_from_dicts",
    "lab_devices_to_dicts",
    "parse_edits",
    "simulate_plan",
    "verify_equivalence",
]
