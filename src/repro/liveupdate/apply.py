"""Applying a DiffPlan to a *running* lab, without a reboot.

The applier mutates the lab's parsed intent and asks the protocol
engines to reconverge incrementally (incremental SPF invalidation, BGP
resuming from the previous selected state) — the same machinery the
fault-injection path uses, so a live change costs one reconvergence,
not a re-parse and cold boot.

Execution discipline, borrowed from the campaign runner:

* **validation before mutation** — the whole plan is first simulated
  against the lab's canonical device dicts; a stale op aborts with the
  live lab untouched (intent-level atomicity);
* **journal per operation** — with a journal directory each op gets a
  write-ahead ``start`` record before commit and a ``finish`` after
  reconvergence, and an orderly interrupt (SIGINT/SIGTERM) checkpoints
  the journal before the exception propagates;
* **deadline** — ``deadline_s`` runs the apply under an ambient
  supervision budget, honoured at every phase boundary;
* **isolation** — a fresh :class:`LabIntent` replaces the lab's by
  default because ``lab.fork()`` *shares* intent; applying in place
  would corrupt every fork and parent of this lab.  Device intents the
  plan does not touch are shared with the old intent, which is safe
  because they are immutable after parse — only the devices an op
  names are re-serialised and re-parsed.

:func:`verify_equivalence` defines "live-applied ≡ fresh boot" as
equal :class:`~repro.emulation.LabSnapshot` values: the same route
lines per router, the same fabric, and the same convergence verdict
(*not* rounds, since an incremental resume legitimately settles in
fewer rounds than a cold boot).
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Optional

from repro.emulation.intent import LabIntent
from repro.emulation.snapshot import LabSnapshot
from repro.exceptions import LiveUpdateError, TerminationRequested
from repro.liveupdate.codec import device_to_dict, lab_devices_from_dicts
from repro.liveupdate.plan import DiffPlan, simulate_plan
from repro.observability import INFO, log_event, metric_inc, span
from repro.supervision import Budget, TrialJournal, checkpoint, supervised

__all__ = [
    "ApplyReport",
    "EquivalenceReport",
    "apply_plan",
    "verify_equivalence",
]


@dataclass
class ApplyReport:
    """What one live apply did and how the lab settled afterwards."""

    plan_size: int
    applied: int
    skipped: list[str] = field(default_factory=list)
    devices_changed: list[str] = field(default_factory=list)
    by_kind: dict = field(default_factory=dict)
    duration_seconds: float = 0.0
    convergence: dict = field(default_factory=dict)
    journal_path: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "plan_size": self.plan_size,
            "applied": self.applied,
            "skipped": list(self.skipped),
            "devices_changed": list(self.devices_changed),
            "by_kind": dict(self.by_kind),
            "duration_seconds": self.duration_seconds,
            "convergence": dict(self.convergence),
            "journal_path": self.journal_path,
        }

    def summary(self) -> str:
        text = "applied %d/%d operation(s) on %d device(s)" % (
            self.applied, self.plan_size, len(self.devices_changed),
        )
        if self.skipped:
            text += ", %d skipped" % len(self.skipped)
        status = self.convergence.get("status")
        if status:
            text += "; %s after %s round(s)" % (
                status, self.convergence.get("rounds", "?"),
            )
        return text


def apply_plan(
    lab,
    plan: DiffPlan,
    *,
    journal_dir: Optional[str] = None,
    deadline_s: Optional[float] = None,
    strict: bool = True,
    isolate: bool = True,
    reconverge: bool = True,
) -> ApplyReport:
    """Execute ``plan`` against a booted :class:`EmulatedLab`, live."""
    if plan.platform and plan.platform != lab.intent.platform:
        raise LiveUpdateError(
            "plan targets platform %r but the lab is %r"
            % (plan.platform, lab.intent.platform)
        )
    started = time.monotonic()
    journal = TrialJournal(journal_dir) if journal_dir else None
    op_ids = [op.op_id(sequence) for sequence, op in enumerate(plan.operations)]
    with ExitStack() as stack:
        if deadline_s is not None:
            stack.enter_context(supervised(
                budget=Budget(deadline_s=deadline_s), operation="liveupdate.apply",
            ))
        stack.enter_context(span(
            "liveupdate.apply", operations=len(plan), platform=lab.intent.platform,
        ))
        try:
            # Phase 1 — validate the whole plan against current intent.
            # Only the devices the plan names are serialised: every
            # precondition reads its own op's device, and untouched
            # intent objects (immutable after parse) are reused below,
            # so the apply cost scales with the change's blast radius
            # rather than the lab size.
            checkpoint("liveupdate.validate")
            touched = set(plan.devices())
            old_devices = lab.intent.devices
            devices = {
                name: device_to_dict(device)
                for name, device in old_devices.items()
                if name in touched
            }
            new_devices, skipped_ops = simulate_plan(
                devices, plan.operations, strict=strict,
            )
            skipped = {id(op) for op in skipped_ops}

            # Phase 2 — journal intents, then commit atomically.
            if journal is not None:
                for op, op_id in zip(plan.operations, op_ids):
                    journal.start(op_id, op.op_hash())
            checkpoint("liveupdate.commit")
            removed = set(devices) - set(new_devices)
            intent = lab.intent
            if isolate:
                intent = LabIntent(
                    platform=lab.intent.platform,
                    description=lab.intent.description,
                )
                lab.intent = intent
            rebuilt = lab_devices_from_dicts(new_devices)
            merged: dict = {}
            for name, device in old_devices.items():
                if name in removed:
                    continue
                merged[name] = rebuilt.get(name, device)
            for name, device in rebuilt.items():
                merged.setdefault(name, device)
            intent.devices = merged
            for name in removed:
                lab.quarantined.pop(name, None)
                lab.disabled_machines.discard(name)
                lab.disabled_attachments = {
                    (machine, segment)
                    for machine, segment in lab.disabled_attachments
                    if machine != name
                }

            # Phase 3 — one incremental reconvergence for the batch.
            checkpoint("liveupdate.reconverge")
            convergence = lab.reconverge() if reconverge else lab.convergence_report

            if journal is not None:
                for op, op_id in zip(plan.operations, op_ids):
                    status = "skipped" if id(op) in skipped else "applied"
                    journal.finish(op_id, op.op_hash(), status)
        except (KeyboardInterrupt, TerminationRequested) as interrupt:
            if journal is not None:
                journal.checkpoint(
                    "sigterm"
                    if isinstance(interrupt, TerminationRequested)
                    else "interrupt"
                )
            raise

    applied = len(plan) - len(skipped_ops)
    metric_inc("liveupdate.plans_applied")
    metric_inc("liveupdate.ops_applied", applied)
    log_event(
        INFO,
        "liveupdate",
        "applied %d op(s) live, %d skipped" % (applied, len(skipped_ops)),
        devices=len(plan.devices()),
        status=convergence.status,
    )
    return ApplyReport(
        plan_size=len(plan),
        applied=applied,
        skipped=[op.describe() for op in skipped_ops],
        devices_changed=plan.devices(),
        by_kind=plan.count_by_kind(),
        duration_seconds=time.monotonic() - started,
        convergence=convergence.to_dict(),
        journal_path=journal.path if journal is not None else None,
    )


# ---------------------------------------------------------------------------
# equivalence: live-applied delta vs fresh boot
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    """The outcome of comparing two lab snapshots."""

    ok: bool
    mismatches: list[str] = field(default_factory=list)

    def summary(self) -> str:
        if self.ok:
            return "equivalent: routes, fabric, and verdict match"
        return "NOT equivalent: " + "; ".join(self.mismatches[:8])


def verify_equivalence(live_lab, fresh_lab) -> EquivalenceReport:
    """Compare a live-applied lab against a freshly booted oracle."""
    mismatch = LabSnapshot.of(live_lab).diff(LabSnapshot.of(fresh_lab))
    metric_inc(
        "liveupdate.equivalence_ok" if mismatch is None
        else "liveupdate.equivalence_failed"
    )
    return EquivalenceReport(ok=mismatch is None, mismatches=[mismatch] if mismatch else [])
