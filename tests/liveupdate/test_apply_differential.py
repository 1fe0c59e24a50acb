"""The differential suite: live apply ≡ fresh boot, with zero reboots.

For every edit class the plan is applied to a *running* lab and the
resulting lab snapshot (IGP and BGP-selected routes, fabric,
convergence verdict) is compared with a cold boot of the edited
design.  Telemetry spans prove the live path never re-parses or
re-deploys anything — one incremental reconvergence is the whole cost.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.emulation import EmulatedLab, LabSnapshot
from repro.exceptions import LiveUpdateError
from repro.liveupdate import apply_plan, verify_equivalence
from repro.observability import Telemetry
from repro.supervision import TrialJournal

from .conftest import EDITS, make_delta

#: Spans that only a reboot path emits — the live path must emit none.
REBOOT_SPANS = ("emulation.parse", "deployment.deploy")


@pytest.fixture(scope="module", params=sorted(EDITS))
def delta(request, tmp_path_factory):
    return make_delta(
        EDITS[request.param], tmp_path_factory.mktemp("delta_%s" % request.param)
    )


@pytest.fixture(scope="module")
def labs(delta):
    """(live lab booted from the OLD design, oracle booted from NEW)."""
    return EmulatedLab.boot(delta.old_dir), EmulatedLab.boot(delta.new_dir)


def span_names(telemetry):
    return [span.name for span in telemetry.tracer.all_spans()]


class TestDifferential:
    def test_live_apply_equals_fresh_boot(self, delta, labs):
        live, oracle = labs
        lab = live.fork()
        telemetry = Telemetry()
        with telemetry.activate():
            report = apply_plan(lab, delta.plan)

        equivalence = verify_equivalence(lab, oracle)
        assert equivalence.ok, equivalence.summary()
        assert report.applied == len(delta.plan)
        assert not report.skipped

        names = span_names(telemetry)
        # zero reboots: no parse, no VM boot, no deploy — exactly one
        # incremental reconvergence for the whole plan
        for forbidden in REBOOT_SPANS:
            assert forbidden not in names, names
        assert names.count("emulation.reconverge") == 1

    def test_inverse_plan_rolls_back(self, delta, labs):
        live, _oracle = labs
        lab = live.fork()
        before = LabSnapshot.of(lab)
        apply_plan(lab, delta.plan)
        apply_plan(lab, delta.plan.inverse())
        assert LabSnapshot.of(lab) == before


class TestApplyContract:
    def test_stale_plan_rejected_before_mutation(self, cost_delta, si_lab):
        lab = si_lab.fork()
        apply_plan(lab, cost_delta.plan)
        before = LabSnapshot.of(lab)
        # the plan's preconditions no longer hold — strict mode aborts
        # with the lab untouched (intent-level atomicity)
        with pytest.raises(LiveUpdateError, match="stale plan"):
            apply_plan(lab, cost_delta.plan)
        assert LabSnapshot.of(lab) == before

    def test_lenient_mode_skips_stale_ops(self, cost_delta, si_lab):
        lab = si_lab.fork()
        apply_plan(lab, cost_delta.plan)
        report = apply_plan(lab, cost_delta.plan, strict=False)
        assert report.applied == 0
        assert len(report.skipped) == len(cost_delta.plan)

    def test_platform_mismatch_rejected(self, cost_delta, si_lab):
        plan = cost_delta.plan
        wrong = type(plan).from_dict(dict(plan.to_dict(), platform="cbgp"))
        with pytest.raises(LiveUpdateError, match="platform"):
            apply_plan(si_lab.fork(), wrong)

    def test_journal_records_every_op(self, cost_delta, si_lab, tmp_path):
        lab = si_lab.fork()
        journal_dir = str(tmp_path / "journal")
        report = apply_plan(lab, cost_delta.plan, journal_dir=journal_dir)
        assert report.journal_path
        entries = [
            json.loads(line)
            for line in open(report.journal_path)
            if line.strip()
        ]
        started = [e for e in entries if e.get("op") == "start"]
        finished = [e for e in entries if e.get("op") == "finish"]
        assert len(started) == len(cost_delta.plan)
        assert len(finished) == len(cost_delta.plan)
        assert all(e.get("status") == "applied" for e in finished)

    def test_isolation_shields_parent_intent(self, cost_delta, si_lab):
        lab = si_lab.fork()
        shared_intent = lab.intent
        apply_plan(lab, cost_delta.plan)
        # fork() shares intent; the applier must swap in a fresh one
        # instead of mutating the shared object under the parent
        assert lab.intent is not shared_intent
        assert si_lab.intent is shared_intent

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_sigkill_mid_apply_leaves_open_intents(self, cost_delta, si_lab, tmp_path):
        import repro.liveupdate.apply as applier

        plan = cost_delta.plan
        journal_dir = str(tmp_path / "journal")
        pid = os.fork()
        if pid == 0:  # child: die by SIGKILL once every op is committed
            try:
                real_checkpoint = applier.checkpoint

                def kill_at_reconverge(operation):
                    if operation == "liveupdate.reconverge":
                        os.kill(os.getpid(), signal.SIGKILL)
                    real_checkpoint(operation)

                applier.checkpoint = kill_at_reconverge
                apply_plan(si_lab.fork(), plan, journal_dir=journal_dir)
            finally:
                os._exit(1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

        journal = TrialJournal(journal_dir)
        op_ids = {op.op_id(sequence) for sequence, op in enumerate(plan.operations)}
        assert {entry.trial_id for entry in journal.open_intents().values()} == op_ids

        # a second apply appends to the same journal and closes every intent
        apply_plan(si_lab.fork(), plan, journal_dir=journal_dir)
        entries = journal.entries()
        assert journal.torn_lines == 0
        assert len(entries) == 3 * len(plan)
        assert journal.open_intents() == {}
