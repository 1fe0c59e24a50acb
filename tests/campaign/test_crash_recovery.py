"""Crash-safety end to end: SIGKILL recovery, deadlines, SIGTERM, fallback.

The headline contract under test: a campaign killed with ``kill -9``
mid-trial loses nothing and duplicates nothing — the next run recovers
the open journal intent as an explicit ``interrupted`` record,
re-executes exactly that delta, and the final outcomes are identical to
a run that was never killed.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.campaign import (
    STATUS_INTERRUPTED,
    STATUS_TIMED_OUT,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    run_campaign,
)
from repro.campaign.report import outcome_table
from repro.supervision import TrialJournal

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def crash_spec() -> dict:
    """Two healthy build-only trials, then one wired for chaos."""
    return {
        "name": "crash",
        "topologies": ["fig5"],
        "platforms": ["netkit", "cbgp"],
        "deploy": False,
        "trials": [
            {
                "topology": "fig5",
                "platform": "netkit",
                "overrides": {
                    "deploy": False,
                    "inject_hang": "build",
                    "hang_seconds": 0.01,
                },
            }
        ],
    }


def outcome_view(directory) -> dict:
    """The report-facing projection of a campaign's authoritative state."""
    return {
        record.trial_id: (
            record.status,
            record.outcome(),
            record.convergence,
            record.reachability,
        )
        for record in ResultStore(directory).latest().values()
    }


def outcome_rows(directory) -> list:
    """The per-cell report table, wall-clock seconds left out."""
    return [
        {key: value for key, value in row.items() if key != "seconds"}
        for row in outcome_table(ResultStore(directory).latest().values())
    ]


KILLER_DRIVER = """
import os, signal, sys

sys.path.insert(0, %(src)r)
import repro.campaign.runner as runner

def kill9(overrides, stage):
    # stand in for the hang hook: the moment the wired trial reaches its
    # chaos stage, die the way a power loss would — no cleanup, no flush
    if overrides.get("inject_hang") == stage:
        os.kill(os.getpid(), signal.SIGKILL)

runner._maybe_hang = kill9
import json
from repro.campaign import run_campaign
run_campaign(json.loads(%(spec)r), directory=%(directory)r)
"""


def test_sigkill_mid_trial_resumes_exactly_the_delta(tmp_path):
    crashed_dir = str(tmp_path / "crashed")
    healthy_dir = str(tmp_path / "healthy")
    spec = crash_spec()
    trials = list(CampaignSpec.from_dict(spec))
    hang_trial = trials[-1]  # explicit trials expand after the matrix

    driver = KILLER_DRIVER % {
        "src": SRC,
        "spec": json.dumps(spec),
        "directory": crashed_dir,
    }
    process = subprocess.run(
        [sys.executable, "-c", driver], capture_output=True, timeout=300
    )
    assert process.returncode == -signal.SIGKILL, process.stderr.decode()

    # kill-time state: the healthy trials landed durably, the in-flight
    # one left an open start intent and nothing in the index
    store = ResultStore(crashed_dir)
    latest = store.latest()
    assert len(latest) == 2
    assert all(record.ok for record in latest.values())
    open_intents = TrialJournal(crashed_dir).open_intents()
    assert set(open_intents) == {hang_trial.spec_hash}

    # resume: the crash surfaces as an interrupted record, and exactly
    # the interrupted delta re-executes (this time the hang is a 10ms nap)
    resumed = run_campaign(spec, directory=crashed_dir)
    assert resumed.recovered == [hang_trial.trial_id]
    assert resumed.executed == 1
    assert resumed.records[0].trial_id == hang_trial.trial_id
    assert resumed.records[0].ok
    assert len(resumed.skipped) == 2
    assert TrialJournal(crashed_dir).open_intents() == {}

    # the append-only history shows the crash; the authoritative view
    # has one record per trial, none interrupted — zero lost, zero duped
    history = store.records()
    assert [r.status for r in history].count(STATUS_INTERRUPTED) == 1
    latest = store.latest()
    assert len(latest) == 3
    assert all(record.ok for record in latest.values())

    # and the final report is identical to a run that was never killed
    healthy = run_campaign(spec, directory=healthy_dir)
    assert healthy.executed == 3
    assert outcome_view(crashed_dir) == outcome_view(healthy_dir)

    # idempotence: a third invocation finds nothing to do
    assert run_campaign(spec, directory=crashed_dir).executed == 0


def test_interrupted_trials_count_as_pending_in_status(tmp_path):
    spec = CampaignSpec.from_dict(crash_spec())
    store = ResultStore(tmp_path)
    journal = TrialJournal(tmp_path)
    victim = list(spec)[0]
    journal.start(victim.trial_id, victim.spec_hash)

    runner = CampaignRunner(spec, directory=tmp_path, limit=0)
    recovered = runner.recover()
    assert [record.trial_id for record in recovered] == [victim.trial_id]

    status = store.status(spec)
    assert status["interrupted"] == 1
    assert victim.trial_id in status["pending_trials"]
    assert status["pending"] == 3  # the interrupted one still needs running
    assert status["completed"] == 0


def test_recover_closes_intents_whose_record_already_landed(tmp_path):
    """A crash in the append→finish gap must not re-execute the trial."""
    spec = CampaignSpec.from_dict(crash_spec())
    victim = list(spec)[0]
    first = run_campaign(crash_spec(), directory=tmp_path)
    assert first.executed == 3
    # reopen the finished trial's intent, as a crash in the gap would
    journal = TrialJournal(tmp_path)
    journal.start(victim.trial_id, victim.spec_hash)

    resumed = run_campaign(crash_spec(), directory=tmp_path)
    assert resumed.recovered == []       # the landed record is authoritative
    assert resumed.executed == 0
    assert journal.open_intents() == {}


def test_deadline_overrun_becomes_a_timed_out_record(tmp_path):
    spec = {
        "name": "slow",
        "topologies": ["fig5"],
        "platforms": ["cbgp"],
        "deploy": False,
        "trials": [
            {
                "topology": "fig5",
                "platform": "netkit",
                "overrides": {
                    "deploy": False,
                    "inject_hang": "build",
                    "hang_seconds": 20.0,
                },
            }
        ],
    }
    started = time.perf_counter()
    result = run_campaign(spec, directory=tmp_path, trial_deadline_s=0.5)
    elapsed = time.perf_counter() - started
    assert elapsed < 15.0  # the 20s hang was abandoned, not awaited

    assert result.executed == 2
    assert len(result.timed_out) == 1
    record = result.timed_out[0]
    assert record.status == STATUS_TIMED_OUT
    assert "deadline exceeded" in record.error
    # the overrun is the recorded outcome: resume skips it...
    assert run_campaign(spec, directory=tmp_path).executed == 0
    # ...and it is visible in the store's status
    status = ResultStore(tmp_path).status(CampaignSpec.from_dict(spec))
    assert status["timed_out"] == 1
    assert status["pending"] == 0


def test_per_trial_deadline_override_wins(tmp_path):
    spec = {
        "name": "override",
        "topologies": ["fig5"],
        "platforms": ["cbgp"],
        "deploy": False,
        "trial_deadline_s": 0.5,
        "trials": [
            {
                "topology": "fig5",
                "platform": "netkit",
                "overrides": {
                    "deploy": False,
                    "inject_hang": "build",
                    "hang_seconds": 1.0,
                    "trial_deadline_s": 30.0,
                },
            }
        ],
    }
    result = run_campaign(spec, directory=tmp_path)
    # the wired trial hangs 1s but carries its own 30s budget: it finishes
    assert result.executed == 2
    assert not result.timed_out
    assert result.ok


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched chaos hook reaches pool workers only through fork",
)
def test_executor_fallback_produces_identical_results(tmp_path, monkeypatch):
    """A pool worker killed with SIGKILL sends the rest of the run inline."""
    import repro.campaign.runner as runner

    spec = {
        "name": "fallback",
        "topologies": ["fig5"],
        "platforms": ["netkit", "cbgp", "dynagen"],
        "deploy": False,
    }
    serial_dir = str(tmp_path / "serial")
    degraded_dir = str(tmp_path / "degraded")
    serial = run_campaign(spec, directory=serial_dir, jobs=1)
    assert serial.executed == 3
    assert serial.degraded_to is None

    driver = os.getpid()
    real_inject = runner._maybe_inject

    def kill_pool_worker(overrides, stage):
        if os.getpid() != driver:
            os.kill(os.getpid(), signal.SIGKILL)
        real_inject(overrides, stage)

    monkeypatch.setattr(runner, "_maybe_inject", kill_pool_worker)
    degraded = run_campaign(spec, directory=degraded_dir, jobs=2)
    assert degraded.executed == 3
    assert degraded.degraded_to == "serial"
    assert degraded.ok
    assert TrialJournal(degraded_dir).open_intents() == {}
    assert outcome_rows(degraded_dir) == outcome_rows(serial_dir)


def test_open_breaker_defers_trials_for_the_platform(tmp_path):
    spec = {
        "name": "breaker",
        "topologies": ["fig5"],
        "platforms": ["netkit"],
        "deploy": False,
        "trials": [
            {
                "topology": "fig5",
                "platform": "netkit",
                "overrides": {
                    "deploy": False,
                    "inject_fault": "build",
                    "max_rounds": rounds,
                },
            }
            for rounds in (11, 12, 13, 14)
        ],
    }
    parsed = CampaignSpec.from_dict(spec)
    runner = CampaignRunner(
        parsed,
        directory=tmp_path,
        breaker_threshold=3,
        breaker_cooldown_s=3600.0,
    )
    result = runner.run()
    # the matrix trial succeeds; three wired failures trip the breaker,
    # and whatever follows in a later chunk is deferred, not executed
    assert result.deferred, "expected the open breaker to defer trials"
    assert len(result.records) + len(result.deferred) == 5
    assert runner.breakers.open_breakers() == ["netkit"]
    # deferred trials were never recorded: they are still pending
    status = ResultStore(tmp_path).status(parsed)
    assert status["pending"] == len(result.deferred)


SIGTERM_DRIVER = """
import sys
sys.path.insert(0, %(src)r)
from repro.cli import main
raise SystemExit(main([
    "campaign", "run", %(spec_path)r, "-o", %(directory)r,
]))
"""


def test_sigterm_checkpoints_the_journal_and_exits_143(tmp_path):
    spec = crash_spec()
    spec["trials"][0]["overrides"]["hang_seconds"] = 60.0
    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    directory = str(tmp_path / "results")
    hang_trial = list(CampaignSpec.from_dict(spec))[-1]

    driver = SIGTERM_DRIVER % {
        "src": SRC,
        "spec_path": spec_path,
        "directory": directory,
    }
    process = subprocess.Popen(
        [sys.executable, "-c", driver],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        # wait until the wired trial is inside its 60s hang...
        hang_run_dir = os.path.join(directory, "trials", hang_trial.trial_id)
        deadline = time.time() + 120
        while not os.path.isdir(hang_run_dir):
            if time.time() > deadline:
                pytest.fail("campaign never reached the hanging trial")
            if process.poll() is not None:
                pytest.fail(
                    "driver exited early: %s"
                    % process.stderr.read().decode()
                )
            time.sleep(0.05)
        time.sleep(0.5)
        # ...then ask it to stop the way an orchestrator would
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
    assert process.returncode == 143, stderr.decode()
    assert b"terminated" in stderr

    # the orderly stop checkpointed the journal and flushed the index
    journal = TrialJournal(directory)
    checkpoint = journal.last_checkpoint()
    assert checkpoint is not None
    assert checkpoint.reason == "sigterm"
    assert set(journal.open_intents()) == {hang_trial.spec_hash}
    latest = ResultStore(directory).latest()
    assert len(latest) == 2  # the healthy trials landed before the stop
    assert all(record.ok for record in latest.values())
