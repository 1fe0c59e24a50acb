"""The write-ahead trial journal: intents, recovery, torn lines."""

import json
import os

from repro.supervision import JOURNAL_NAME, OP_CHECKPOINT, OP_RECOVER, OP_START, TrialJournal


def test_start_without_finish_is_an_open_intent(tmp_path):
    journal = TrialJournal(tmp_path)
    journal.start("t1", "hash1")
    journal.start("t2", "hash2")
    journal.finish("t1", "hash1", "ok")
    open_intents = journal.open_intents()
    assert set(open_intents) == {"hash2"}
    assert open_intents["hash2"].trial_id == "t2"


def test_finish_for_every_start_leaves_nothing_open(tmp_path):
    journal = TrialJournal(tmp_path)
    for n in range(3):
        journal.start("t%d" % n, "hash%d" % n)
        journal.finish("t%d" % n, "hash%d" % n, "ok")
    assert journal.open_intents() == {}


def test_checkpoint_keeps_intents_open_and_is_queryable(tmp_path):
    journal = TrialJournal(tmp_path)
    journal.start("t1", "hash1")
    journal.checkpoint("sigterm")
    assert set(journal.open_intents()) == {"hash1"}
    checkpoint = journal.last_checkpoint()
    assert checkpoint is not None
    assert checkpoint.op == OP_CHECKPOINT
    assert checkpoint.reason == "sigterm"
    assert checkpoint.at > 0


def test_empty_journal_reads_cleanly(tmp_path):
    journal = TrialJournal(tmp_path)
    assert journal.entries() == []
    assert journal.open_intents() == {}
    assert journal.last_checkpoint() is None
    assert journal.recover() == []


def test_torn_trailing_line_is_skipped_and_counted(tmp_path):
    journal = TrialJournal(tmp_path)
    journal.start("t1", "hash1")
    journal.start("t2", "hash2")
    # simulate a write cut off mid-line by the kernel killing the process
    with open(journal.path, "a") as handle:
        handle.write('{"op": "finish", "spec_hash": "ha')
    entries = journal.entries()
    assert len(entries) == 2
    assert journal.torn_lines == 1
    # the torn finish never lands: both intents stay open
    assert set(journal.open_intents()) == {"hash1", "hash2"}


def test_recover_reports_open_intents_and_compacts(tmp_path):
    journal = TrialJournal(tmp_path)
    for n in range(10):
        journal.start("t%d" % n, "hash%d" % n)
        journal.finish("t%d" % n, "hash%d" % n, "ok")
    journal.start("crashed", "hash_crashed")

    recovered = journal.recover()
    assert [entry.trial_id for entry in recovered] == ["crashed"]

    # compaction dropped the 20 finished lines: only the open intent remains
    with open(journal.path) as handle:
        lines = [line for line in handle if line.strip()]
    assert len(lines) == 1
    assert json.loads(lines[0])["op"] == OP_START
    # and the rewritten journal is still a valid journal
    assert set(journal.open_intents()) == {"hash_crashed"}


def test_recover_leaves_no_stray_temp_file(tmp_path):
    journal = TrialJournal(tmp_path)
    journal.start("t1", "hash1")
    journal.recover()
    assert os.listdir(tmp_path) == [JOURNAL_NAME]


def test_restart_is_a_finish_then_start_cycle(tmp_path):
    """The recover → re-execute → finish flow closes the intent."""
    journal = TrialJournal(tmp_path)
    journal.start("t1", "hash1")
    # ... SIGKILL here; a new process recovers:
    journal = TrialJournal(tmp_path)
    assert [e.trial_id for e in journal.recover()] == ["t1"]
    journal.finish("t1", "hash1", "interrupted")  # the recovery record
    journal.start("t1", "hash1")                  # the re-execution
    journal.finish("t1", "hash1", "ok")
    assert journal.open_intents() == {}


def test_recover_keeps_torn_lines_counted(tmp_path):
    """Compaction drops a torn line; a ``recover`` line keeps it counted,
    through later recoveries too, so status still sees the unclean stop."""
    journal = TrialJournal(tmp_path)
    journal.start("t1", "hash1")
    with open(journal.path, "ab") as handle:
        handle.write(b'\xff\xfe{"cut')
    assert [e.trial_id for e in journal.recover()] == ["t1"]
    journal.finish("t1", "hash1", "ok")
    assert journal.recover() == []
    fresh = TrialJournal(tmp_path)
    assert [entry.op for entry in fresh.entries()] == [OP_RECOVER]
    assert fresh.torn_lines == 1
    assert fresh.open_intents() == {}
    assert fresh.last_checkpoint() is None
