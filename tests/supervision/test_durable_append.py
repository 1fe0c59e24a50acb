"""Every fsync'd JSONL writer survives a torn tail left by a crash.

A crash mid-append can leave the file ending without a newline.  The
next append must start on a fresh line: the fragment becomes one
skippable torn line and the new entry stays readable.
"""

import pytest

from repro.campaign import ResultStore, TrialRecord
from repro.service.queue import Job, JobJournal
from repro.supervision import TrialJournal


def _record(suffix):
    return TrialRecord(
        trial_id="fig5@netkit-%s" % suffix, spec_hash="hash-%s" % suffix,
        status="ok", topology="fig5", platform="netkit",
    )


def _job(job_id):
    return Job(job_id=job_id, client="c", spec_data={}, directory="d")


def _index(directory):
    store = ResultStore(directory)
    return (
        store.index_path,
        lambda name: store.append(_record(name)),
        lambda: [record.spec_hash for record in ResultStore(directory).records()],
        ["hash-a", "hash-c"],
    )


def _trial_journal(directory):
    journal = TrialJournal(directory)
    return (
        journal.path,
        lambda name: journal.start("t-" + name, "h-" + name),
        lambda: sorted(TrialJournal(directory).open_intents()),
        ["h-a", "h-c"],
    )


def _job_journal(directory):
    journal = JobJournal(directory)
    return (
        journal.path,
        lambda name: journal.submit(_job(name)),
        lambda: [job.job_id for job in JobJournal(directory).replay()],
        ["a", "c"],
    )


@pytest.mark.parametrize(
    "writer", [_index, _trial_journal, _job_journal],
    ids=["result_index", "trial_journal", "job_journal"],
)
def test_append_after_a_torn_tail_keeps_the_new_entry(tmp_path, writer):
    path, append, read, expected = writer(str(tmp_path))
    append("a")
    with open(path, "a") as handle:
        handle.write('{"op": "start", "cut off')  # the crash: no newline
    append("c")
    assert read() == expected
    with open(path) as handle:
        assert len(handle.read().splitlines()) == 3  # a, the fragment, c
