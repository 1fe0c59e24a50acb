"""Every atomic rewrite survives a write that fails halfway.

A rewrite goes through a temp file that is fsync'd and renamed over the
target.  If the write fails before the rename, the old file must still
be there, byte for byte, and the temp file must be gone.
"""

import errno
import os

import pytest

from repro.campaign import CampaignSpec, ResultStore
from repro.supervision import TrialJournal


def _spec(name):
    return CampaignSpec.from_dict(
        {"name": name, "topologies": ["fig5"], "platforms": ["netkit"]}
    )


def _stored_spec(directory):
    store = ResultStore(directory)
    store.write_spec(_spec("old"))
    return store.spec_path, lambda: store.write_spec(_spec("new"))


def _compacted_journal(directory):
    journal = TrialJournal(directory)
    journal.start("t1", "h1")
    journal.start("t2", "h2")
    journal.finish("t2", "h2", "ok")
    return journal.path, journal.recover


@pytest.mark.parametrize(
    "writer", [_stored_spec, _compacted_journal],
    ids=["write_spec", "journal_recover"],
)
def test_failed_rewrite_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch, writer):
    path, rewrite = writer(str(tmp_path))
    with open(path, "rb") as handle:
        before = handle.read()
    files = sorted(os.listdir(tmp_path))

    def disk_full(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", disk_full)
    with pytest.raises(OSError, match="No space left"):
        rewrite()
    with open(path, "rb") as handle:
        assert handle.read() == before
    assert sorted(os.listdir(tmp_path)) == files
