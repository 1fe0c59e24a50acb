"""The service tailer reads a campaign index and nothing else.

:meth:`ResultIndex.index_store` tails ``index.jsonl`` from its persisted
offset: it leaves the campaign directory as it found it, a restarted
index resumes where the last one stopped, and a rescan from zero
upserts the same rows.
"""

import os

from repro.campaign import ResultStore, TrialRecord
from repro.campaign.store import INDEX_NAME
from repro.service import ResultIndex


def _record(suffix):
    return TrialRecord(
        trial_id="fig5@netkit-%s" % suffix, spec_hash="hash-%s" % suffix,
        status="ok", topology="fig5", platform="netkit",
    )


def _index_only(tmp_path, *suffixes):
    """A campaign directory holding nothing but its index."""
    writer = ResultStore(tmp_path / "writer")
    for suffix in suffixes:
        writer.append(_record(suffix))
    directory = tmp_path / "campaign"
    directory.mkdir()
    os.replace(writer.index_path, directory / INDEX_NAME)
    return writer, directory


def _hashes(records):
    return [record.spec_hash for record in records]


def test_tailing_creates_nothing_in_the_campaign_directory(tmp_path):
    _writer, directory = _index_only(tmp_path, "a", "b")
    index = ResultIndex(str(tmp_path / "index.db"))
    assert _hashes(index.index_store("c1", directory)) == ["hash-a", "hash-b"]
    assert os.listdir(directory) == [INDEX_NAME]


def test_a_restarted_index_resumes_at_its_persisted_offset(tmp_path):
    _writer, directory = _index_only(tmp_path, "a", "b")
    db_path = str(tmp_path / "index.db")
    assert len(ResultIndex(db_path).index_store("c1", directory)) == 2
    ResultStore(directory).append(_record("c"))
    restarted = ResultIndex(db_path)
    assert _hashes(restarted.index_store("c1", directory)) == ["hash-c"]
    assert restarted.index_store("c1", directory) == []


def test_a_rescan_after_reset_upserts_the_same_rows(tmp_path):
    _writer, directory = _index_only(tmp_path, "a", "b", "c")
    index = ResultIndex(str(tmp_path / "index.db"))
    index.index_store("c1", directory)
    before = index.trials("c1")
    index.reset_offsets()
    assert _hashes(index.index_store("c1", directory)) == [
        "hash-a", "hash-b", "hash-c",
    ]
    assert index.trials("c1") == before
    assert index.counts("c1")["indexed"] == 3
