"""One definition of a torn line, held by every durable log.

The campaign index, the trial journal and the service's job journal are
all :class:`~repro.supervision.AppendLog` files.  A line that is not a
UTF-8 JSON object is skipped and counted, never raised, by every
reader; and a log cut at any byte by a crash reads back as exactly the
entries that were whole before the cut.
"""

import json
import os
import shutil

import pytest

from repro.campaign import ResultStore
from repro.campaign.store import load_records
from repro.service import ResultIndex
from repro.service.queue import JobJournal
from repro.supervision import AppendLog, TrialJournal
from tests.supervision.test_durable_append import (
    _index,
    _job_journal,
    _trial_journal,
)

WRITERS = pytest.mark.parametrize(
    "writer", [_index, _trial_journal, _job_journal],
    ids=["result_index", "trial_journal", "job_journal"],
)

BAD_LINES = pytest.mark.parametrize(
    "bad",
    [b"\xff\xfe\x00 not utf-8", b"[1, 2]", b'"a string"', b"42", b"null",
     b'{"trial_id": "cut off'],
    ids=["non_utf8", "json_list", "json_string", "json_number", "json_null",
         "half_object"],
)

#: reads a log's directory the way its owner does; returns torn_lines
TORN_COUNTERS = {
    _index: lambda d: _read_torn(ResultStore(d), "records"),
    _trial_journal: lambda d: _read_torn(TrialJournal(d), "open_intents"),
    _job_journal: lambda d: _read_torn(JobJournal(d), "replay"),
}

#: the field that names an entry in each log, as its reader reports it
IDENTITY = {_index: "spec_hash", _trial_journal: "spec_hash", _job_journal: "id"}


def _read_torn(owner, method):
    getattr(owner, method)()
    return owner.torn_lines


def _write_bad_line(path, bad):
    with open(path, "ab") as handle:
        handle.write(bad + b"\n")


@WRITERS
@BAD_LINES
def test_a_bad_line_is_skipped_and_counted(tmp_path, writer, bad):
    path, append, read, expected = writer(str(tmp_path))
    append("a")
    _write_bad_line(path, bad)
    append("c")
    assert read() == expected
    assert TORN_COUNTERS[writer](str(tmp_path)) == 1


@BAD_LINES
def test_every_index_reader_skips_a_bad_line(tmp_path, bad):
    directory = str(tmp_path / "campaign")
    path, append, _read, expected = _index(directory)
    append("a")
    _write_bad_line(path, bad)
    append("c")
    assert ResultStore(directory).completed_hashes() == set(expected)
    tailer = ResultStore(directory)
    assert [r.spec_hash for r in tailer.poll_records()] == expected
    assert tailer.torn_lines == 1
    assert [r.spec_hash for r in load_records(directory)] == expected
    index = ResultIndex(str(tmp_path / "index.db"))
    assert [r.spec_hash for r in index.index_store("c1", directory)] == expected
    append("d")  # the tailer keeps indexing past the bad line
    assert [r.spec_hash for r in index.index_store("c1", directory)] == ["hash-d"]
    assert index.counts("c1")["indexed"] == 3


def _written_log(tmp_path, writer, count=3):
    """A log of ``count`` entries from the real writer: its bytes and,
    per entry, ``(end of its JSON text, entry)``."""
    path, append, _read, _expected = writer(str(tmp_path / "source"))
    for number in range(count):
        append("e%d" % number)
    with open(path, "rb") as handle:
        data = handle.read()
    spans, start = [], 0
    for line in data.splitlines(keepends=True):
        spans.append((start + len(line.rstrip(b"\n")), json.loads(line)))
        start += len(line)
    return os.path.basename(path), data, spans


@WRITERS
def test_truncation_at_every_byte_reads_the_whole_prefix(tmp_path, writer):
    name, data, spans = _written_log(tmp_path, writer)
    full = AppendLog(str(tmp_path / "source" / name)).read()
    assert full[0] == [entry for _end, entry in spans] and full[2] == 0
    key = IDENTITY[writer]
    cut_dir = tmp_path / "cut"
    for k in range(len(data) + 1):
        shutil.rmtree(cut_dir, ignore_errors=True)
        cut_dir.mkdir()
        cut = str(cut_dir / name)
        with open(cut, "wb") as handle:
            handle.write(data[:k])
        log = AppendLog(cut)

        entries, end, torn = log.read()
        whole = [entry for stop, entry in spans if stop <= k]
        assert entries == whole, k
        assert torn <= 1 and end == k, k

        tail, tail_end, tail_torn = log.read(tail=True)
        assert tail == [entry for stop, entry in spans if stop < k], k
        assert tail_end <= k and tail_torn == 0, k
        assert data[:tail_end].endswith(b"\n") or tail_end == 0, k

        # a poll resuming from the cut's tail position reads the rest
        rest, rest_end, rest_torn = AppendLog(
            str(tmp_path / "source" / name)
        ).read(tail_end, tail=True)
        assert tail + rest == full[0] and rest_end == len(data), k
        assert rest_torn == 0, k

        # the next real append self-heals: the prefix plus the new entry
        _path, append, _read, _expected = writer(str(cut_dir))
        append("new")
        healed, _end, healed_torn = log.read()
        assert healed[:-1] == whole, k
        assert healed[-1][key].endswith("new"), k
        assert healed_torn == torn, k
