"""The crash-safe write-ahead trial journal.

The campaign index (``index.jsonl``) records *finished* trials; the
journal (``journal.jsonl`` beside it) records *intents*: one fsync'd
line when a trial is about to run (``start``) and one when
its record has been durably appended to the index (``finish``).  A
checkpoint line marks an orderly interruption (ctrl-C, SIGTERM).

That ordering is the recovery contract::

    journal start  →  execute  →  index append (fsync)  →  journal finish

* SIGKILL before the index append: the trial has a ``start`` with no
  ``finish`` — :meth:`recover` reports it as *interrupted* and the
  runner re-executes it from its content hash.  Nothing is lost.
* SIGKILL between index append and ``finish``: the runner finds the
  landed record and just closes the intent; the trial does not
  re-execute.  Nothing is duplicated.
* A torn line (the write itself was interrupted) is skipped and
  counted: the journal, the campaign index and the service's job
  journal are all one :class:`AppendLog` format.

The journal is append-only and self-compacting on recovery: once the
open intents have been reported, :meth:`recover` rewrites the file to
just those still-open entries, so it stays proportional to in-flight
work, not campaign history.  The torn lines it drops stay counted: a
``recover`` line carries their number forward, so ``torn_lines`` (and
``campaign status``) still shows that a run stopped uncleanly.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

JOURNAL_NAME = "journal.jsonl"

OP_START = "start"
OP_FINISH = "finish"
OP_CHECKPOINT = "checkpoint"
OP_RECOVER = "recover"


@dataclass
class JournalEntry:
    """One journalled intent line."""

    op: str
    spec_hash: str = ""
    trial_id: str = ""
    status: str = ""          # on finish: ok | failed | timed_out
    reason: str = ""          # on checkpoint: interrupt | sigterm | ...
    at: float = 0.0
    torn: int = 0             # on recover: torn lines compacted away

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JournalEntry":
        return cls(
            op=data.get("op", ""),
            spec_hash=data.get("spec_hash", ""),
            trial_id=data.get("trial_id", ""),
            status=data.get("status", ""),
            reason=data.get("reason", ""),
            at=data.get("at", 0.0),
            torn=data.get("torn", 0),
        )


def durable_append(path: str, line: str) -> None:
    """Append one line to ``path`` and fsync it.

    If a crash left the file ending mid-line (a torn append with no
    newline), the new line starts on a fresh line so the torn tail
    becomes an ordinary skippable torn line instead of swallowing this
    one.  Callers serialise concurrent writers themselves.
    """
    with open(path, "a+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                handle.write(b"\n")  # append mode: writes land at the end
        handle.write(line.encode() + b"\n")
        handle.flush()
        os.fsync(handle.fileno())


class AppendLog:
    """The one durable-log format: fsync'd JSONL, one JSON object a line.

    The campaign index, the trial journal and the service's job journal
    all write and read through it.  A *torn* line is any line that is
    not a UTF-8 JSON object (a crash cut it short, or it is garbage):
    :meth:`read` skips and counts it, never raises.  The lock
    serialises this process's writers; :func:`durable_append` makes a
    torn tail a line of its own on the next append.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = str(path)
        self._lock = threading.Lock()

    def append(self, entry: dict) -> None:
        line = json.dumps(entry, sort_keys=True, default=str)
        with self._lock:
            durable_append(self.path, line)

    def replace(self, entries: Iterable[dict]) -> None:
        """Atomically rewrite the log to just ``entries`` (compaction)."""
        text = "".join(
            json.dumps(entry, sort_keys=True, default=str) + "\n" for entry in entries
        )
        with self._lock:
            durable_replace(self.path, text)

    def read(self, offset: int = 0, tail: bool = False) -> tuple[list[dict], int, int]:
        """``(entries, end_offset, torn)`` for the log from byte ``offset``.

        A full read consumes a trailing line that has no newline (torn
        if it does not parse); a ``tail`` read, which a poller resumes
        from ``end_offset``, leaves it pending until its writer ends it.
        A log shorter than ``offset`` was replaced and is read from the
        top, so ``end_offset < offset`` says so.  A missing log is empty.
        """
        with self._lock:
            try:
                with open(self.path, "rb") as handle:
                    if os.fstat(handle.fileno()).st_size < offset:
                        offset = 0
                    handle.seek(offset)
                    chunk = handle.read()
            except FileNotFoundError:
                return [], 0, 0
        if tail:
            chunk = chunk[:chunk.rfind(b"\n") + 1]
        entries: list[dict] = []
        torn = 0
        for line in chunk.split(b"\n"):
            if not line.strip():
                continue
            try:
                entry = json.loads(line.decode())
            except ValueError:  # UnicodeDecodeError is a ValueError
                entry = None
            if isinstance(entry, dict):
                entries.append(entry)
            else:
                torn += 1
        return entries, offset + len(chunk), torn


def durable_replace(path: str, text: str) -> None:
    """Atomically replace ``path`` with ``text``, fsync'd.

    The text goes to a temp file in the same directory, which is
    fsync'd and renamed over ``path``; readers see the old file or the
    new one, never a torn mix.  On failure the temp file is removed and
    the old file is left untouched.
    """
    temp_path = "%s.%s.tmp" % (path, uuid.uuid4().hex[:12])
    try:
        # exclusive create, like mkstemp, but with the umask's mode
        # (mkstemp's 0600 would hide the file from group readers)
        with open(temp_path, "x") as out:
            out.write(text)
            out.flush()
            os.fsync(out.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


class TrialJournal:
    """Fsync'd JSONL intent log for one campaign directory."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.log = AppendLog(self.path)
        #: torn lines the last read skipped, plus those earlier
        #: recoveries compacted away (crash forensics)
        self.torn_lines = 0

    @property
    def path(self) -> str:
        return os.path.join(self.directory, JOURNAL_NAME)

    # -- writes --------------------------------------------------------------
    def _append(self, entry: JournalEntry) -> None:
        entry.at = entry.at or time.time()
        self.log.append(entry.to_dict())

    def start(self, trial_id: str, spec_hash: str) -> None:
        """Journal the intent to execute a trial — call *before* submit."""
        self._append(JournalEntry(OP_START, spec_hash=spec_hash, trial_id=trial_id))

    def finish(self, trial_id: str, spec_hash: str, status: str) -> None:
        """Mark a trial durably recorded — call *after* the index append."""
        self._append(
            JournalEntry(
                OP_FINISH, spec_hash=spec_hash, trial_id=trial_id, status=status
            )
        )

    def checkpoint(self, reason: str) -> None:
        """Mark an orderly interruption (the open intents stay open)."""
        self._append(JournalEntry(OP_CHECKPOINT, reason=reason))

    # -- reads ---------------------------------------------------------------
    def entries(self) -> list[JournalEntry]:
        """Every parseable entry in append order; torn lines counted."""
        found, _, torn = self.log.read()
        entries = [JournalEntry.from_dict(data) for data in found]
        self.torn_lines = torn + sum(entry.torn for entry in entries)
        return entries

    def open_intents(self) -> dict[str, JournalEntry]:
        """``{spec_hash: start entry}`` for starts without a finish."""
        open_entries: dict[str, JournalEntry] = {}
        for entry in self.entries():
            if entry.op == OP_START and entry.spec_hash:
                open_entries[entry.spec_hash] = entry
            elif entry.op == OP_FINISH:
                open_entries.pop(entry.spec_hash, None)
        return open_entries

    def last_checkpoint(self) -> Optional[JournalEntry]:
        checkpoint = None
        for entry in self.entries():
            if entry.op == OP_CHECKPOINT:
                checkpoint = entry
        return checkpoint

    # -- recovery ------------------------------------------------------------
    def recover(self) -> list[JournalEntry]:
        """Interrupted trials (open intents), compacting the journal.

        The compaction rewrite is atomic (:func:`durable_replace`) so a
        crash *during recovery* still leaves a valid journal.
        """
        open_entries = list(self.open_intents().values())
        if os.path.exists(self.path):
            kept = [entry.to_dict() for entry in open_entries]
            if self.torn_lines:
                marker = JournalEntry(OP_RECOVER, at=time.time(), torn=self.torn_lines)
                kept.insert(0, marker.to_dict())
            self.log.replace(kept)
        return open_entries

    def __repr__(self) -> str:
        return "TrialJournal(%r)" % self.path
