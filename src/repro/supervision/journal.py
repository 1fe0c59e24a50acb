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
* SIGKILL between index append and ``finish``: recovery re-executes a
  trial whose record already landed; the re-run appends a superseding
  record with identical content (trials are deterministic), so readers
  — which keep the last record per hash — see no difference.  Nothing
  is duplicated in the authoritative view.
* A torn trailing line (the write itself was interrupted) is skipped
  and counted, exactly like the index and the perf-baseline store.

The journal is append-only and self-compacting on recovery: once the
open intents have been reported, :meth:`recover` rewrites the file to
just those still-open entries, so it stays proportional to in-flight
work, not campaign history.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Optional

JOURNAL_NAME = "journal.jsonl"

OP_START = "start"
OP_FINISH = "finish"
OP_CHECKPOINT = "checkpoint"


@dataclass
class JournalEntry:
    """One journalled intent line."""

    op: str
    spec_hash: str = ""
    trial_id: str = ""
    status: str = ""          # on finish: ok | failed | timed_out
    reason: str = ""          # on checkpoint: interrupt | sigterm | ...
    at: float = 0.0

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "spec_hash": self.spec_hash,
            "trial_id": self.trial_id,
            "status": self.status,
            "reason": self.reason,
            "at": self.at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JournalEntry":
        return cls(
            op=data.get("op", ""),
            spec_hash=data.get("spec_hash", ""),
            trial_id=data.get("trial_id", ""),
            status=data.get("status", ""),
            reason=data.get("reason", ""),
            at=data.get("at", 0.0),
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
        self._lock = threading.Lock()
        #: torn lines skipped by the last read (crash forensics)
        self.torn_lines = 0

    @property
    def path(self) -> str:
        return os.path.join(self.directory, JOURNAL_NAME)

    # -- writes --------------------------------------------------------------
    def _append(self, entry: JournalEntry) -> None:
        entry.at = entry.at or time.time()
        line = json.dumps(entry.to_dict(), sort_keys=True)
        with self._lock:
            durable_append(self.path, line)

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
        self.torn_lines = 0
        if not os.path.exists(self.path):
            return []
        found: list[JournalEntry] = []
        with self._lock:
            with open(self.path) as handle:
                lines = handle.readlines()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError:
                self.torn_lines += 1
                continue
            if isinstance(data, dict):
                found.append(JournalEntry.from_dict(data))
        return found

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
        open_entries = self.open_intents()
        with self._lock:
            if not os.path.exists(self.path):
                return []
            durable_replace(self.path, "".join(
                json.dumps(entry.to_dict(), sort_keys=True) + "\n"
                for entry in open_entries.values()
            ))
        return list(open_entries.values())

    def __repr__(self) -> str:
        return "TrialJournal(%r)" % self.path
