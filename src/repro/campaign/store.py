"""The resumable campaign result store.

One campaign owns one directory::

    <campaign_dir>/
      index.jsonl          # one JSON record per finished trial (append-only)
      cache/               # shared artifact cache (default location)
      trials/<trial_id>/   # per-trial run directory
        rendered/          # the trial's lab files
        result.json        # the trial's full record
        trace.jsonl        # the trial's telemetry trace

The JSONL index is the resume contract: records are keyed on the
trial's :attr:`~repro.campaign.spec.TrialSpec.spec_hash`, appended
atomically (one ``write`` of one line) as each trial finishes, so an
interrupted campaign loses at most the in-flight trials.  Re-running
the campaign skips every hash already present — only the delta
executes — and re-running an *extended* spec executes exactly the new
cells.  When a trial is re-executed (``retry_failed``), its new record
is appended and supersedes the old one: readers keep the **last**
record per hash.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.campaign.spec import CampaignSpec, TrialSpec
from repro.exceptions import CampaignError
from repro.supervision import durable_append, durable_replace

INDEX_NAME = "index.jsonl"
SPEC_NAME = "spec.json"

#: Trial statuses recorded in the index.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
#: The trial overran its wall-clock budget.  Quarantine-adjacent: the
#: overrun *is* the recorded outcome, so resume skips it like a failure
#: (``--retry-failed`` re-executes it).
STATUS_TIMED_OUT = "timed_out"
#: The trial was cut off mid-flight (SIGKILL recovery, SIGTERM
#: checkpoint).  Never counts as completed: resume always re-executes.
STATUS_INTERRUPTED = "interrupted"


@dataclass
class TrialRecord:
    """What one executed trial left behind."""

    trial_id: str
    spec_hash: str
    status: str                      # ok | failed | timed_out | interrupted
    topology: str = ""
    platform: str = ""
    error: Optional[str] = None      # failure cause when status == failed
    convergence: dict = field(default_factory=dict)   # ConvergenceReport.to_dict()
    reachability: dict = field(default_factory=dict)  # pairs / reachable / fraction
    timings: dict = field(default_factory=dict)       # phase -> seconds
    engine: dict = field(default_factory=dict)        # cache_hits / misses / rendered
    profile: dict = field(default_factory=dict)       # collapsed/table paths, samples
    traffic: dict = field(default_factory=dict)       # TrafficReport.summary()
    liveupdate: dict = field(default_factory=dict)    # rolling-change apply/verify
    run_dir: str = ""
    duration_seconds: float = 0.0
    finished_at: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def outcome(self) -> str:
        """One human cell: the trial's verdict for the report tables."""
        if self.status == STATUS_TIMED_OUT:
            return "TIMED OUT: %s" % (self.error or "deadline exceeded")
        if self.status == STATUS_INTERRUPTED:
            return "INTERRUPTED: %s" % (self.error or "run cut short")
        if not self.ok:
            return "FAILED: %s" % (self.error or "unknown error")
        status = self.convergence.get("status")
        if status is None:
            return "built (not deployed)"
        if status == "converged":
            return "converged in %d rounds" % self.convergence.get("rounds", 0)
        if status == "oscillating":
            return "oscillating (period %d)" % self.convergence.get("period", 0)
        if status == "partitioned":
            return "partitioned (%d components)" % self.convergence.get("components", 1)
        return "undetermined after %d rounds" % self.convergence.get("rounds", 0)

    def to_dict(self) -> dict:
        return {
            "trial_id": self.trial_id,
            "spec_hash": self.spec_hash,
            "status": self.status,
            "topology": self.topology,
            "platform": self.platform,
            "error": self.error,
            "convergence": self.convergence,
            "reachability": self.reachability,
            "timings": self.timings,
            "engine": self.engine,
            "profile": self.profile,
            "traffic": self.traffic,
            "liveupdate": self.liveupdate,
            "run_dir": self.run_dir,
            "duration_seconds": self.duration_seconds,
            "finished_at": self.finished_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrialRecord":
        return cls(
            trial_id=data.get("trial_id", ""),
            spec_hash=data.get("spec_hash", ""),
            status=data.get("status", STATUS_FAILED),
            topology=data.get("topology", ""),
            platform=data.get("platform", ""),
            error=data.get("error"),
            convergence=data.get("convergence") or {},
            reachability=data.get("reachability") or {},
            timings=data.get("timings") or {},
            engine=data.get("engine") or {},
            profile=data.get("profile") or {},
            traffic=data.get("traffic") or {},
            liveupdate=data.get("liveupdate") or {},
            run_dir=data.get("run_dir", ""),
            duration_seconds=data.get("duration_seconds", 0.0),
            finished_at=data.get("finished_at", 0.0),
        )


class ResultStore:
    """Append-only, hash-keyed storage for one campaign's results."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = str(directory)
        os.makedirs(os.path.join(self.directory, "trials"), exist_ok=True)
        self._lock = threading.Lock()
        #: torn (half-written) index lines skipped by the last read
        self.torn_lines = 0
        # incremental read state (see poll_records): byte offset of the
        # last fully consumed index line, the latest-record cache built
        # from everything consumed so far, and the cost of the last poll
        self._poll_offset = 0
        self._poll_latest: dict[str, TrialRecord] = {}
        self.last_poll_bytes = 0

    # -- paths ---------------------------------------------------------------
    @property
    def index_path(self) -> str:
        return os.path.join(self.directory, INDEX_NAME)

    @property
    def spec_path(self) -> str:
        return os.path.join(self.directory, SPEC_NAME)

    def cache_dir(self) -> str:
        return os.path.join(self.directory, "cache")

    def trial_dir(self, trial: TrialSpec | TrialRecord) -> str:
        return os.path.join(self.directory, "trials", trial.trial_id)

    # -- the index -----------------------------------------------------------
    def append(self, record: TrialRecord) -> None:
        """Durably add one finished trial: a single appended JSON line
        (a torn tail left by a crash stays a separate, skippable line)."""
        record.finished_at = record.finished_at or time.time()
        line = json.dumps(record.to_dict(), sort_keys=True, default=str)
        with self._lock:
            durable_append(self.index_path, line)

    def records(self) -> list[TrialRecord]:
        """Every valid index record, in append order (duplicates kept)."""
        self.torn_lines = 0
        if not os.path.exists(self.index_path):
            return []
        found = []
        with self._lock:
            with open(self.index_path) as handle:
                lines = handle.readlines()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                found.append(TrialRecord.from_dict(json.loads(line)))
            except ValueError:
                # a torn final line from an interrupted run is expected;
                # it is counted for forensics and that trial simply
                # re-executes on resume
                self.torn_lines += 1
                continue
        return found

    def latest(self) -> dict[str, TrialRecord]:
        """Last record per spec hash — the store's authoritative view."""
        latest: dict[str, TrialRecord] = {}
        for record in self.records():
            latest[record.spec_hash] = record
        return latest

    # -- incremental reads ---------------------------------------------------
    def poll_records(self) -> list[TrialRecord]:
        """New index records since the last poll — an O(delta) read.

        Reads from the byte offset where the previous poll stopped, so
        repeated polling (the service tailer, ``status`` loops) costs
        the appended delta, not the whole history.  Only lines
        terminated by a newline are consumed: a torn *trailing* line
        (an append cut off mid-write) stays pending until its writer —
        or crash recovery — completes or supersedes it.  A terminated
        but unparseable line is skipped and counted in ``torn_lines``
        (cumulative across polls, unlike :meth:`records` which resets).
        ``last_poll_bytes`` records what the poll actually read.
        """
        self.last_poll_bytes = 0
        new_records: list[TrialRecord] = []
        with self._lock:
            try:
                handle = open(self.index_path, "rb")
            except FileNotFoundError:
                return []
            with handle:
                size = os.fstat(handle.fileno()).st_size
                if size < self._poll_offset:
                    # the index shrank (a fresh store in a reused
                    # directory): start over from the top
                    self._poll_offset = 0
                    self._poll_latest = {}
                handle.seek(self._poll_offset)
                chunk = handle.read()
            self.last_poll_bytes = len(chunk)
            consumed = chunk.rfind(b"\n") + 1
            if not consumed:
                return []
            for line in chunk[:consumed].splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = TrialRecord.from_dict(json.loads(line.decode()))
                except (ValueError, UnicodeDecodeError):
                    self.torn_lines += 1
                    continue
                new_records.append(record)
                self._poll_latest[record.spec_hash] = record
            self._poll_offset += consumed
        return new_records

    def latest_view(self) -> dict[str, TrialRecord]:
        """The authoritative view, maintained incrementally.

        Equivalent to :meth:`latest` but costs one :meth:`poll_records`
        delta read instead of a full index scan, so callers that poll
        (``status``, the service) stay O(new records).
        """
        self.poll_records()
        return dict(self._poll_latest)

    def completed_hashes(self, include_failed: bool = True) -> set[str]:
        """Spec hashes resume should skip.

        Failed and timed-out trials count as completed by default —
        their failure is the recorded result; ``include_failed=False``
        is the ``retry_failed`` view, which re-executes them.
        ``interrupted`` records never count: the trial did not run to
        an outcome, so resume always re-executes it.
        """
        return {
            spec_hash
            for spec_hash, record in self.latest().items()
            if record.status != STATUS_INTERRUPTED
            and (include_failed or record.ok)
        }

    # -- the stored spec -----------------------------------------------------
    def write_spec(self, spec: CampaignSpec) -> str:
        """Persist the campaign's expanded trial list beside the index.

        The stored form is path-independent — fault schedules and
        traffic profiles are already canonicalised to their content —
        so ``repro campaign status <results-dir>`` (and the service)
        can recover the full matrix, pending trials included, from the
        results directory alone.
        """
        data = {
            "name": spec.name,
            "trials": [
                dict(trial.canonical(), sequence=trial.sequence)
                for trial in spec
            ],
        }
        durable_replace(self.spec_path, json.dumps(data, indent=2, sort_keys=True))
        return self.spec_path

    def load_spec(self) -> CampaignSpec:
        """The campaign spec recovered from the stored trial list."""
        try:
            with open(self.spec_path) as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise CampaignError(
                "%s has no stored spec (%s): the campaign predates spec "
                "storage — pass the spec JSON instead" % (self.directory, SPEC_NAME)
            )
        except ValueError as exc:
            raise CampaignError(
                "stored spec %s is not valid JSON: %s" % (self.spec_path, exc)
            )
        return CampaignSpec.from_expanded(data)

    # -- per-trial artefacts -------------------------------------------------
    def write_trial_result(self, record: TrialRecord) -> str:
        run_dir = record.run_dir or self.trial_dir(record)
        os.makedirs(run_dir, exist_ok=True)
        path = os.path.join(run_dir, "result.json")
        with open(path, "w") as handle:
            json.dump(record.to_dict(), handle, indent=2, sort_keys=True, default=str)
        return path

    # -- campaign-level views ------------------------------------------------
    def status(self, spec: CampaignSpec) -> dict:
        """Where a campaign stands against this store's index.

        ``interrupted`` trials (a crashed run recovered by the journal)
        count as pending — they will re-execute on resume — and are
        also listed separately so operators can see *why* they are
        pending.  ``torn_lines`` counts half-written index lines seen
        so far, evidence of an unclean stop.

        Uses the incremental view: repeated status polls read only the
        index lines appended since the previous call, so polling cost
        tracks new work, not completed-trial history.
        """
        latest = self.latest_view()
        done, failed, timed_out, interrupted, pending = [], [], [], [], []
        for trial in spec:
            record = latest.get(trial.spec_hash)
            if record is None:
                pending.append(trial.trial_id)
            elif record.ok:
                done.append(trial.trial_id)
            elif record.status == STATUS_TIMED_OUT:
                timed_out.append(trial.trial_id)
            elif record.status == STATUS_INTERRUPTED:
                interrupted.append(trial.trial_id)
                pending.append(trial.trial_id)
            else:
                failed.append(trial.trial_id)
        return {
            "campaign": spec.name,
            "total": len(spec),
            "completed": len(done) + len(failed) + len(timed_out),
            "ok": len(done),
            "failed": len(failed),
            "timed_out": len(timed_out),
            "interrupted": len(interrupted),
            "pending": len(pending),
            "pending_trials": pending,
            "failed_trials": failed,
            "timed_out_trials": timed_out,
            "interrupted_trials": interrupted,
            "torn_lines": self.torn_lines,
        }

    def __len__(self) -> int:
        return len(self.latest())

    def __repr__(self) -> str:
        return "ResultStore(%r, %d trials)" % (self.directory, len(self))


def load_records(source: str | os.PathLike | Iterable[TrialRecord]) -> list[TrialRecord]:
    """Records from a store directory, an index file, or a record list.

    The report and comparison layers accept any of the three, so
    ``repro campaign report`` works on a campaign directory while the
    API composes from in-memory results; duplicates collapse to the
    last record per spec hash, in first-seen order.
    """
    if isinstance(source, (str, os.PathLike)):
        path = str(source)
        if os.path.isdir(path):
            path = os.path.join(path, INDEX_NAME)
        if not os.path.exists(path):
            raise CampaignError("no campaign index at %s" % path)
        records = ResultStoreReader(path).records()
    else:
        records = list(source)
    latest: dict[str, TrialRecord] = {}
    for record in records:
        latest[record.spec_hash] = record
    ordered: list[TrialRecord] = []
    seen: set[str] = set()
    for record in records:
        if record.spec_hash in seen:
            continue
        seen.add(record.spec_hash)
        ordered.append(latest[record.spec_hash])
    return ordered


class ResultStoreReader:
    """Read-only index access for stores we did not create (baselines)."""

    def __init__(self, index_path: str):
        self.index_path = index_path
        self.torn_lines = 0

    def records(self) -> list[TrialRecord]:
        self.torn_lines = 0
        found = []
        with open(self.index_path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    found.append(TrialRecord.from_dict(json.loads(line)))
                except ValueError:
                    self.torn_lines += 1
                    continue
        return found
