"""The service's async job queue: quota, priority aging, crash safety.

A :class:`Job` is one submitted campaign.  The :class:`JobQueue` holds
jobs until a worker claims them, scheduling by **priority-aged FIFO
under per-client quota**:

* every queued job's *effective* priority is its submitted priority
  plus ``waited_seconds / aging_s`` — a low-priority job that has
  waited one aging period outranks a fresh job submitted one priority
  level higher, so nothing starves behind a flood of urgent work;
* a client may hold at most ``quota`` running jobs; its queued jobs
  are simply not claimable while it is at quota, so one enthusiastic
  experimenter cannot occupy every worker;
* ties break round-robin: among equal effective priorities the
  least-recently-served client goes first, then submission order.

The queue itself is in-memory; durability lives in the
:class:`JobJournal`, an fsync'd JSONL log of submissions and state
transitions (the same write-ahead idiom as the campaign trial journal).
``kill -9`` the service and restart: :meth:`JobJournal.replay` rebuilds
every job, and any job that was queued or running is simply re-enqueued
— the campaign layer's own index + trial journal guarantee the re-run
executes exactly the unfinished delta.

Both classes take injectable clocks so scheduling is unit-testable
without sleeping.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.exceptions import ServiceError
from repro.supervision import AppendLog, CancelToken

JOBS_NAME = "jobs.jsonl"

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a restart must re-enqueue (the work is not finished).
PENDING_STATES = (QUEUED, RUNNING)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


@dataclass
class Job:
    """One submitted campaign riding through the service."""

    job_id: str
    client: str
    spec_data: dict                      # the raw campaign spec (JSON body)
    directory: str                       # this job's result-store directory
    priority: int = 0                    # higher runs sooner
    state: str = QUEUED
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    error: Optional[str] = None
    #: runner options the submission may set (jobs, trial_deadline_s...)
    options: dict = field(default_factory=dict)
    #: CampaignResult summary once the job finished
    result: dict = field(default_factory=dict)
    #: campaign name + trial count resolved at submission time
    campaign: str = ""
    total_trials: int = 0
    cancel: CancelToken = field(default_factory=CancelToken)
    sequence: int = 0                    # FIFO tie-break

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        return {
            "id": self.job_id,
            "client": self.client,
            "campaign": self.campaign,
            "priority": self.priority,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "total_trials": self.total_trials,
            "directory": self.directory,
            "options": self.options,
            "result": self.result,
        }


class JobQueue:
    """Thread-safe scheduling structure for the worker pool."""

    def __init__(
        self,
        quota: int = 2,
        aging_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if quota < 1:
            raise ServiceError("quota must be >= 1 (got %r)" % quota)
        if aging_s <= 0:
            raise ServiceError("aging_s must be positive (got %r)" % aging_s)
        self.quota = quota
        self.aging_s = aging_s
        self._clock = clock
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queued: list[Job] = []
        self._running: dict[str, Job] = {}
        self._served_at: dict[str, float] = {}   # client -> last claim stamp
        self._sequence = 0
        self._enqueued_at: dict[str, float] = {}  # job_id -> queue entry stamp

    # -- submission ----------------------------------------------------------
    def submit(self, job: Job) -> None:
        with self._wakeup:
            job.sequence = job.sequence or self._next_sequence()
            job.state = QUEUED
            self._queued.append(job)
            self._enqueued_at[job.job_id] = self._clock()
            self._wakeup.notify()

    def _next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    # -- scheduling ----------------------------------------------------------
    def _effective_priority(self, job: Job, now: float) -> float:
        waited = now - self._enqueued_at.get(job.job_id, now)
        return job.priority + max(0.0, waited) / self.aging_s

    def _claimable(self) -> Optional[Job]:
        """The next job to run, or None while quota/queue block everything."""
        now = self._clock()
        running_per_client: dict[str, int] = {}
        for job in self._running.values():
            running_per_client[job.client] = (
                running_per_client.get(job.client, 0) + 1
            )
        best: Optional[Job] = None
        best_key: tuple = ()
        for job in self._queued:
            if running_per_client.get(job.client, 0) >= self.quota:
                continue
            key = (
                self._effective_priority(job, now),
                -self._served_at.get(job.client, 0.0),
                -job.sequence,
            )
            if best is None or key > best_key:
                best, best_key = job, key
        return best

    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Take the next runnable job, waiting up to ``timeout`` seconds."""
        deadline = None if timeout is None else self._clock() + timeout
        with self._wakeup:
            while True:
                job = self._claimable()
                if job is not None:
                    self._queued.remove(job)
                    job.state = RUNNING
                    self._running[job.job_id] = job
                    self._served_at[job.client] = self._clock()
                    return job
                if deadline is None:
                    self._wakeup.wait()
                    continue
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return None
                self._wakeup.wait(remaining)

    def finish(self, job: Job, state: str, error: str | None = None) -> None:
        """Move a claimed job to a terminal state and free its quota slot."""
        with self._wakeup:
            self._running.pop(job.job_id, None)
            self._enqueued_at.pop(job.job_id, None)
            job.state = state
            job.error = error
            # a slot opened: waiting claimers should re-evaluate quota
            self._wakeup.notify_all()

    def cancel(self, job_id: str) -> Optional[Job]:
        """Remove a *queued* job; running jobs cancel via their token."""
        with self._wakeup:
            for job in self._queued:
                if job.job_id == job_id:
                    self._queued.remove(job)
                    self._enqueued_at.pop(job_id, None)
                    job.state = CANCELLED
                    return job
        return None

    def kick(self) -> None:
        """Wake every waiting claimer (shutdown path)."""
        with self._wakeup:
            self._wakeup.notify_all()

    # -- introspection -------------------------------------------------------
    def depth(self) -> int:
        with self._lock:
            return len(self._queued)

    def snapshot(self) -> dict:
        with self._lock:
            now = self._clock()
            return {
                "depth": len(self._queued),
                "running": len(self._running),
                "quota": self.quota,
                "aging_s": self.aging_s,
                "queued": [
                    {
                        "id": job.job_id,
                        "client": job.client,
                        "priority": job.priority,
                        "effective_priority": round(
                            self._effective_priority(job, now), 4
                        ),
                    }
                    for job in self._queued
                ],
                "running_jobs": sorted(self._running),
            }


class JobJournal:
    """Fsync'd JSONL log of job submissions and state transitions.

    Two line shapes::

        {"op": "submit", "id": ..., "client": ..., "priority": ...,
         "spec": {...}, "options": {...}, "directory": ..., "at": ...}
        {"op": "state", "id": ..., "state": ..., "error": ...,
         "result": {...}, "at": ...}

    An :class:`~repro.supervision.AppendLog`, like every durable log
    here.  :meth:`replay` folds it into the last known state per job —
    the service's restart contract.
    """

    def __init__(self, directory: str | os.PathLike,
                 clock: Callable[[], float] = time.time):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.log = AppendLog(self.path)
        self._clock = clock
        self.torn_lines = 0

    @property
    def path(self) -> str:
        return os.path.join(self.directory, JOBS_NAME)

    def _append(self, entry: dict) -> None:
        entry.setdefault("at", self._clock())
        self.log.append(entry)

    # -- writes --------------------------------------------------------------
    def submit(self, job: Job) -> None:
        self._append(
            {
                "op": "submit",
                "id": job.job_id,
                "client": job.client,
                "campaign": job.campaign,
                "priority": job.priority,
                "spec": job.spec_data,
                "options": job.options,
                "directory": job.directory,
                "total_trials": job.total_trials,
                "at": job.submitted_at or self._clock(),
            }
        )

    def state(self, job: Job) -> None:
        self._append(
            {
                "op": "state",
                "id": job.job_id,
                "state": job.state,
                "error": job.error,
                "result": job.result,
            }
        )

    # -- reads ---------------------------------------------------------------
    def replay(self) -> list[Job]:
        """Every journalled job with its last known state, in order.

        Jobs whose last state is ``queued`` or ``running`` were cut off
        (or never started) — the service re-enqueues them on restart and
        the campaign layer resumes exactly the unfinished delta.
        """
        entries, _, self.torn_lines = self.log.read()
        jobs: dict[str, Job] = {}
        for entry in entries:
            job_id = str(entry.get("id", ""))
            if entry.get("op") == "submit" and job_id:
                jobs[job_id] = Job(
                    job_id=job_id,
                    client=str(entry.get("client", "")),
                    campaign=str(entry.get("campaign", "")),
                    spec_data=entry.get("spec") or {},
                    directory=str(entry.get("directory", "")),
                    priority=int(entry.get("priority", 0)),
                    options=entry.get("options") or {},
                    total_trials=int(entry.get("total_trials", 0)),
                    submitted_at=float(entry.get("at", 0.0)),
                )
            elif entry.get("op") == "state" and job_id in jobs:
                job = jobs[job_id]
                job.state = str(entry.get("state", job.state))
                job.error = entry.get("error")
                if entry.get("result"):
                    job.result = entry["result"]
                if job.state == RUNNING:
                    job.started_at = float(entry.get("at", 0.0))
                elif job.finished:
                    job.finished_at = float(entry.get("at", 0.0))
        return list(jobs.values())

    def __repr__(self) -> str:
        return "JobJournal(%r)" % self.path
