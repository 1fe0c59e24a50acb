"""The sharded, resumable, supervised campaign runner.

Executes a :class:`~repro.campaign.spec.CampaignSpec` trial by trial
through the existing build/deploy/emulation stack:

* every trial builds through a :class:`~repro.engine.BuildEngine`
  sharing **one** :class:`~repro.engine.ArtifactCache`, so trials that
  differ only in scenario (fault schedule, round budget) reuse each
  other's compiled/rendered artifacts;
* trials fan out over the engine's executors (``jobs``/``executor`` —
  serial, thread, process); process pools share the cache through its
  on-disk store;
* each trial is quarantined (``strict=False`` semantics at the campaign
  level): an exception becomes a ``failed`` record in the index — with
  the error, not a traceback — and the rest of the matrix keeps
  running.  Transient errors retry first under a
  :class:`~repro.resilience.RetryPolicy`;
* finished trials append to the store's JSONL index immediately, so an
  interrupted campaign resumes with only the delta; ``shard=(i, n)``
  restricts one invocation to a deterministic slice of the matrix for
  multi-host fan-out.

On top of that sits the supervision layer (PR 8):

* **write-ahead journal** — every trial's start intent is fsync'd to
  ``journal.jsonl`` before it is submitted, and its finish after its
  record lands in the index.  A SIGKILL mid-trial leaves an open
  intent; the next run recovers it as an explicit ``interrupted``
  record and re-executes the trial from its content hash.  Nothing is
  lost, nothing is silently duplicated.
* **deadlines** — ``trial_deadline_s`` (spec key, runner argument, or
  per-trial override) bounds each trial's wall clock.  An overrunning
  trial is abandoned at the supervision boundary and recorded as
  ``timed_out`` — a real outcome, not a hang.  ``phase_deadlines``
  bounds individual phases (build/deploy/measure/traffic)
  cooperatively.
* **watchdog** — with ``stall_after_s`` set, a trial that stops
  emitting heartbeats (checkpoints) for that long is reaped the same
  way.
* **circuit breakers** — per-platform breakers open after K
  consecutive trial failures; further trials on that platform are
  *deferred* (left pending, not recorded) until the breaker's cooldown
  admits a probe.
* **degradation ladder** — when the executor infrastructure itself
  dies (a process-pool worker SIGKILLed, a broken pool), the runner
  steps ``process → thread → serial`` and re-runs the unrecorded
  remainder of the batch; results are bit-identical to a healthy run
  because records only append on completion.  Repeated artifact-cache
  corruption likewise degrades to cache-bypass builds.

Each trial runs under its own :class:`~repro.observability.Telemetry`
(trace written into its run directory) while the campaign's telemetry
carries the campaign-level span, per-trial events, and the
``campaign.*`` / ``supervision.*`` metrics.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.campaign.spec import CampaignSpec, TrialSpec
from repro.campaign.store import (
    STATUS_FAILED,
    STATUS_INTERRUPTED,
    STATUS_OK,
    STATUS_TIMED_OUT,
    ResultStore,
    TrialRecord,
)
from repro.exceptions import (
    CampaignError,
    CancelledError,
    DeadlineExceededError,
    StallError,
    TerminationRequested,
)
from repro.observability import (
    INFO,
    WARNING,
    Telemetry,
    current_telemetry,
    log_event,
    metric_inc,
    metric_observe,
)
from repro.resilience import NO_RETRY, RetryPolicy, retry_call
from repro.supervision import (
    EXECUTOR_LADDER,
    BreakerRegistry,
    Budget,
    DegradationLadder,
    TrialJournal,
    supervised_call,
)

#: Artifact-cache corruptions tolerated before builds bypass the cache.
CACHE_CORRUPT_THRESHOLD = 2


@dataclass
class CampaignResult:
    """What one runner invocation did against the campaign matrix."""

    campaign: str
    directory: str
    records: list[TrialRecord] = field(default_factory=list)  # executed this run
    skipped: list[str] = field(default_factory=list)          # resumed trial ids
    shard: Optional[tuple] = None
    duration_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: trial ids recovered from the journal as ``interrupted`` records
    recovered: list[str] = field(default_factory=list)
    #: trial ids deferred because their platform's breaker was open
    deferred: list[str] = field(default_factory=list)
    #: final executor kind when the run degraded mid-flight, else None
    degraded_to: Optional[str] = None

    @property
    def executed(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> list[TrialRecord]:
        return [record for record in self.records if not record.ok]

    @property
    def timed_out(self) -> list[TrialRecord]:
        return [
            record for record in self.records
            if record.status == STATUS_TIMED_OUT
        ]

    @property
    def ok(self) -> bool:
        """True when every *executed* trial succeeded."""
        return not self.failed

    def summary(self) -> str:
        text = "campaign %s: %d executed (%d failed), %d resumed" % (
            self.campaign,
            self.executed,
            len(self.failed),
            len(self.skipped),
        )
        if self.shard:
            text += ", shard %d/%d" % self.shard
        if self.recovered:
            text += ", %d recovered" % len(self.recovered)
        if self.deferred:
            text += ", %d deferred" % len(self.deferred)
        if self.degraded_to:
            text += ", degraded to %s" % self.degraded_to
        text += ", cache %d hit / %d miss, %.2fs" % (
            self.cache_hits,
            self.cache_misses,
            self.duration_seconds,
        )
        return text


class CampaignRunner:
    """Drives one campaign against one result store."""

    def __init__(
        self,
        spec: CampaignSpec,
        directory: str | os.PathLike | None = None,
        store: ResultStore | None = None,
        jobs: int = 1,
        executor: str | None = None,
        shard: tuple[int, int] | None = None,
        retry_policy: RetryPolicy | None = None,
        retry_failed: bool = False,
        limit: int | None = None,
        cache=None,
        cache_dir: str | os.PathLike | None = None,
        boot_jobs: int = 1,
        profile: bool = False,
        trial_deadline_s: float | None = None,
        phase_deadlines: dict | None = None,
        stall_after_s: float | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 60.0,
        cancel=None,
    ):
        from repro.engine import ArtifactCache

        self.spec = spec
        if store is not None:
            self.store = store
        else:
            directory = directory or spec.directory
            if directory is None:
                raise CampaignError(
                    "campaign %r names no directory: pass directory=... or put "
                    "'directory' in the spec" % spec.name
                )
            if not os.path.isabs(str(directory)):
                directory = spec.resolve_path(str(directory))
            self.store = ResultStore(directory)
        self.jobs = max(1, jobs)
        self.executor_kind = executor
        self.shard = shard
        self.retry_policy = retry_policy or NO_RETRY
        self.retry_failed = retry_failed
        self.limit = limit
        #: Fan-out width for each trial's lab boot (config parsing and
        #: per-VM bring-up); independent of ``jobs``, the trial fan-out.
        self.boot_jobs = max(1, boot_jobs)
        #: Capture a per-trial profile (hot functions + collapsed
        #: stacks) into each trial's run directory.
        self.profile = profile
        self.cache_dir = str(cache_dir) if cache_dir else self.store.cache_dir()
        self.cache = cache if cache is not None else ArtifactCache(self.cache_dir)
        # Supervision: explicit arguments win over spec-level settings.
        self.trial_deadline_s = (
            trial_deadline_s if trial_deadline_s is not None
            else spec.trial_deadline_s
        )
        self.phase_deadlines = dict(
            phase_deadlines if phase_deadlines is not None
            else spec.phase_deadlines
        )
        self.stall_after_s = (
            stall_after_s if stall_after_s is not None else spec.stall_after_s
        )
        #: cooperative cancellation (the service's DELETE /campaigns):
        #: checked between chunks, so in-flight trials finish and land
        #: durably before the run unwinds with CancelledError
        self.cancel = cancel
        try:
            # persist the expanded matrix so status/report (and the
            # service) can recover the spec from the results directory
            self.store.write_spec(spec)
        except OSError:
            pass  # a read-only store still runs; status needs the spec JSON
        self.journal = TrialJournal(self.store.directory)
        self.breakers = BreakerRegistry(
            failure_threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
        )
        #: builds stop trusting the artifact cache once corruption repeats
        self.cache_bypass = False
        self._cache_corrupt_seen = 0

    # -- planning ------------------------------------------------------------
    def pending_trials(self) -> tuple[list[TrialSpec], list[TrialSpec]]:
        """(to run, to skip) after sharding and resume filtering."""
        trials = (
            self.spec.shard(*self.shard) if self.shard else list(self.spec.trials)
        )
        done = self.store.completed_hashes(include_failed=not self.retry_failed)
        to_run = [trial for trial in trials if trial.spec_hash not in done]
        skipped = [trial for trial in trials if trial.spec_hash in done]
        if self.limit is not None:
            to_run = to_run[: max(0, self.limit)]
        return to_run, skipped

    # -- crash recovery ------------------------------------------------------
    def recover(self) -> list[TrialRecord]:
        """Turn the journal's open intents into ``interrupted`` records.

        A start intent without a finish means the previous run was cut
        off (SIGKILL, power loss) mid-trial.  Each such trial gets an
        explicit ``interrupted`` index record — durable evidence of the
        crash — and, because interrupted records never count as
        completed, re-executes from its content hash on this run.  An
        intent whose record already landed (the crash hit the gap
        between index append and journal finish) is simply closed: the
        result is durable and authoritative.
        """
        open_intents = self.journal.recover()
        if not open_intents:
            return []
        recovered: list[TrialRecord] = []
        latest = self.store.latest()
        for entry in open_intents:
            existing = latest.get(entry.spec_hash)
            if existing is not None and existing.status != STATUS_INTERRUPTED:
                self.journal.finish(
                    entry.trial_id, entry.spec_hash, existing.status
                )
                continue
            record = TrialRecord(
                trial_id=entry.trial_id,
                spec_hash=entry.spec_hash,
                status=STATUS_INTERRUPTED,
                error="run was cut off mid-trial (recovered from journal)",
            )
            trial = self.spec.trial_by_hash(entry.spec_hash)
            if trial is not None:
                record.topology = trial.topology
                record.platform = trial.platform
            self.store.append(record)
            self.journal.finish(
                entry.trial_id, entry.spec_hash, STATUS_INTERRUPTED
            )
            recovered.append(record)
            metric_inc("campaign.trials_recovered")
            log_event(
                WARNING,
                "campaign.recovered",
                "trial %s was interrupted mid-flight; it will re-execute"
                % entry.trial_id,
                trial=entry.trial_id,
                spec_hash=entry.spec_hash,
            )
        return recovered

    # -- execution -----------------------------------------------------------
    def run(self, telemetry: Telemetry | None = None) -> CampaignResult:
        telemetry = telemetry or current_telemetry() or Telemetry()
        started = time.perf_counter()
        hits_before, misses_before = self.cache.hits, self.cache.misses
        result = CampaignResult(
            campaign=self.spec.name,
            directory=self.store.directory,
            shard=self.shard,
        )
        with telemetry.activate():
            recovered = self.recover()
            result.recovered = [record.trial_id for record in recovered]
            to_run, skipped = self.pending_trials()
            result.skipped = [trial.trial_id for trial in skipped]
            with telemetry.span(
                "campaign",
                campaign=self.spec.name,
                trials=len(self.spec),
                to_run=len(to_run),
                resumed=len(skipped),
            ):
                metric_inc("campaign.trials_resumed", len(skipped))
                if skipped:
                    log_event(
                        INFO, "campaign",
                        "resuming %s: %d trial(s) already in the index"
                        % (self.spec.name, len(skipped)),
                        campaign=self.spec.name, resumed=len(skipped),
                    )
                try:
                    self._execute(to_run, result)
                except (KeyboardInterrupt, TerminationRequested, CancelledError) as stop:
                    if isinstance(stop, TerminationRequested):
                        reason = "sigterm"
                    elif isinstance(stop, CancelledError):
                        reason = "cancelled"
                    else:
                        reason = "interrupt"
                    # The open intents stay open on purpose: the next
                    # run recovers them as interrupted and re-executes.
                    self.journal.checkpoint(reason)
                    log_event(
                        WARNING,
                        "campaign.checkpoint",
                        "campaign %s stopping on %s: journal checkpointed, "
                        "%d record(s) flushed"
                        % (self.spec.name, reason, len(result.records)),
                        campaign=self.spec.name,
                        reason=reason,
                    )
                    raise
        result.duration_seconds = time.perf_counter() - started
        result.cache_hits = self.cache.hits - hits_before
        result.cache_misses = self.cache.misses - misses_before
        return result

    def _execute(self, to_run: list[TrialSpec], result: CampaignResult) -> None:
        """Chunked execution with breakers and the executor ladder.

        Trials run in chunks of ``2 × jobs`` so breaker decisions (and
        cache-bypass degradation) take effect between chunks even
        though each chunk streams through the executor.  A chunk whose
        executor infrastructure dies steps down the ladder and re-runs
        only its unrecorded remainder — idempotent, because records
        append on completion only.
        """
        from repro.engine.executors import make_executor

        if not to_run:
            return
        resolved = self.executor_kind or (
            "serial" if self.jobs <= 1 else "thread"
        )
        ladder = DegradationLadder(EXECUTOR_LADDER, start=resolved)
        queue = list(to_run)
        chunk_size = max(1, self.jobs) * 2
        while queue:
            if self.cancel is not None:
                self.cancel.raise_if_cancelled("campaign %s" % self.spec.name)
            chunk: list[TrialSpec] = []
            while queue and len(chunk) < chunk_size:
                trial = queue.pop(0)
                breaker = self.breakers.get(trial.platform)
                if breaker.allow():
                    chunk.append(trial)
                else:
                    result.deferred.append(trial.trial_id)
                    metric_inc("campaign.trials_deferred")
                    log_event(
                        WARNING,
                        "campaign.deferred",
                        "trial %s deferred: %s breaker is open"
                        % (trial.trial_id, trial.platform),
                        trial=trial.trial_id,
                        platform=trial.platform,
                    )
            remaining = chunk
            while remaining:
                executor = make_executor(self.jobs, ladder.current)
                completed, infra_error = self._run_chunk(
                    executor, remaining, result
                )
                remaining = [
                    trial for trial in remaining
                    if trial.spec_hash not in completed
                ]
                if infra_error is None:
                    break
                if not remaining:
                    break
                stepped = ladder.step(
                    "%s executor died: %s: %s"
                    % (
                        ladder.current,
                        type(infra_error).__name__,
                        infra_error,
                    )
                )
                if stepped is None:
                    raise CampaignError(
                        "executor infrastructure failed with no fallback "
                        "left (%s): %s"
                        % (ladder.current, infra_error)
                    ) from infra_error
        if ladder.degraded:
            result.degraded_to = ladder.current

    def _run_chunk(
        self, executor, trials: list[TrialSpec], result: CampaignResult
    ) -> tuple[set, Optional[Exception]]:
        """One chunk through one executor; returns (done hashes, infra error).

        The write-ahead contract lives here: journal ``start`` before
        submission, index append (fsync) on completion, journal
        ``finish`` after the append.  An executor-level exception (a
        broken process pool) is *collected*, not raised — the caller
        decides whether to degrade and re-run the remainder.
        """
        from repro.engine.executors import iter_calls

        calls = [
            (trial.trial_id, _execute_trial, self._payload(executor, trial))
            for trial in trials
        ]
        for trial in trials:
            self.journal.start(trial.trial_id, trial.spec_hash)
        completed: set = set()
        infra_error: Optional[Exception] = None
        try:
            for index, record_dict, error in iter_calls(executor, calls):
                trial = trials[index]
                if error is not None:
                    # The trial body never raises (it quarantines), so
                    # an error in the completion slot means the executor
                    # infrastructure itself failed under this trial.
                    infra_error = error
                    metric_inc("campaign.executor_failures")
                    log_event(
                        WARNING,
                        "campaign.executor",
                        "executor failure under trial %s: %s: %s"
                        % (trial.trial_id, type(error).__name__, error),
                        trial=trial.trial_id,
                        error=str(error),
                        error_type=type(error).__name__,
                    )
                    continue
                record = TrialRecord.from_dict(record_dict)
                self.store.append(record)
                self.store.write_trial_result(record)
                self.journal.finish(
                    record.trial_id, record.spec_hash, record.status
                )
                result.records.append(record)
                self._account(record)
                breaker = self.breakers.get(trial.platform)
                if record.ok:
                    breaker.record_success()
                else:
                    breaker.record_failure()
                self._note_cache_health(record)
                completed.add(record.spec_hash)
        finally:
            executor.shutdown()
        return completed, infra_error

    def _note_cache_health(self, record: TrialRecord) -> None:
        """Degrade to cache-bypass builds on repeated cache corruption."""
        corrupt = int(record.engine.get("cache_corrupt") or 0)
        if not corrupt:
            return
        self._cache_corrupt_seen += corrupt
        if (
            not self.cache_bypass
            and self._cache_corrupt_seen >= CACHE_CORRUPT_THRESHOLD
        ):
            self.cache_bypass = True
            metric_inc("supervision.degraded")
            log_event(
                WARNING,
                "supervision.degraded",
                "artifact cache corrupted %d time(s): remaining trials "
                "build with the cache bypassed"
                % self._cache_corrupt_seen,
                corruptions=self._cache_corrupt_seen,
            )

    def _payload(self, executor, trial: TrialSpec) -> dict:
        deadline = trial.override("trial_deadline_s")
        if deadline is None:
            deadline = self.trial_deadline_s
        payload = {
            "trial": trial.canonical(),
            "trial_id": trial.trial_id,
            "spec_hash": trial.spec_hash,
            "source": self._resolve_source(trial),
            "run_dir": self.store.trial_dir(trial),
            "retry_policy": self.retry_policy,
            "boot_jobs": self.boot_jobs,
            "profile": self.profile,
            "trial_deadline_s": deadline,
            "phase_deadlines": dict(self.phase_deadlines),
            "stall_after_s": self.stall_after_s,
            "cache_bypass": self.cache_bypass,
        }
        if executor.supports_closures:
            payload["_cache"] = self.cache  # share the in-memory level too
        else:
            payload["cache_dir"] = self.cache_dir  # processes share via disk
        return payload

    def _resolve_source(self, trial: TrialSpec) -> str:
        """Builtin names pass through; paths resolve beside the spec file."""
        from repro.loader import BUILTIN_TOPOLOGIES

        if trial.topology in BUILTIN_TOPOLOGIES:
            return trial.topology
        return self.spec.resolve_path(trial.topology)

    def _account(self, record: TrialRecord) -> None:
        metric_inc("campaign.trials_executed")
        metric_observe("campaign.trial_seconds", record.duration_seconds)
        if record.ok:
            metric_inc("campaign.trials_ok")
            log_event(
                INFO, "campaign",
                "trial %s: %s" % (record.trial_id, record.outcome()),
                trial=record.trial_id, status=record.status,
            )
        elif record.status == STATUS_TIMED_OUT:
            metric_inc("campaign.trials_timed_out")
            metric_inc("supervision.deadline_exceeded")
            log_event(
                WARNING, "campaign",
                "trial %s timed out: %s" % (record.trial_id, record.error),
                trial=record.trial_id, status=record.status, error=record.error,
            )
        elif record.status == STATUS_INTERRUPTED:
            metric_inc("campaign.trials_interrupted")
            log_event(
                WARNING, "campaign",
                "trial %s interrupted: %s" % (record.trial_id, record.error),
                trial=record.trial_id, status=record.status, error=record.error,
            )
        else:
            metric_inc("campaign.trials_failed")
            log_event(
                WARNING, "campaign",
                "trial %s quarantined: %s" % (record.trial_id, record.error),
                trial=record.trial_id, status=record.status, error=record.error,
            )


def run_campaign(
    spec,
    directory: str | os.PathLike | None = None,
    jobs: int = 1,
    executor: str | None = None,
    shard: tuple[int, int] | None = None,
    retry_policy: RetryPolicy | None = None,
    retry_failed: bool = False,
    limit: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    telemetry: Telemetry | None = None,
    boot_jobs: int = 1,
    trial_deadline_s: float | None = None,
    stall_after_s: float | None = None,
) -> CampaignResult:
    """Expand, shard, resume and execute a campaign in one call.

    ``spec`` is a :class:`CampaignSpec`, a spec dict, or a path to a
    spec JSON file.  Completed trials (present in ``<directory>/index.jsonl``)
    are skipped; only the delta executes.
    """
    if isinstance(spec, (str, os.PathLike)):
        spec = CampaignSpec.load(spec)
    elif isinstance(spec, dict):
        spec = CampaignSpec.from_dict(spec)
    runner = CampaignRunner(
        spec,
        directory=directory,
        jobs=jobs,
        executor=executor,
        shard=shard,
        retry_policy=retry_policy,
        retry_failed=retry_failed,
        limit=limit,
        cache_dir=cache_dir,
        boot_jobs=boot_jobs,
        trial_deadline_s=trial_deadline_s,
        stall_after_s=stall_after_s,
    )
    return runner.run(telemetry=telemetry)


# -- trial execution (runs on the executor, possibly in another process) -----
def _execute_trial(payload: dict) -> dict:
    """Run one trial end to end; always returns a plain record dict.

    Every exception except ``KeyboardInterrupt``/``SystemExit``/
    ``TerminationRequested`` is quarantined into the record — a
    deadline or watchdog stall as ``timed_out``, a cooperative
    cancellation as ``interrupted``, anything else as ``failed``.  One
    bad trial never kills the campaign; one *hung* trial is abandoned
    at the supervision boundary instead of wedging it.
    """
    from repro.engine import ArtifactCache

    trial = payload["trial"]
    trial_id = payload["trial_id"]
    run_dir = payload["run_dir"]
    cache = payload.get("_cache")
    if cache is None and payload.get("cache_dir"):
        cache = ArtifactCache(payload["cache_dir"])
    os.makedirs(run_dir, exist_ok=True)

    telemetry = Telemetry()
    started = time.perf_counter()
    record = {
        "trial_id": trial_id,
        "spec_hash": payload["spec_hash"],
        "status": STATUS_OK,
        "topology": trial["topology"],
        "platform": trial["platform"],
        "run_dir": run_dir,
        "error": None,
        "convergence": {},
        "reachability": {},
        "engine": {},
    }
    profiler = None
    if payload.get("profile"):
        from repro.observability.profiling import Profiler

        # Deterministic profiling is per-thread: with thread-parallel
        # trials the sampler's stacks are best-effort shared, but the
        # cProfile hot-function table stays exact per trial.
        profiler = Profiler()

    def run_body():
        # Opened inside the (possibly supervised) worker thread: the
        # tracer's span stack is thread-local, so the trial span and
        # its phase children must live on the thread doing the work.
        with telemetry.span(
            "trial", trial=trial_id, platform=trial["platform"],
            topology=trial["topology"],
        ) as trial_span:
            if profiler is not None:
                with profiler:
                    _trial_body(payload, trial, cache, telemetry, record)
            else:
                _trial_body(payload, trial, cache, telemetry, record)
        return trial_span

    deadline = payload.get("trial_deadline_s")
    phase_deadlines = payload.get("phase_deadlines") or {}
    stall_after = payload.get("stall_after_s")
    try:
        with telemetry.activate():
            if deadline is not None or phase_deadlines or stall_after is not None:
                budget = Budget(deadline, phase_deadlines)
                trial_span = supervised_call(
                    run_body,
                    operation=trial_id,
                    budget=budget,
                    stall_after=stall_after,
                )
            else:
                trial_span = run_body()
        record["timings"] = {
            child.name: child.duration for child in trial_span.children
        }
    except (KeyboardInterrupt, SystemExit, TerminationRequested):
        raise
    except (DeadlineExceededError, StallError) as error:
        record["status"] = STATUS_TIMED_OUT
        record["error"] = "%s: %s" % (type(error).__name__, error)
    except CancelledError as error:
        record["status"] = STATUS_INTERRUPTED
        record["error"] = "%s: %s" % (type(error).__name__, error)
    except BaseException as error:
        record["status"] = STATUS_FAILED
        record["error"] = "%s: %s" % (type(error).__name__, error)
    record["duration_seconds"] = time.perf_counter() - started
    corrupt = telemetry.metrics.value("engine.cache_corrupt")
    if corrupt:
        record.setdefault("engine", {})["cache_corrupt"] = corrupt
    try:
        telemetry.write_trace(os.path.join(run_dir, "trace.jsonl"))
    except OSError:
        pass  # a missing trace never fails the trial
    if profiler is not None and record["status"] != STATUS_TIMED_OUT:
        # an abandoned worker may still hold the profiler open, so a
        # timed-out trial skips the report rather than racing it
        try:
            record["profile"] = _write_trial_profile(
                profiler, telemetry, run_dir
            )
        except Exception:
            pass  # a missing profile never fails the trial either
    return record


def _write_trial_profile(profiler, telemetry, run_dir: str) -> dict:
    """Persist one trial's profile next to its trace."""
    from repro.observability.profiling import format_span_table

    report = profiler.report()
    collapsed = os.path.join(run_dir, "profile.collapsed")
    report.write_collapsed(collapsed)
    table_path = os.path.join(run_dir, "profile.txt")
    with open(table_path, "w") as handle:
        handle.write(format_span_table(telemetry) + "\n\n")
        handle.write(report.format_table() + "\n")
    return {
        "collapsed": collapsed,
        "table": table_path,
        "samples": report.sample_count,
        "unique_stacks": len(report.stacks),
    }


def _trial_body(payload: dict, trial: dict, cache, telemetry, record: dict) -> None:
    from contextlib import nullcontext

    from repro.emulation import EmulatedLab, reachability_summary
    from repro.engine import BuildEngine, SerialExecutor
    from repro.loader import BUILTIN_TOPOLOGIES, builtin_topology
    from repro.resilience import FaultSchedule, apply_schedule
    from repro.supervision import checkpoint, current_budget

    overrides = trial.get("overrides") or {}
    policy = payload.get("retry_policy") or NO_RETRY
    source = payload["source"]
    if isinstance(source, str) and source in BUILTIN_TOPOLOGIES:
        source = builtin_topology(source)

    budget = current_budget()

    def phase_scope(name):
        return budget.phase(name) if budget is not None else nullcontext()

    with phase_scope("build"):
        checkpoint("trial.build")
        _maybe_inject(overrides, "build")
        _maybe_hang(overrides, "build")
        engine = BuildEngine(
            platform=trial["platform"],
            rules=tuple(trial["rules"]),
            executor=SerialExecutor(),
            cache=cache,
            use_cache=not payload.get("cache_bypass", False),
        )
        report = retry_call(
            lambda: engine.build(
                source,
                output_dir=os.path.join(payload["run_dir"], "rendered"),
                telemetry=telemetry,
            ),
            policy=policy,
            operation="campaign.build",
        )
        record["engine"] = {
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "rendered_devices": len(report.rendered_devices),
            "cached_devices": len(report.cached_devices),
            "tasks_run": report.tasks_run,
        }
        if payload.get("cache_bypass"):
            record["engine"]["cache_bypassed"] = True

    if not overrides.get("deploy", True):
        return
    with phase_scope("deploy"):
        checkpoint("trial.deploy")
        _maybe_inject(overrides, "deploy")
        _maybe_hang(overrides, "deploy")
        max_rounds = int(overrides.get("max_rounds", 64))
        boot_jobs = int(overrides.get("boot_jobs", payload.get("boot_jobs", 1)))
        with telemetry.span("deploy", trial=payload["trial_id"]):
            lab = retry_call(
                lambda: EmulatedLab.boot(
                    engine.lab_dir,
                    max_rounds=max_rounds,
                    strict=False,
                    jobs=boot_jobs,
                ),
                policy=policy,
                operation="campaign.deploy",
            )
    if trial.get("delta"):
        # Rolling-change trial: the lab booted the *base* design; the
        # delta is diffed from the rendered trees and applied live (one
        # incremental reconvergence, no reboot).  verify_live (default
        # on) boots the edited design fresh and insists the live lab is
        # bit-identical — a failed check fails the trial.
        from repro.exceptions import LiveUpdateError
        from repro.liveupdate import (
            apply_edits,
            apply_plan,
            diff_rendered,
            parse_edits,
            verify_equivalence,
        )
        from repro.workflow import load_topology, run_experiment

        with phase_scope("liveupdate"):
            checkpoint("trial.liveupdate")
            edits = parse_edits(trial["delta"])
            edited = apply_edits(load_topology(source), edits)
            target = run_experiment(
                edited,
                platform=trial["platform"],
                rules=tuple(trial["rules"]),
                output_dir=os.path.join(payload["run_dir"], "rendered_target"),
                deploy=False,
                telemetry=telemetry,
            )
            plan = diff_rendered(
                engine.lab_dir, target.render_result.lab_dir,
            )
            apply_report = apply_plan(
                lab, plan,
                journal_dir=os.path.join(payload["run_dir"], "liveupdate"),
            )
            record["liveupdate"] = {
                "edits": [edit.describe() for edit in edits],
                "plan": plan.summary(),
                "operations": len(plan),
                "by_kind": plan.count_by_kind(),
                "apply": apply_report.to_dict(),
            }
            if overrides.get("verify_live", True):
                fresh = EmulatedLab.boot(
                    target.render_result.lab_dir,
                    max_rounds=max_rounds,
                    strict=False,
                    jobs=boot_jobs,
                )
                equivalence = verify_equivalence(lab, fresh)
                record["liveupdate"]["equivalent"] = equivalence.ok
                if not equivalence.ok:
                    raise LiveUpdateError(
                        "live-applied delta diverged from fresh boot: %s"
                        % equivalence.summary()
                    )

    if trial.get("schedule"):
        schedule = FaultSchedule.parse(trial["schedule"])
        with telemetry.span("chaos", events=len(schedule)):
            apply_schedule(lab, schedule)

    with phase_scope("measure"):
        checkpoint("trial.measure")
        _maybe_inject(overrides, "measure")
        _maybe_hang(overrides, "measure")
        with telemetry.span("measure", trial=payload["trial_id"]):
            record["convergence"] = lab.convergence_report.to_dict()
            if overrides.get("reachability", True):
                record["reachability"] = reachability_summary(lab)

    if trial.get("traffic"):
        from repro.traffic import (
            TrafficProfile,
            link_overrides_from_anm,
            run_traffic,
        )

        profile = TrafficProfile.from_json(trial["traffic"])
        with phase_scope("traffic"):
            checkpoint("trial.traffic")
            with telemetry.span("traffic", trial=payload["trial_id"]):
                traffic_report = run_traffic(
                    lab,
                    profile,
                    seed=int(overrides.get("traffic_seed", 0)),
                    link_overrides=link_overrides_from_anm(engine.anm),
                )
            record["traffic"] = traffic_report.summary()


def _maybe_inject(overrides: dict, stage: str) -> None:
    """The chaos hook: a spec can force a trial to fail at a stage."""
    if overrides.get("inject_fault") == stage:
        raise CampaignError(
            "fault injected at %s stage (spec override 'inject_fault')" % stage
        )


def _maybe_hang(overrides: dict, stage: str) -> None:
    """The other chaos hook: sleep without heartbeats, as a wedged
    subprocess would — exactly what deadlines and watchdogs must catch."""
    if overrides.get("inject_hang") == stage:
        time.sleep(float(overrides.get("hang_seconds", 30.0)))
