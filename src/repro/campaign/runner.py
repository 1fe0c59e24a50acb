"""The sharded, resumable, supervised campaign runner.

Executes a :class:`~repro.campaign.spec.CampaignSpec` trial by trial
through the existing build/deploy/emulation stack:

* every trial builds through a :class:`~repro.engine.BuildEngine`
  sharing **one** :class:`~repro.engine.ArtifactCache`, so trials that
  differ only in scenario (fault schedule, round budget) reuse each
  other's compiled/rendered artifacts;
* a trial on the last ``ok`` trial's base (equal input graph, platform,
  rules and cache) re-renders its engine and may boot its parsed intent;
* ``jobs`` alone picks how trials run: inline at ``jobs=1``, over one
  process pool above; pool workers share the cache through its on-disk
  store;
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
* **degradation** — when the process pool itself breaks (a worker
  SIGKILLed), the unrecorded rest of the run goes inline; results are
  bit-identical to a healthy run because records only append on
  completion.  Repeated artifact-cache corruption likewise degrades to
  cache-bypass builds.

Each trial runs under its own :class:`~repro.observability.Telemetry`
(trace written into its run directory) while the campaign's telemetry
carries the campaign-level span, per-trial events, and the
``campaign.*`` / ``supervision.*`` metrics.
"""

from __future__ import annotations

import os
import time
from concurrent import futures
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import networkx as nx

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
    BreakerRegistry,
    Budget,
    TrialJournal,
    beat,
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
    #: ``"serial"`` when the process pool broke and the run went inline
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
        shard: tuple[int, int] | None = None,
        retry_policy: RetryPolicy | None = None,
        retry_failed: bool = False,
        limit: int | None = None,
        cache=None,
        cache_dir: str | os.PathLike | None = None,
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
        self.shard = shard
        self.retry_policy = retry_policy or NO_RETRY
        self.retry_failed = retry_failed
        self.limit = limit
        #: Capture a per-trial profile (hot functions + collapsed
        #: stacks) into each trial's run directory.
        self.profile = profile
        self.cache = cache if cache is not None else ArtifactCache(
            cache_dir or self.store.cache_dir()
        )
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
        #: the base inline trials reuse (a pool worker holds its own)
        self.slot = _BaseSlot()

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
        return result

    def _execute(self, to_run: list[TrialSpec], result: CampaignResult) -> None:
        """Run the trials inline at ``jobs=1``, else over one process pool.

        Trials are admitted in chunks of ``2 × jobs`` so breaker
        decisions (and cache-bypass degradation) take effect between
        chunks.  The write-ahead contract: journal ``start`` before a
        chunk runs, index append (fsync) as each trial completes,
        journal ``finish`` after the append.  If the pool breaks, the
        unrecorded rest of the run goes inline — idempotent, because
        records append on completion only.
        """
        pool = None
        if self.jobs > 1 and to_run:
            pool = futures.ProcessPoolExecutor(self.jobs, initializer=_install_slot)
        queue = list(to_run)
        try:
            while queue:
                if self.cancel is not None:
                    self.cancel.raise_if_cancelled("campaign %s" % self.spec.name)
                chunk = self._admit(queue, result)
                for trial in chunk:
                    self.journal.start(trial.trial_id, trial.spec_hash)
                if pool is not None:
                    chunk = self._run_in_pool(pool, chunk, result)
                    if chunk:
                        pool.shutdown()
                        pool = None
                        self._degrade(result)
                for trial in chunk:
                    record = _execute_trial(self._payload(trial), self.cache, self.slot)
                    self._record(trial, record, result)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    def _admit(
        self, queue: list[TrialSpec], result: CampaignResult
    ) -> list[TrialSpec]:
        """Pop the next chunk off ``queue``, deferring open-breaker platforms."""
        chunk: list[TrialSpec] = []
        while queue and len(chunk) < 2 * self.jobs:
            trial = queue.pop(0)
            if self.breakers.get(trial.platform).allow():
                chunk.append(trial)
                continue
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
        return chunk

    def _run_in_pool(
        self, pool, chunk: list[TrialSpec], result: CampaignResult
    ) -> list[TrialSpec]:
        """One chunk over the pool; returns the trials it left unrecorded.

        The trial body never raises (it quarantines), so an error in a
        completion slot means the pool itself failed under that trial.
        """
        unrecorded = list(chunk)
        try:
            pending = {
                pool.submit(_execute_trial, self._payload(trial)): trial
                for trial in chunk
            }
        except futures.BrokenExecutor as error:  # broke between chunks
            self._note_pool_failure(chunk[0], error)
            return unrecorded
        for future in futures.as_completed(pending):
            trial = pending[future]
            try:
                record = future.result()
            except Exception as error:
                self._note_pool_failure(trial, error)
                continue
            self._record(trial, record, result)
            unrecorded.remove(trial)
        return unrecorded

    def _note_pool_failure(self, trial: TrialSpec, error: Exception) -> None:
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

    def _degrade(self, result: CampaignResult) -> None:
        """The pool broke: say so loudly, then run the rest inline."""
        result.degraded_to = "serial"
        metric_inc("supervision.degraded")
        log_event(
            WARNING,
            "supervision.degraded",
            "degrading process -> serial: the process pool broke",
            from_level="process",
            to_level="serial",
        )

    def _record(
        self, trial: TrialSpec, record_dict: dict, result: CampaignResult
    ) -> None:
        """Land one finished trial: index, then journal finish, then books."""
        record = TrialRecord.from_dict(record_dict)
        self.store.append(record)
        self.store.write_trial_result(record)
        self.journal.finish(record.trial_id, record.spec_hash, record.status)
        result.records.append(record)
        cache = record.engine.get("cache") or {}
        result.cache_hits += cache.get("hits", 0)
        result.cache_misses += cache.get("misses", 0)
        self._account(record)
        breaker = self.breakers.get(trial.platform)
        if record.ok:
            breaker.record_success()
        else:
            breaker.record_failure()
        self._note_cache_health(record)
        beat()

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

    def _payload(self, trial: TrialSpec) -> dict:
        deadline = trial.override("trial_deadline_s")
        if deadline is None:
            deadline = self.trial_deadline_s
        return {
            "trial": trial.canonical(),
            "trial_id": trial.trial_id,
            "spec_hash": trial.spec_hash,
            "source": self._resolve_source(trial),
            "run_dir": self.store.trial_dir(trial),
            "retry_policy": self.retry_policy,
            "profile": self.profile,
            "trial_deadline_s": deadline,
            "phase_deadlines": dict(self.phase_deadlines),
            "stall_after_s": self.stall_after_s,
            "cache_bypass": self.cache_bypass,
            "cache_dir": self.cache.directory,  # pool workers share via disk
        }

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
    shard: tuple[int, int] | None = None,
    retry_policy: RetryPolicy | None = None,
    retry_failed: bool = False,
    limit: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    telemetry: Telemetry | None = None,
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
        shard=shard,
        retry_policy=retry_policy,
        retry_failed=retry_failed,
        limit=limit,
        cache_dir=cache_dir,
        trial_deadline_s=trial_deadline_s,
        stall_after_s=stall_after_s,
    )
    return runner.run(telemetry=telemetry)


# -- trial execution (inline, or in a pool worker process) -------------------
class _Base(NamedTuple):
    """A trial base: engine, input graph copy, and intent parsed from a render."""

    key: tuple  # (platform, rules, cache bypass, cache directory)
    graph: nx.Graph
    engine: object
    intent: object = None
    artifact_keys: Optional[dict] = None  # owner -> key of the render parsed


@dataclass
class _BaseSlot:
    """At most one base: trials expand base-outermost, so one catches every reuse."""

    base: Optional[_Base] = None


_WORKER_SLOT: Optional[_BaseSlot] = None


def _install_slot() -> None:
    """Runs once per pool worker process: the worker's own base slot."""
    global _WORKER_SLOT
    _WORKER_SLOT = _BaseSlot()


def _execute_trial(payload: dict, cache=None, slot: _BaseSlot | None = None) -> dict:
    """Run one trial end to end; always returns a plain record dict.

    ``cache`` is the runner's own cache when the trial runs inline; a
    pool worker opens the same directory (``payload["cache_dir"]``).
    Either way ``engine.cache`` in the record holds the hits and misses
    this trial added to the cache it built against.

    ``slot`` (a pool worker's own by default) gets its base back only from
    an ``ok`` trial: a timed-out trial's abandoned thread may hold the engine.

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
    if cache is None:
        cache = ArtifactCache(payload["cache_dir"])
    slot = slot or _WORKER_SLOT or _BaseSlot()
    held, slot.base = {"base": slot.base}, None  # lent to this trial
    hits_before, misses_before = cache.hits, cache.misses
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

        # Each trial runs alone in its process (inline, or in a pool
        # worker), so the sampler sees only this trial's stacks.
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
                    _trial_body(payload, trial, cache, telemetry, record, held)
            else:
                _trial_body(payload, trial, cache, telemetry, record, held)
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
    if record["status"] == STATUS_OK:
        slot.base = held.get("base")
    record["engine"]["cache"] = {
        "hits": cache.hits - hits_before,
        "misses": cache.misses - misses_before,
    }
    corrupt = telemetry.metrics.value("engine.cache_corrupt")
    if corrupt:
        record["engine"]["cache_corrupt"] = corrupt
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


def _trial_body(payload: dict, trial: dict, cache, telemetry, record, held) -> None:
    from contextlib import nullcontext

    from repro.emulation import EmulatedLab, reachability_summary
    from repro.engine import BuildEngine
    from repro.loader import BUILTIN_TOPOLOGIES, builtin_topology
    from repro.resilience import FaultSchedule, apply_schedule
    from repro.supervision import checkpoint, current_budget
    from repro.workflow import load_topology

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
        graph = load_topology(source)
        bypass = bool(payload.get("cache_bypass", False))
        key = (trial["platform"], tuple(trial["rules"]), bypass, payload["cache_dir"])
        base = held.pop("base", None)
        reused = bool(base) and base.key == key and nx.utils.graphs_equal(graph, base.graph)
        if not reused:
            engine = BuildEngine(trial["platform"], key[1], cache=cache, use_cache=not bypass)
            base = _Base(key, graph.copy(), engine)
        elif not bypass:
            base.engine.cache = cache  # where this trial counts its lookups
        engine = base.engine
        rendered = os.path.join(payload["run_dir"], "rendered")
        report = retry_call(
            lambda: engine.render(rendered, telemetry=telemetry) if reused
            else engine.build(graph, output_dir=rendered, telemetry=telemetry),
            policy=policy,
            operation="campaign.build",
        )
        record["engine"] = {
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "rendered_devices": len(report.rendered_devices),
            "cached_devices": len(report.cached_devices),
            "base_reused": reused,
        }
        if bypass:
            record["engine"]["cache_bypassed"] = True
        keys = {owner: artifact.key for owner, artifact in engine.artifacts.items()}
        held["base"] = base

    if not overrides.get("deploy", True):
        return
    with phase_scope("deploy"):
        checkpoint("trial.deploy")
        _maybe_inject(overrides, "deploy")
        _maybe_hang(overrides, "deploy")
        max_rounds = int(overrides.get("max_rounds", 64))
        with telemetry.span("deploy", trial=payload["trial_id"]):
            def boot():
                if bypass or keys != base.artifact_keys:
                    return EmulatedLab.boot(engine.lab_dir, max_rounds=max_rounds, strict=False)
                lab = EmulatedLab(base.intent, max_rounds=max_rounds, strict=False)
                lab.source = engine.lab_dir  # a tree the kept intent was parsed from
                return lab
            lab = retry_call(boot, policy=policy, operation="campaign.deploy")
            held["base"] = base._replace(intent=lab.intent, artifact_keys=keys)
    if trial.get("delta"):
        # Rolling-change trial: the lab booted the *base* design; the
        # delta is diffed from the rendered trees and applied live (one
        # incremental reconvergence, no reboot).  verify_live (default
        # on) boots the edited design fresh and insists the live lab has
        # the same LabSnapshot — a failed check fails the trial.
        from repro.exceptions import LiveUpdateError
        from repro.liveupdate import (
            apply_edits,
            apply_plan,
            diff_rendered,
            parse_edits,
            verify_equivalence,
        )
        from repro.workflow import run_experiment

        with phase_scope("liveupdate"):
            checkpoint("trial.liveupdate")
            edits = parse_edits(trial["delta"])
            edited = apply_edits(graph, edits)
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
