"""Pluggable task executors: serial, thread pool, process pool.

Callers hand an executor batches of ``(task_id, fn, arg)`` calls and
get results back in submission order (:meth:`run`) or as streamed
completions (:meth:`run_iter`).  The campaign runner steps down this
ladder when a pool dies; the lab boot fans config parsing and VM
bring-up over it.  The serial executor is the reference implementation
(and the default); the thread executor shares the caller's memory; the
process executor only accepts picklable module-level functions
(``supports_closures`` is False).

Every executor records per-task queue wait and run time into the
ambient telemetry (``engine.queue_seconds`` / ``engine.task_seconds``
histograms), so ``--metrics`` shows where the wall-clock went.
"""

from __future__ import annotations

import os
import time
from concurrent import futures as _futures
from typing import Any, Callable, Optional, Sequence

from repro.exceptions import EngineError
from repro.observability import gauge_set, metric_inc, metric_observe
from repro.supervision.context import beat as _beat

#: One schedulable unit: (task id, callable, single argument).
TaskCall = tuple[str, Callable[[Any], Any], Any]


def default_jobs() -> int:
    return os.cpu_count() or 1


class SerialExecutor:
    """Run every call inline, in order — the deterministic baseline."""

    kind = "serial"
    supports_closures = True

    def __init__(self):
        self.jobs = 1

    def run(self, calls: Sequence[TaskCall]) -> list[Any]:
        results = []
        for _, fn, arg in calls:
            metric_observe("engine.queue_seconds", 0.0)
            started = time.perf_counter()
            results.append(fn(arg))
            metric_observe("engine.task_seconds", time.perf_counter() - started)
        return results

    def run_iter(self, calls: Sequence[TaskCall]):
        """Stream completions in submission order, capturing errors."""
        for index, (_, fn, arg) in enumerate(calls):
            metric_observe("engine.queue_seconds", 0.0)
            started = time.perf_counter()
            try:
                result = fn(arg)
            except Exception as error:
                metric_observe("engine.task_seconds", time.perf_counter() - started)
                _beat()
                yield index, None, error
                continue
            metric_observe("engine.task_seconds", time.perf_counter() - started)
            _beat()
            yield index, result, None

    def shutdown(self) -> None:
        pass

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ThreadExecutor:
    """A shared thread pool; closures are fine, telemetry is ambient."""

    kind = "thread"
    supports_closures = True

    def __init__(self, jobs: int | None = None):
        self.jobs = max(1, jobs or default_jobs())
        self._pool: Optional[_futures.ThreadPoolExecutor] = None

    def _ensure_pool(self) -> _futures.ThreadPoolExecutor:
        if self._pool is None:
            self._pool = _futures.ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-engine"
            )
            gauge_set("engine.executor.jobs", self.jobs)
        return self._pool

    def run(self, calls: Sequence[TaskCall]) -> list[Any]:
        pool = self._ensure_pool()
        pending = [
            pool.submit(_timed_call, fn, arg, time.perf_counter())
            for _, fn, arg in calls
        ]
        return [future.result() for future in pending]

    def run_iter(self, calls: Sequence[TaskCall]):
        """Stream completions in *completion* order, capturing errors."""
        pool = self._ensure_pool()
        pending = {
            pool.submit(_timed_call, fn, arg, time.perf_counter()): index
            for index, (_, fn, arg) in enumerate(calls)
        }
        for future in _futures.as_completed(pending):
            index = pending[future]
            try:
                result = future.result()
            except Exception as error:
                _beat()
                yield index, None, error
                continue
            _beat()
            yield index, result, None

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return "ThreadExecutor(jobs=%d)" % self.jobs


def _timed_call(fn, arg, submitted: float):
    """Worker-side wrapper recording queue wait and run time."""
    metric_observe("engine.queue_seconds", time.perf_counter() - submitted)
    started = time.perf_counter()
    result = fn(arg)
    metric_observe("engine.task_seconds", time.perf_counter() - started)
    return result


class ProcessExecutor:
    """A process pool for pure-CPU fan-out.

    Functions must be picklable (module-level) and arguments
    self-contained.  Task latencies are measured parent-side as
    submit-to-done roundtrips (``engine.task_roundtrip_seconds``)
    because child processes have no shared telemetry.
    """

    kind = "process"
    supports_closures = False

    def __init__(self, jobs: int | None = None):
        self.jobs = max(1, jobs or default_jobs())
        self._pool: Optional[_futures.ProcessPoolExecutor] = None

    def _ensure_pool(self) -> _futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = _futures.ProcessPoolExecutor(max_workers=self.jobs)
            gauge_set("engine.executor.jobs", self.jobs)
        return self._pool

    def run(self, calls: Sequence[TaskCall]) -> list[Any]:
        pool = self._ensure_pool()
        submitted = time.perf_counter()
        pending = [pool.submit(fn, arg) for _, fn, arg in calls]
        results = []
        for future in pending:
            results.append(future.result())
            metric_observe(
                "engine.task_roundtrip_seconds", time.perf_counter() - submitted
            )
        return results

    def run_iter(self, calls: Sequence[TaskCall]):
        """Stream completions in *completion* order, capturing errors.

        A dead worker surfaces here as ``BrokenProcessPool`` on every
        unfinished future — callers classify that as infrastructure
        failure (and typically step down the degradation ladder) rather
        than a task failure.
        """
        pool = self._ensure_pool()
        submitted = time.perf_counter()
        pending = {
            pool.submit(fn, arg): index for index, (_, fn, arg) in enumerate(calls)
        }
        for future in _futures.as_completed(pending):
            index = pending[future]
            try:
                result = future.result()
            except Exception as error:
                _beat()
                yield index, None, error
                continue
            metric_observe(
                "engine.task_roundtrip_seconds", time.perf_counter() - submitted
            )
            _beat()
            yield index, result, None

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return "ProcessExecutor(jobs=%d)" % self.jobs


EXECUTOR_KINDS = ("serial", "thread", "process")


def make_executor(jobs: int = 1, kind: str | None = None):
    """Build an executor: ``jobs<=1`` is serial, otherwise a thread pool
    unless ``kind`` asks for processes explicitly."""
    if kind is None:
        kind = "serial" if jobs <= 1 else "thread"
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(jobs=jobs)
    if kind == "process":
        return ProcessExecutor(jobs=jobs)
    raise EngineError(
        "unknown executor kind %r (choose from %s)" % (kind, ", ".join(EXECUTOR_KINDS))
    )


def run_calls(executor, calls: Sequence[TaskCall]) -> list[Any]:
    """Run a batch on any executor, counting scheduled tasks."""
    if not calls:
        return []
    metric_inc("engine.tasks_scheduled", len(calls))
    return executor.run(calls)


def iter_calls(executor, calls: Sequence[TaskCall]):
    """Stream ``(index, result, error)`` completions from any executor.

    Unlike :func:`run_calls` this never raises for a failing task — each
    error rides out in its completion tuple, in completion order, so
    callers can record finished work incrementally and decide per-error
    whether it was the task or the infrastructure that died.
    """
    if not calls:
        return iter(())
    metric_inc("engine.tasks_scheduled", len(calls))
    return executor.run_iter(calls)
