"""The thread fan-out behind the lab boot's ``jobs``.

Config parsing and VM bring-up hand a :class:`ThreadExecutor` batches
of ``(task_id, fn, arg)`` calls through :func:`run_calls` and get the
results back in submission order.  (Builds and campaigns fan out over
a process pool of their own.)

Every call records its queue wait and run time into the ambient
telemetry (``engine.queue_seconds`` / ``engine.task_seconds``
histograms), so ``--metrics`` shows where the wall-clock went.
"""

from __future__ import annotations

import time
from concurrent import futures as _futures
from typing import Any, Callable, Optional, Sequence

from repro.observability import gauge_set, metric_inc, metric_observe

#: One schedulable unit: (task id, callable, single argument).
TaskCall = tuple[str, Callable[[Any], Any], Any]


class ThreadExecutor:
    """A shared thread pool; closures are fine, telemetry is ambient."""

    def __init__(self, jobs: int):
        self.jobs = max(1, jobs)
        self._pool: Optional[_futures.ThreadPoolExecutor] = None

    def run(self, calls: Sequence[TaskCall]) -> list[Any]:
        if self._pool is None:
            self._pool = _futures.ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-engine"
            )
            gauge_set("engine.executor.jobs", self.jobs)
        pending = [
            self._pool.submit(_timed_call, fn, arg, time.perf_counter())
            for _, fn, arg in calls
        ]
        return [future.result() for future in pending]

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


def run_calls(executor: ThreadExecutor, calls: Sequence[TaskCall]) -> list[Any]:
    """Run a batch in submission order, counting scheduled tasks."""
    if not calls:
        return []
    metric_inc("engine.tasks_scheduled", len(calls))
    return executor.run(calls)
