"""The thread executor behind the boot fan-out: order and telemetry."""

import time

from repro.engine import ThreadExecutor
from repro.engine.executors import run_calls
from repro.observability import Telemetry


def _square(n):
    return n * n


CALLS = [("t%d" % n, _square, n) for n in range(8)]


def test_serial_and_thread_agree():
    thread = ThreadExecutor(jobs=4)
    try:
        assert thread.run(CALLS) == [fn(arg) for _, fn, arg in CALLS]
    finally:
        thread.shutdown()


def test_run_calls_empty_batch():
    assert run_calls(ThreadExecutor(jobs=2), []) == []


def test_executors_record_latency_metrics():
    telemetry = Telemetry()
    thread = ThreadExecutor(jobs=2)
    try:
        with telemetry.activate():
            run_calls(thread, CALLS)
    finally:
        thread.shutdown()
    snapshot = telemetry.metrics.snapshot()
    assert snapshot["counters"]["engine.tasks_scheduled"] == len(CALLS)
    assert snapshot["histograms"]["engine.task_seconds"]["count"] == len(CALLS)
    assert snapshot["histograms"]["engine.queue_seconds"]["count"] == len(CALLS)


def _nap(n):
    time.sleep(0.01)
    return n


def test_thread_executor_records_queue_wait():
    """With one worker the later calls wait behind the earlier ones."""
    telemetry = Telemetry()
    thread = ThreadExecutor(jobs=1)
    try:
        with telemetry.activate():
            run_calls(thread, [("n%d" % n, _nap, n) for n in range(4)])
    finally:
        thread.shutdown()
    snapshot = telemetry.metrics.snapshot()
    assert snapshot["histograms"]["engine.queue_seconds"]["max"] >= 0.02
    assert snapshot["gauges"]["engine.executor.jobs"] == 1
