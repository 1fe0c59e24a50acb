"""Heartbeats and the supervised-call boundary."""

import time

import pytest

from repro.exceptions import CancelledError, DeadlineExceededError, StallError
from repro.supervision import (
    Budget,
    CancelToken,
    Heartbeat,
    checkpoint,
    run_with_deadline,
    supervised_call,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- Heartbeat ----------------------------------------------------------------
def test_heartbeat_age_tracks_the_injected_clock():
    clock = FakeClock()
    heartbeat = Heartbeat("w", clock=clock)
    clock.advance(3.0)
    assert heartbeat.age() == pytest.approx(3.0)
    heartbeat.beat()
    assert heartbeat.age() == 0.0
    assert heartbeat.beats == 1


# -- supervised_call ----------------------------------------------------------
def test_unbounded_call_runs_inline_with_ambient_scope():
    token = CancelToken()

    def body():
        checkpoint("inline")
        return 42

    assert supervised_call(body, operation="op", token=token) == 42


def test_supervised_call_propagates_the_body_exception():
    def body():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        supervised_call(body, operation="op", budget=Budget(5.0))


def test_deadline_abandons_an_uncooperative_worker():
    started = time.perf_counter()
    with pytest.raises(DeadlineExceededError) as err:
        supervised_call(
            lambda: time.sleep(30.0),  # no heartbeats, no checkpoints
            operation="hung-trial",
            budget=Budget(0.2),
            poll=0.02,
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0  # abandoned promptly, not after 30s
    assert err.value.operation == "hung-trial"


def test_stall_window_reaps_a_silent_worker():
    with pytest.raises(StallError) as err:
        supervised_call(
            lambda: time.sleep(30.0),
            operation="wedged",
            stall_after=0.2,
            poll=0.02,
        )
    assert err.value.operation == "wedged"
    assert err.value.stall_after == 0.2


def test_cooperative_worker_finishes_within_its_deadline():
    def body():
        for _ in range(3):
            checkpoint("step")
        return "done"

    assert supervised_call(body, operation="op", budget=Budget(10.0)) == "done"


def test_external_cancellation_surfaces_as_cancelled_error():
    token = CancelToken()
    token.cancel("operator said stop")
    with pytest.raises(CancelledError) as err:
        supervised_call(
            lambda: time.sleep(30.0),
            operation="op",
            budget=Budget(60.0),
            token=token,
            poll=0.02,
        )
    assert err.value.reason == "operator said stop"


def test_cooperative_worker_unwinds_on_cancellation():
    """A body that checkpoints sees the cancel and exits cleanly."""
    token = CancelToken()
    progress = []

    def body():
        progress.append("started")
        while True:
            checkpoint("loop")
            time.sleep(0.01)

    token.cancel("reaped")
    with pytest.raises(CancelledError):
        supervised_call(body, operation="op", stall_after=30.0, token=token, poll=0.02)
    assert progress == ["started"]


def test_run_with_deadline_returns_the_result():
    assert run_with_deadline(lambda: 7, 5.0, operation="quick") == 7


def test_run_with_deadline_times_out():
    with pytest.raises(DeadlineExceededError):
        run_with_deadline(
            lambda: time.sleep(30.0), 0.2, operation="slow", poll=0.02
        )

