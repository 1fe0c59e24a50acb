"""The circuit-breaker state machine, deterministic via injected clocks."""

import pytest

from repro.exceptions import CircuitOpenError
from repro.supervision import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerRegistry,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_breaker(threshold=3, cooldown=30.0):
    clock = FakeClock()
    breaker = CircuitBreaker(
        "netkit", failure_threshold=threshold, cooldown_s=cooldown, clock=clock
    )
    return breaker, clock


def test_validation():
    with pytest.raises(ValueError):
        CircuitBreaker("x", failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker("x", cooldown_s=-1)


def test_trips_only_on_consecutive_failures():
    breaker, _ = make_breaker(threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()  # resets the streak
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED
    assert breaker.allow()
    breaker.record_failure()  # third consecutive
    assert breaker.state == OPEN
    assert not breaker.allow()
    assert breaker.times_opened == 1


def test_guard_raises_while_open():
    breaker, _ = make_breaker(threshold=1)
    breaker.record_failure()
    with pytest.raises(CircuitOpenError) as err:
        breaker.guard()
    assert err.value.name == "netkit"


def test_half_open_admits_exactly_one_probe():
    breaker, clock = make_breaker(threshold=1, cooldown=30.0)
    breaker.record_failure()
    assert not breaker.allow()
    clock.advance(31.0)
    assert breaker.state == HALF_OPEN
    assert breaker.allow()       # the probe
    assert not breaker.allow()   # everyone else keeps deferring
    assert not breaker.allow()


def test_probe_success_closes_the_breaker():
    breaker, clock = make_breaker(threshold=1)
    breaker.record_failure()
    clock.advance(31.0)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.allow() and breaker.allow()  # flow restored for all
    assert breaker.consecutive_failures == 0


def test_probe_failure_reopens_for_another_cooldown():
    breaker, clock = make_breaker(threshold=1, cooldown=30.0)
    breaker.record_failure()
    clock.advance(31.0)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == OPEN
    assert breaker.times_opened == 2
    assert not breaker.allow()
    clock.advance(31.0)
    assert breaker.allow()  # a fresh probe after the second cooldown


def test_snapshot_reports_effective_state():
    breaker, clock = make_breaker(threshold=1, cooldown=10.0)
    breaker.record_failure()
    assert breaker.snapshot()["state"] == OPEN
    clock.advance(11.0)
    snap = breaker.snapshot()
    assert snap["state"] == HALF_OPEN
    assert snap["times_opened"] == 1
    assert snap["failure_threshold"] == 1


def test_registry_creates_lazily_and_tracks_open_breakers():
    clock = FakeClock()
    registry = BreakerRegistry(failure_threshold=1, cooldown_s=30.0, clock=clock)
    assert len(registry) == 0
    assert registry.get("netkit") is registry.get("netkit")
    registry.get("cbgp").record_failure()
    assert registry.names() == ["cbgp", "netkit"]
    assert registry.open_breakers() == ["cbgp"]
    snapshot = registry.snapshot()
    assert snapshot["cbgp"]["state"] == OPEN
    assert snapshot["netkit"]["state"] == CLOSED
