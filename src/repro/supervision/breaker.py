"""Circuit breakers: stop hammering a subsystem that keeps failing.

The classic three-state machine, deterministic and clock-injectable:

* **closed** — calls flow; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures the
  breaker trips: :meth:`allow` answers False (callers defer work, or
  raise :class:`~repro.exceptions.CircuitOpenError` via :meth:`guard`)
  until ``cooldown_s`` has passed.
* **half-open** — after the cooldown one probe call is admitted; its
  success closes the breaker, its failure re-opens it for another
  cooldown.

Campaign runners key breakers per platform (and deployment layers per
host) through a :class:`BreakerRegistry`; every transition lands in
telemetry as ``supervision.breaker_*`` metrics and structured events,
and the registry snapshot feeds the ``repro campaign status`` health
section.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.exceptions import CircuitOpenError
from repro.observability import INFO, WARNING, log_event, metric_inc

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """One named breaker; thread-safe, deterministic, injectable clock."""

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.times_opened = 0

    # -- state ---------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.cooldown_s
        ):
            return HALF_OPEN
        return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    # -- the protocol --------------------------------------------------------
    def allow(self) -> bool:
        """May a call proceed right now?

        In half-open state exactly one caller is admitted as the probe;
        everyone else keeps deferring until the probe reports back.
        """
        with self._lock:
            state = self._effective_state()
            if state == CLOSED:
                return True
            if state == HALF_OPEN:
                if self._probe_in_flight:
                    return False
                self._probe_in_flight = True
                log_event(
                    INFO,
                    "supervision.breaker",
                    "breaker %s half-open: admitting one probe" % self.name,
                    breaker=self.name,
                )
                return True
            return False

    def guard(self) -> None:
        """:meth:`allow` or raise :class:`CircuitOpenError`."""
        if not self.allow():
            raise CircuitOpenError(self.name, self.consecutive_failures)

    def record_success(self) -> None:
        with self._lock:
            was = self._state
            self._state = CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False
        if was != CLOSED:
            metric_inc("supervision.breaker_closed")
            log_event(
                INFO,
                "supervision.breaker",
                "breaker %s closed: probe succeeded" % self.name,
                breaker=self.name,
            )

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            state = self._effective_state()
            reopen = state == HALF_OPEN
            tripping = (
                state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            )
            if reopen or tripping:
                self._state = OPEN
                self._opened_at = self._clock()
                self._probe_in_flight = False
                self.times_opened += 1
                failures = self._consecutive_failures
            else:
                return
        metric_inc("supervision.breaker_open")
        log_event(
            WARNING,
            "supervision.breaker",
            "breaker %s opened after %d consecutive failure%s (cooldown %.3gs)"
            % (self.name, failures, "" if failures == 1 else "s", self.cooldown_s),
            breaker=self.name,
            failures=failures,
            cooldown_s=self.cooldown_s,
        )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "state": self._effective_state(),
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown_s": self.cooldown_s,
                "times_opened": self.times_opened,
            }

    def __repr__(self) -> str:
        return "CircuitBreaker(%r, state=%s, failures=%d/%d)" % (
            self.name,
            self.state,
            self.consecutive_failures,
            self.failure_threshold,
        )


class BreakerRegistry:
    """Lazily-created breakers keyed by name (platform, host, ...)."""

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def get(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    name,
                    failure_threshold=self.failure_threshold,
                    cooldown_s=self.cooldown_s,
                    clock=self._clock,
                )
            return breaker

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._breakers)

    def open_breakers(self) -> list[str]:
        return [
            name for name in self.names() if self.get(name).state == OPEN
        ]

    def snapshot(self) -> dict[str, dict]:
        return {name: self.get(name).snapshot() for name in self.names()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._breakers)
