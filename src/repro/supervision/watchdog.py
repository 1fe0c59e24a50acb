"""The supervised-call boundary: deadlines and stall windows.

:func:`supervised_call` runs a callable under a deadline and/or a
stall window.  The work runs in a daemon worker thread carrying the
ambient supervision scope; the calling thread becomes the per-call
watchdog, polling for completion, deadline expiry and heartbeat
silence.  On expiry the worker's token is cancelled and the worker
**abandoned** — a wedged phase that never reaches a checkpoint cannot
hold the campaign hostage; it dies with the process.  This is the
boundary that turns a hung trial into a ``timed_out`` record.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro.exceptions import CancelledError, DeadlineExceededError, StallError
from repro.observability import WARNING, log_event, metric_inc
from repro.supervision.budget import Budget, CancelToken
from repro.supervision.context import Heartbeat, supervised


class _Outcome:
    __slots__ = ("done", "result", "error")

    def __init__(self):
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


def supervised_call(
    fn: Callable[[], Any],
    operation: str = "operation",
    budget: Budget | None = None,
    stall_after: float | None = None,
    token: CancelToken | None = None,
    heartbeat: Heartbeat | None = None,
    poll: float = 0.05,
) -> Any:
    """Run ``fn()`` under a deadline and/or watchdog; return its result.

    The calling thread waits in ``poll``-sized slices and enforces, in
    order: worker completion, cooperative cancellation (the token was
    cancelled externally), budget expiry (→
    :class:`DeadlineExceededError`), heartbeat silence beyond
    ``stall_after`` (→ :class:`StallError`).  On expiry/stall the
    worker's token is cancelled first, so a *cooperative* worker still
    unwinds cleanly — but the caller does not wait for it.

    With neither a bounded budget nor a stall window the call runs
    inline: no thread, no polling, just the ambient scope installed.
    """
    token = token or CancelToken()
    heartbeat = heartbeat or Heartbeat(operation)
    bounded = (budget is not None and budget.deadline_s is not None) or (
        stall_after is not None
    )
    if not bounded:
        with supervised(budget, token, heartbeat, operation):
            return fn()

    outcome = _Outcome()

    def worker() -> None:
        try:
            with supervised(budget, token, heartbeat, operation):
                outcome.result = fn()
        except BaseException as error:  # delivered to the caller below
            outcome.error = error
        finally:
            outcome.done.set()

    thread = threading.Thread(
        target=worker, name="supervised-%s" % operation, daemon=True
    )
    thread.start()
    while True:
        if outcome.done.wait(poll):
            if outcome.error is not None:
                raise outcome.error
            return outcome.result
        if token.cancelled and not outcome.done.is_set():
            # cancelled from outside: give the worker one grace poll
            # to unwind cooperatively
            if outcome.done.wait(poll):
                continue
            reason = token.reason
            if reason.startswith("deadline"):
                raise DeadlineExceededError(
                    operation, budget.deadline_s if budget else 0.0
                )
            raise CancelledError(operation, reason)
        if budget is not None and budget.expired:
            token.cancel("deadline: %.3gs budget spent" % budget.deadline_s)
            metric_inc("supervision.deadline_exceeded")
            log_event(
                WARNING,
                "supervision.deadline",
                "%s exceeded its %.3gs deadline; worker abandoned"
                % (operation, budget.deadline_s),
                operation=operation,
                deadline=budget.deadline_s,
            )
            raise DeadlineExceededError(
                operation, budget.deadline_s, budget.elapsed()
            )
        if stall_after is not None:
            age = heartbeat.age()
            if age > stall_after:
                token.cancel(
                    "watchdog: no heartbeat for %.3gs (window %.3gs)"
                    % (age, stall_after)
                )
                metric_inc("supervision.stalls")
                log_event(
                    WARNING,
                    "supervision.stall",
                    "%s stalled: silent %.3gs (window %.3gs); worker abandoned"
                    % (operation, age, stall_after),
                    operation=operation,
                    silent_for=age,
                    stall_after=stall_after,
                )
                raise StallError(operation, age, stall_after)


def run_with_deadline(
    fn: Callable[[], Any],
    deadline_s: float,
    operation: str = "operation",
    clock: Callable[[], float] = time.monotonic,
    poll: float = 0.05,
) -> Any:
    """``supervised_call`` shorthand for a bare per-call timeout."""
    return supervised_call(
        fn,
        operation=operation,
        budget=Budget(deadline_s, clock=clock),
        poll=poll,
    )
