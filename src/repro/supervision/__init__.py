"""repro.supervision — keep long-running execution honest.

Deadlines and cooperative cancellation (:mod:`budget`), ambient
checkpoints (:mod:`context`), heartbeat watchdogs and bounded calls
(:mod:`watchdog`), the crash-safe write-ahead trial journal
(:mod:`journal`), circuit breakers (:mod:`breaker`) and the graceful
degradation ladder (:mod:`degrade`).
"""

from repro.supervision.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerRegistry,
    CircuitBreaker,
    breaker_call,
)
from repro.supervision.budget import Budget, CancelToken
from repro.supervision.context import (
    Heartbeat,
    beat,
    checkpoint,
    current_budget,
    current_scope,
    current_token,
    supervised,
)
from repro.supervision.degrade import EXECUTOR_LADDER, DegradationLadder
from repro.supervision.journal import (
    JOURNAL_NAME,
    OP_CHECKPOINT,
    OP_FINISH,
    OP_START,
    JournalEntry,
    TrialJournal,
    durable_append,
)
from repro.supervision.watchdog import (
    DEFAULT_STALL_MULTIPLIER,
    WatchdogMonitor,
    run_with_deadline,
    supervised_call,
)

__all__ = [
    "Budget",
    "CancelToken",
    "Heartbeat",
    "beat",
    "checkpoint",
    "current_budget",
    "current_scope",
    "current_token",
    "supervised",
    "WatchdogMonitor",
    "supervised_call",
    "run_with_deadline",
    "DEFAULT_STALL_MULTIPLIER",
    "TrialJournal",
    "JournalEntry",
    "JOURNAL_NAME",
    "durable_append",
    "OP_START",
    "OP_FINISH",
    "OP_CHECKPOINT",
    "CircuitBreaker",
    "BreakerRegistry",
    "breaker_call",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "DegradationLadder",
    "EXECUTOR_LADDER",
]
