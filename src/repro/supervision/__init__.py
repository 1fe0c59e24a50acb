"""repro.supervision — keep long-running execution honest.

Deadlines and cooperative cancellation (:mod:`budget`), ambient
checkpoints (:mod:`context`), deadline- and stall-bounded calls
(:mod:`watchdog`), the crash-safe write-ahead trial journal and
:class:`AppendLog`, the one durable log format (:mod:`journal`), and
circuit breakers (:mod:`breaker`).
"""

from repro.supervision.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerRegistry,
    CircuitBreaker,
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
from repro.supervision.journal import (
    JOURNAL_NAME,
    OP_CHECKPOINT,
    OP_FINISH,
    OP_RECOVER,
    OP_START,
    AppendLog,
    JournalEntry,
    TrialJournal,
    durable_append,
    durable_replace,
)
from repro.supervision.watchdog import run_with_deadline, supervised_call

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
    "supervised_call",
    "run_with_deadline",
    "AppendLog",
    "TrialJournal",
    "JournalEntry",
    "JOURNAL_NAME",
    "durable_append",
    "durable_replace",
    "OP_START",
    "OP_FINISH",
    "OP_CHECKPOINT",
    "OP_RECOVER",
    "CircuitBreaker",
    "BreakerRegistry",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
]
