"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`,
so callers can catch a single base class at an API boundary.  Each
subsystem has its own subclass, mirroring the module layout described
in ``DESIGN.md``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class OverlayNotFoundError(ReproError, KeyError):
    """An overlay graph with the requested id does not exist in the ANM."""

    def __init__(self, overlay_id: str):
        super().__init__(overlay_id)
        self.overlay_id = overlay_id

    def __str__(self) -> str:
        return "overlay %r not present in the network model" % self.overlay_id


class NodeNotFoundError(ReproError, KeyError):
    """A node id was not found in the overlay being queried."""

    def __init__(self, node_id, overlay_id: str | None = None):
        super().__init__(node_id)
        self.node_id = node_id
        self.overlay_id = overlay_id

    def __str__(self) -> str:
        if self.overlay_id is not None:
            return "node %r not present in overlay %r" % (self.node_id, self.overlay_id)
        return "node %r not present in overlay" % (self.node_id,)


class TopologyValidationError(ReproError):
    """The input topology failed a validation check in the loader."""


class LoaderError(ReproError):
    """An input file could not be parsed into a topology."""


class AddressAllocationError(ReproError):
    """The IP address allocator ran out of space or was misconfigured."""


class DesignError(ReproError):
    """A network design rule could not be applied to the topology."""


class CompilerError(ReproError):
    """The compiler could not condense the overlays into device state."""


class EngineError(ReproError):
    """The build engine could not run a build (e.g. no prior build to update)."""


class CampaignError(ReproError):
    """An experiment campaign could not be specified or orchestrated."""


class RenderError(ReproError):
    """Template rendering of the resource database failed."""


class TransientError(ReproError):
    """An operation failed in a way that is safe to retry.

    Raised (or wrapped) by layers that talk to unreliable substrates —
    emulation hosts, virtual machines, the artifact store — to signal
    that a :class:`repro.resilience.RetryPolicy` may re-attempt the
    call.  Permanent failures keep their subsystem-specific classes and
    are never retried.
    """


class RetryExhaustedError(ReproError):
    """Every attempt allowed by a retry policy failed.

    ``last_error`` carries the final underlying exception and
    ``attempts`` how many tries the budget allowed.
    """

    def __init__(self, operation: str, attempts: int, last_error: BaseException):
        super().__init__(
            "%s failed after %d attempt%s: %s"
            % (operation, attempts, "" if attempts == 1 else "s", last_error)
        )
        self.operation = operation
        self.attempts = attempts
        self.last_error = last_error


class DeploymentError(ReproError):
    """Deployment of rendered configurations to an emulation host failed."""


class EmulationError(ReproError):
    """The emulated network substrate hit an inconsistent state."""


class ConfigParseError(EmulationError):
    """A generated device configuration could not be parsed back."""

    def __init__(self, message: str, filename: str | None = None, line: int | None = None):
        super().__init__(message)
        self.filename = filename
        self.line = line

    def __str__(self) -> str:
        location = ""
        if self.filename is not None:
            location = " (%s" % self.filename
            if self.line is not None:
                location += ":%d" % self.line
            location += ")"
        return super().__str__() + location


class FaultScheduleError(EmulationError):
    """A fault schedule is malformed or references unknown topology."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line

    def __str__(self) -> str:
        if self.line is not None:
            return "%s (line %d)" % (super().__str__(), self.line)
        return super().__str__()


class SupervisionError(ReproError):
    """Base class for supervised-execution failures (budgets, watchdogs)."""


class DeadlineExceededError(SupervisionError):
    """A wall-clock budget ran out before the operation finished.

    ``operation`` names what overran and ``deadline`` the budget in
    seconds.  Campaign trials hitting this finish as ``timed_out``
    records instead of hanging the run.
    """

    def __init__(self, operation: str, deadline: float, elapsed: float | None = None):
        detail = "%.3gs deadline exceeded in %s" % (deadline, operation)
        if elapsed is not None:
            detail += " (ran %.3gs)" % elapsed
        super().__init__(detail)
        self.operation = operation
        self.deadline = deadline
        self.elapsed = elapsed


class CancelledError(SupervisionError):
    """A cooperative cancellation token was honoured mid-operation."""

    def __init__(self, operation: str, reason: str = ""):
        super().__init__(
            "%s cancelled%s" % (operation, (": %s" % reason) if reason else "")
        )
        self.operation = operation
        self.reason = reason


class StallError(SupervisionError):
    """The watchdog saw no heartbeat from a worker within its window."""

    def __init__(self, operation: str, silent_for: float, stall_after: float):
        super().__init__(
            "%s stalled: no heartbeat for %.3gs (watchdog window %.3gs)"
            % (operation, silent_for, stall_after)
        )
        self.operation = operation
        self.silent_for = silent_for
        self.stall_after = stall_after


class CircuitOpenError(SupervisionError):
    """A circuit breaker is open: the subsystem is failing fast."""

    def __init__(self, name: str, failures: int):
        super().__init__(
            "circuit %r is open after %d consecutive failure%s"
            % (name, failures, "" if failures == 1 else "s")
        )
        self.name = name
        self.failures = failures


class TerminationRequested(BaseException):
    """SIGTERM arrived: checkpoint and exit 143.

    Deliberately *not* a :class:`ReproError` (nor even ``Exception``):
    quarantine layers catch broad exception classes to keep a campaign
    alive, but an operator's terminate request must unwind all the way
    out — exactly like ``KeyboardInterrupt``, which this mirrors for
    SIGTERM.
    """

    def __init__(self, signum: int = 15):
        super().__init__("termination requested (signal %d)" % signum)
        self.signum = signum


class MeasurementError(ReproError):
    """A measurement command failed or its output could not be parsed."""


class TrafficError(ReproError):
    """A traffic profile is malformed or a traffic run cannot proceed."""


class LiveUpdateError(ReproError):
    """A DiffPlan is malformed, stale, or cannot be applied live.

    Raised when two lab trees cannot be diffed (platform mismatch),
    when a plan's recorded preconditions no longer match the running
    lab (the lab drifted since the plan was computed), or when a
    live-applied lab fails its equivalence check against a fresh boot.
    """


class TemplateParseError(MeasurementError):
    """A textfsm-lite template definition is malformed."""


class ServiceError(ReproError):
    """The campaign service rejected a request or cannot proceed.

    Carries the HTTP status the API layer should answer with, so the
    same exception type expresses 'bad submission' (400), 'no such
    campaign' (404), and server-side failures (500).
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status
