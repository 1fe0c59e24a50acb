"""The measurement client (§5.7, §6.1).

"The measurement system consists of a small client that sits on the
emulation hosts.  A remote measurement client simplifies the parallel
collection of data: a single measurement client on the emulation server
can connect to multiple virtual machines on the same physical host."

:class:`MeasurementClient` plays that role against the emulated lab:
it fans a command out to a set of VMs (addressed by management/TAP IP,
as in the paper's walkthrough, or by name), captures the text output,
parses it with the bundled textfsm-lite templates, and maps addresses
back to device names via the NIDB allocations.

The module-level :func:`send` mirrors the paper's API::

    results = measurement.send(nidb, cmd, hosts, lab=lab)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.emulation import EmulatedLab
from repro.exceptions import MeasurementError
from repro.measurement.mapping import IpMapper
from repro.measurement.parsers import template_for_command
from repro.nidb import Nidb
from repro.exceptions import DeadlineExceededError
from repro.observability import WARNING, log_event, metric_inc, span
from repro.resilience import NO_RETRY, RetryPolicy, retry_call
from repro.supervision import run_with_deadline


@dataclass
class MeasurementResult:
    """One VM's response to one command."""

    host: str  # as addressed (tap IP or name)
    machine: str  # resolved machine name
    command: str
    output: str
    parsed: list[dict] = field(default_factory=list)
    mapped_path: list[str] = field(default_factory=list)
    as_path: list[int] = field(default_factory=list)
    #: error text when this host's measurement failed; None on success
    error: str | None = None
    #: failure classification: "" on success, "timeout" when the host
    #: blew the client's per-host deadline, "error" otherwise
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class MeasurementRun:
    """All results of one fan-out."""

    command: str
    results: list[MeasurementResult] = field(default_factory=list)

    def by_machine(self) -> dict[str, MeasurementResult]:
        return {result.machine: result for result in self.results}

    def paths(self) -> list[list[str]]:
        return [result.mapped_path for result in self.results if result.mapped_path]

    def failures(self) -> list[MeasurementResult]:
        """Results whose host failed (error captured, no output)."""
        return [result for result in self.results if not result.ok]

    @property
    def ok(self) -> bool:
        return not self.failures()


class MeasurementClient:
    """Fans commands out to lab VMs and structures the responses."""

    def __init__(
        self,
        lab: EmulatedLab,
        nidb: Optional[Nidb] = None,
        retry_policy: RetryPolicy = NO_RETRY,
    ):
        self.lab = lab
        self.nidb = nidb
        self.retry_policy = retry_policy
        self._mapper = IpMapper(nidb) if nidb is not None else None

    def send(self, command: str, hosts) -> MeasurementRun:
        """Run ``command`` on each host; every result, in host order.

        The same fan-out as :meth:`iter_results`, collected into one
        :class:`MeasurementRun`.
        """
        return MeasurementRun(command, list(self.iter_results(command, hosts)))

    def iter_results(self, command: str, hosts) -> Iterator[MeasurementResult]:
        """Run ``command`` on each host (name or management address) and
        yield each :class:`MeasurementResult` as soon as it is measured.

        The fan-out runs under a ``measure.send`` span with one child per
        host; parse volume is counted as ``measure.rows_parsed``.  One
        failing host does not abort the fan-out: its result carries the
        error (``result.ok`` is false) and ``measure.failures`` counts
        it, while the remaining hosts are still measured.  Transient VM
        errors are retried under the client's retry policy first; when
        the policy carries a ``deadline`` it also bounds each host's
        wall-clock — a hung VM is abandoned and recorded as a failure
        with reason ``timeout`` instead of wedging the whole fan-out.

        The generator keeps no result once it has yielded it, so a
        consumer that drops each result before asking for the next holds
        one VM's output at a time.
        """
        template = template_for_command(command)
        hosts = list(hosts)
        with span("measure.send", command=command, hosts=len(hosts)):
            for host in hosts:
                yield self._measure_host(host, command, template)

    def _measure_host(self, host, command: str, template) -> MeasurementResult:
        """One host's result, or its failure record."""
        deadline = self.retry_policy.deadline
        with span("measure.%s" % host, host=str(host)):
            try:
                if deadline is not None:
                    return run_with_deadline(
                        lambda: self._measure_one(host, command, template),
                        deadline,
                        operation="measure.%s" % host,
                    )
                return self._measure_one(host, command, template)
            except Exception as exc:
                reason = "timeout" if isinstance(exc, DeadlineExceededError) else "error"
                metric_inc("measure.failures")
                log_event(
                    WARNING,
                    "fault.measure",
                    "measurement on %s failed: %s" % (host, exc),
                    host=str(host),
                    command=command,
                    error=str(exc),
                    error_type=type(exc).__name__,
                    reason=reason,
                )
                return MeasurementResult(
                    host=str(host),
                    machine=str(host),
                    command=command,
                    output="",
                    error=str(exc),
                    reason=reason,
                )

    def _measure_one(self, host, command: str, template) -> MeasurementResult:
        vm = self._resolve(host)
        output = retry_call(
            lambda: vm.run(command),
            policy=self.retry_policy,
            operation="measure.run",
        )
        result = MeasurementResult(
            host=str(host),
            machine=vm.name,
            command=command,
            output=output,
        )
        if template is not None:
            result.parsed = template.parse_text_to_dicts(output)
            metric_inc("measure.rows_parsed", len(result.parsed))
        if self._mapper is not None and command.startswith("traceroute"):
            addresses = [
                row["ADDRESS"] for row in result.parsed if row.get("ADDRESS")
            ]
            result.mapped_path = self._mapper.map_path(addresses)
            result.as_path = self._mapper.as_path(addresses)
        metric_inc("measure.commands_sent")
        return result

    def _resolve(self, host):
        host = str(host)
        if host in self.lab.network.machines:
            return self.lab.vm(host)
        try:
            return self.lab.vm_by_tap(host)
        except Exception:
            raise MeasurementError(
                "host %r is neither a machine name nor a management address" % host
            ) from None


def send(nidb: Nidb, command: str, hosts, lab: EmulatedLab) -> MeasurementRun:
    """The paper's ``measure.send(nidb, cmd, hosts)`` entry point."""
    return MeasurementClient(lab, nidb).send(command, hosts)
