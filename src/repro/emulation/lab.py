"""The emulated lab: boot rendered configurations into a running network.

:func:`EmulatedLab.boot` is the substrate's ``lstart``: it detects the
platform from the files present, parses every configuration back into
device intent, brings up the fabric, converges the IGP, runs the BGP
simulation, and exposes :class:`~repro.emulation.vm.VirtualMachine`
handles for measurement.

Failure is a first-class state of the boot.  In the default **strict**
mode a device whose configuration failed to parse aborts the boot with
the underlying :class:`~repro.exceptions.ConfigParseError`, exactly as
before.  With ``strict=False`` the device is **quarantined** instead: a
structured :class:`~repro.resilience.BootDiagnostic` (file, line,
cause) lands in :attr:`quarantined`, the machine is excluded from the
fabric, and the rest of the lab converges degraded
(:attr:`degraded` is then true).

A booted lab also accepts live topology faults — :meth:`link_down`,
:meth:`link_up`, :meth:`node_down`, :meth:`node_up` — which mutate the
fabric in place and :meth:`reconverge` the protocols incrementally,
resuming BGP from the previous selected state rather than re-parsing
or cold-starting anything.
"""

from __future__ import annotations

import logging
import os
from typing import Optional

from repro.emulation.bgp_engine import BgpResult, BgpSimulation
from repro.emulation.dataplane import Dataplane
from repro.emulation.dns_engine import DnsEngine
from repro.emulation.intent import LabIntent
from repro.emulation.network import EmulatedNetwork
from repro.emulation.ospf_engine import IgpState
from repro.emulation.parsing import LAB_PARSERS
from repro.emulation.vm import VirtualMachine
from repro.exceptions import EmulationError
from repro.observability import WARNING, gauge_set, log_event, metric_inc, span
from repro.resilience.diagnostics import (
    CONVERGED,
    OSCILLATING,
    PARTITIONED,
    UNDETERMINED,
    BootDiagnostic,
    ConvergenceReport,
)

logger = logging.getLogger("repro.emulation")

#: Keep full per-round BGP history only for labs smaller than this —
#: the history is what oscillation experiments inspect.
HISTORY_MACHINE_LIMIT = 64


def detect_platform(lab_dir: str) -> str:
    """Infer the emulation platform from the files in a lab directory."""
    if os.path.exists(os.path.join(lab_dir, "lab.conf")):
        return "netkit"
    if os.path.exists(os.path.join(lab_dir, "lab.net")):
        return "dynagen"
    if os.path.exists(os.path.join(lab_dir, "topology.vmm")):
        return "junosphere"
    if os.path.exists(os.path.join(lab_dir, "network.cli")):
        return "cbgp"
    raise EmulationError("cannot detect platform of lab directory %s" % lab_dir)


class EmulatedLab:
    """A booted lab: fabric + converged protocols + VM handles."""

    def __init__(
        self,
        intent: LabIntent,
        max_rounds: int = 64,
        vendor_overrides: Optional[dict[str, str]] = None,
        keep_history: Optional[bool] = None,
        strict: bool = True,
        jobs: int = 1,
    ):
        self.intent = intent
        self.max_rounds = max_rounds
        self.strict = strict
        #: Fan-out width for per-VM bring-up (and, via :meth:`boot`,
        #: config parsing); 1 is the serial reference path.
        self.jobs = jobs
        self._vendor_overrides = vendor_overrides
        self._keep_history = keep_history
        #: Directory the lab was booted from (None for intent-built labs).
        self.lab_dir: Optional[str] = None
        #: machine name -> BootDiagnostic for devices excluded at boot.
        self.quarantined: dict[str, BootDiagnostic] = {}
        #: live fault state, applied on top of the parsed topology.
        self.disabled_machines: set[str] = set()
        self.disabled_attachments: set[tuple[str, str]] = set()
        self.igp: Optional[IgpState] = None
        self._simulation: Optional[BgpSimulation] = None
        self._resume_seed: Optional[dict] = None
        self.bgp_result: Optional[BgpResult] = None
        self._quarantine_scan()
        self._build_fabric()
        logger.info(
            "fabric up: %d machines, %d segments, %d IGP areas",
            len(self.network),
            len(self.network.segments),
            len(self.igp.areas()),
        )
        gauge_set("emulation.machines", len(self.network))
        gauge_set("emulation.segments", len(self.network.segments))
        self._build_simulation()
        self._converge()

    @classmethod
    def boot(
        cls,
        lab_dir: str | os.PathLike,
        platform: Optional[str] = None,
        max_rounds: int = 64,
        vendor_overrides: Optional[dict[str, str]] = None,
        keep_history: Optional[bool] = None,
        strict: bool = True,
        jobs: int = 1,
    ) -> "EmulatedLab":
        """Parse a rendered lab directory and bring the network up.

        ``jobs`` fans per-machine config parsing and per-VM bring-up
        over the engine executors; every width produces an identical
        lab — the parallel-boot determinism tests pin that down.
        """
        lab_dir = str(lab_dir)
        platform = platform or detect_platform(lab_dir)
        logger.info("booting %s lab from %s", platform, lab_dir)
        try:
            parser = LAB_PARSERS[platform]
        except KeyError:
            raise EmulationError("no parser for platform %r" % platform) from None
        with span("emulation.parse", platform=platform, jobs=jobs):
            intent = parser(lab_dir, jobs=jobs)
        lab = cls(
            intent,
            max_rounds=max_rounds,
            vendor_overrides=vendor_overrides,
            keep_history=keep_history,
            strict=strict,
            jobs=jobs,
        )
        lab.lab_dir = lab_dir
        return lab

    # -- boot stages -----------------------------------------------------------
    def _quarantine_scan(self) -> None:
        """Handle devices whose configurations failed to parse.

        Strict: re-raise the first collected error (today's behaviour).
        Non-strict: quarantine the device with a structured diagnostic
        and keep booting the rest of the fabric.
        """
        for name in sorted(self.intent.devices):
            device = self.intent.devices[name]
            errors = getattr(device, "boot_errors", None) or []
            if not errors:
                continue
            error = errors[0]
            if self.strict:
                if isinstance(error, Exception):
                    raise error
                raise EmulationError(str(error))
            diagnostic = BootDiagnostic.from_error(name, error)
            self.quarantined[name] = diagnostic
            self.disabled_machines.add(name)
            metric_inc("emulation.quarantined")
            fields = {
                "boot_%s" % key: value
                for key, value in diagnostic.to_dict().items()
            }
            log_event(
                WARNING,
                "emulation.quarantine",
                str(diagnostic),
                **fields,
            )
            logger.warning("%s", diagnostic)
        gauge_set("emulation.quarantined", len(self.quarantined))

    def _build_fabric(self) -> None:
        with span("emulation.fabric"):
            self.network = EmulatedNetwork(
                self.intent,
                disabled_machines=self.disabled_machines,
                disabled_attachments=self.disabled_attachments,
            )
        with span("emulation.igp"):
            if self.igp is None:
                self.igp = IgpState(self.network)
            else:
                self.igp.rebuild(self.network)

    def _build_simulation(self) -> None:
        if self._simulation is None:
            self._simulation = BgpSimulation(
                self.network,
                self.igp,
                vendor_overrides=self._vendor_overrides,
                keep_history=self._keep_history
                if self._keep_history is not None
                else len(self.network) <= HISTORY_MACHINE_LIMIT,
            )
        else:
            self._simulation.rebuild(self.network)

    def _converge(self, resume_from: Optional[dict] = None) -> None:
        with span("emulation.bgp", machines=len(self.network)) as bgp_span:
            self.bgp_result = self._simulation.run(
                max_rounds=self.max_rounds, resume_from=resume_from
            )
            bgp_span.set("rounds", self.bgp_result.rounds)
            bgp_span.set("converged", self.bgp_result.converged)
            bgp_span.set("oscillating", self.bgp_result.oscillating)
            bgp_span.set("period", self.bgp_result.period)
        if self.bgp_result.converged:
            logger.info("BGP converged in %d rounds", self.bgp_result.rounds)
        elif self.bgp_result.oscillating:
            logger.warning(
                "BGP oscillates with period %d", self.bgp_result.period
            )
        else:
            logger.warning(
                "BGP undetermined after %d rounds", self.bgp_result.rounds
            )
        for warning in self.bgp_result.session_warnings:
            logger.warning("session: %s", warning)
        self.dataplane = Dataplane(self.network, self.igp, self.bgp_result)
        self.dns = DnsEngine(self.network)
        self._vms = self._bring_up_vms()
        self._tap_map = self._build_tap_map()

    def _bring_up_vms(self) -> dict[str, "VirtualMachine"]:
        """Build the per-machine VM handles, fanned out when jobs > 1.

        Handles are assembled in sorted machine order either way, so a
        parallel bring-up yields a lab indistinguishable from a serial
        one.
        """
        names = sorted(self.network.machines)
        if self.jobs > 1 and len(names) > 1:
            from repro.engine.executors import make_executor, run_calls

            executor = make_executor(self.jobs)
            try:
                with span("emulation.vms", jobs=self.jobs, machines=len(names)):
                    handles = run_calls(
                        executor,
                        [
                            ("vm:%s" % name, lambda n: VirtualMachine(self, n), name)
                            for name in names
                        ],
                    )
            finally:
                executor.shutdown()
            return dict(zip(names, handles))
        return {name: VirtualMachine(self, name) for name in names}

    # -- state ----------------------------------------------------------------
    @property
    def converged(self) -> bool:
        return self.bgp_result.converged

    @property
    def oscillating(self) -> bool:
        return self.bgp_result.oscillating

    @property
    def degraded(self) -> bool:
        """True when at least one device is quarantined."""
        return bool(self.quarantined)

    @property
    def convergence_report(self) -> ConvergenceReport:
        """Classify how the last convergence run ended."""
        result = self.bgp_result
        components = self._fabric_components()
        if result.converged:
            status = CONVERGED
        elif result.oscillating:
            status = OSCILLATING
        elif components > 1:
            status = PARTITIONED
        else:
            status = UNDETERMINED
        return ConvergenceReport(
            status=status,
            rounds=result.rounds,
            deadline=self.max_rounds,
            period=result.period,
            components=components,
            quarantined=sorted(self.quarantined),
        )

    def _fabric_components(self) -> int:
        """Connected components among the active machines."""
        remaining = set(self.network.machines)
        components = 0
        while remaining:
            components += 1
            stack = [remaining.pop()]
            while stack:
                machine = stack.pop()
                for neighbor in self.network.neighbors_of(machine):
                    if neighbor in remaining:
                        remaining.remove(neighbor)
                        stack.append(neighbor)
        return components

    def _build_tap_map(self) -> dict[str, str]:
        tap_map = {}
        for name, device in self.network.machines.items():
            for interface in device.interfaces:
                if interface.is_management and interface.ip_address is not None:
                    tap_map[str(interface.ip_address)] = name
        return tap_map

    # -- live faults -----------------------------------------------------------
    def _link_keys(self, left: str, right: str) -> list[str]:
        for name in (left, right):
            if name not in self.network.all_machines:
                raise EmulationError("no machine named %r in the lab" % (name,))
        keys = self.network.segment_keys_between(left, right)
        if not keys:
            raise EmulationError(
                "no link between %r and %r to fail" % (left, right)
            )
        return keys

    def link_down(self, left: str, right: str, reconverge: bool = True):
        """Fail every link between two machines on the running lab."""
        for key in self._link_keys(left, right):
            self.disabled_attachments.add((left, key))
            self.disabled_attachments.add((right, key))
        metric_inc("fault.link_down")
        return self.reconverge() if reconverge else None

    def link_up(self, left: str, right: str, reconverge: bool = True):
        """Restore previously failed links between two machines."""
        for key in self._link_keys(left, right):
            self.disabled_attachments.discard((left, key))
            self.disabled_attachments.discard((right, key))
        metric_inc("fault.link_up")
        return self.reconverge() if reconverge else None

    def node_down(self, machine: str, reconverge: bool = True):
        """Power off one machine on the running lab."""
        if machine not in self.network.all_machines:
            raise EmulationError("no machine named %r to fail" % (machine,))
        self.disabled_machines.add(machine)
        metric_inc("fault.node_down")
        return self.reconverge() if reconverge else None

    def node_up(self, machine: str, reconverge: bool = True):
        """Power a previously downed machine back on."""
        if machine not in self.network.all_machines:
            raise EmulationError("no machine named %r to restore" % (machine,))
        if machine in self.quarantined:
            raise EmulationError(
                "machine %r is quarantined (%s) and cannot be restored"
                % (machine, self.quarantined[machine].cause)
            )
        self.disabled_machines.discard(machine)
        metric_inc("fault.node_up")
        return self.reconverge() if reconverge else None

    def reconverge(self) -> ConvergenceReport:
        """Rebuild the fabric under the current fault state and resettle.

        BGP resumes from the previous selected state — an incremental
        reconvergence, not a cold reboot — and nothing is re-parsed.
        """
        seed = (
            self.bgp_result.selected
            if self.bgp_result is not None
            else self._resume_seed
        )
        with span("emulation.reconverge", machines=len(self.network.all_machines)):
            self._build_fabric()
            self._build_simulation()
            self._converge(resume_from=seed)
        return self.convergence_report

    def fork(self, converge: bool = True) -> "EmulatedLab":
        """A cheap clone of this lab for destructive experiments.

        The clone shares the parsed intent (no re-parse, no deep copy)
        but owns its fabric and fault state, and resumes BGP from this
        lab's selected routes.  With ``converge=False`` the clone is
        returned before its protocols settle — callers then apply
        faults and :meth:`reconverge` once, which is how the what-if
        helpers avoid converging twice.
        """
        clone = object.__new__(type(self))
        clone.intent = self.intent
        clone.max_rounds = self.max_rounds
        clone.strict = self.strict
        clone.jobs = self.jobs
        clone._vendor_overrides = self._vendor_overrides
        clone._keep_history = (
            self._keep_history if self._keep_history is not None else False
        )
        clone.lab_dir = self.lab_dir
        clone.quarantined = dict(self.quarantined)
        clone.disabled_machines = set(self.disabled_machines)
        clone.disabled_attachments = set(self.disabled_attachments)
        clone.igp = None
        clone._simulation = None
        clone._resume_seed = self.bgp_result.selected if self.bgp_result else None
        clone.bgp_result = None
        clone._build_fabric()
        clone._build_simulation()
        if converge:
            clone._converge(resume_from=clone._resume_seed)
        return clone

    # -- access ---------------------------------------------------------------
    def vm(self, name: str) -> VirtualMachine:
        try:
            return self._vms[name]
        except KeyError:
            if name in self.quarantined:
                raise EmulationError(
                    "machine %r is quarantined: %s"
                    % (name, self.quarantined[name].cause)
                ) from None
            raise EmulationError("no VM named %r" % (name,)) from None

    def vm_by_tap(self, tap_ip: str) -> VirtualMachine:
        try:
            return self._vms[self._tap_map[str(tap_ip)]]
        except KeyError:
            raise EmulationError("no VM with management address %r" % (tap_ip,)) from None

    def vms(self) -> list[VirtualMachine]:
        return [self._vms[name] for name in sorted(self._vms)]

    def run(self, machine: str, command: str) -> str:
        """Execute a command on one machine (by name or management IP)."""
        if machine in self._vms:
            return self._vms[machine].run(command)
        return self.vm_by_tap(machine).run(command)

    def dataplane_at_round(self, round_index: int) -> Dataplane:
        """Forwarding over the BGP selection of an earlier round.

        Only available when per-round history was kept; this is how the
        Bad-Gadget experiment observes the path flapping between
        rounds of a persistent oscillation.
        """
        history = self.bgp_result.history
        if not history:
            raise EmulationError("lab was booted without BGP history")
        snapshot = history[round_index % len(history)]
        return self.dataplane.with_bgp_snapshot(snapshot)

    def __repr__(self) -> str:
        status = "converged" if self.converged else (
            "oscillating" if self.oscillating else "not converged"
        )
        if self.quarantined:
            status += ", %d quarantined" % len(self.quarantined)
        return "EmulatedLab(%d machines, %s, %d BGP rounds)" % (
            len(self.network),
            status,
            self.bgp_result.rounds,
        )
