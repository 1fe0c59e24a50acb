"""A booted lab's forwarding state as one comparable value.

The :class:`~repro.emulation.dataplane.Dataplane` forwards from each
machine's IGP routes and BGP selection plus the fabric it reads from
:class:`~repro.emulation.network.EmulatedNetwork`, so two labs with
equal snapshots forward every packet alike: an equality test costs
O(routes) and needs no pings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional


@dataclass(frozen=True)
class LabSnapshot:
    """``routes`` and ``fabric`` hold ``(machine, sorted lines)`` per
    running machine; ``verdict`` is (status, period, components,
    quarantined), without rounds: a resumed lab settles in fewer."""

    routes: tuple
    fabric: tuple
    verdict: tuple

    @classmethod
    def of(cls, lab) -> "LabSnapshot":
        network, selected = lab.network, lab.bgp_result.selected
        machines = sorted(network.machines)
        routes = tuple(
            (machine, tuple(
                sorted("%s %r" % item for item in lab.igp.routes(machine).items())
                + sorted("%s %r" % item for item in selected.get(machine, {}).items())
            ))
            for machine in machines
        )
        fabric = tuple((machine, _fabric_lines(network, machine)) for machine in machines)
        report = lab.convergence_report
        verdict = (report.status, report.period, report.components, tuple(sorted(report.quarantined)))
        return cls(routes, fabric, verdict)

    def diff(self, other: "LabSnapshot") -> Optional[str]:
        """None when equal, else one line naming the first difference."""
        for part in ("routes", "fabric"):
            mine, theirs = dict(getattr(self, part)), dict(getattr(other, part))
            for machine in sorted(mine.keys() | theirs.keys()):
                if machine not in mine or machine not in theirs:
                    return "%s: %s runs in one lab only" % (part, machine)
                for left, right in zip_longest(mine[machine], theirs[machine]):
                    if left != right:
                        return "%s differ at %s: %r != %r" % (part, machine, left, right)
        if self.verdict != other.verdict:
            return "verdict differs: %r != %r" % (self.verdict, other.verdict)
        return None


def _fabric_lines(network, machine: str) -> tuple:
    """Addresses (``detached`` off a downed link end) and live segments."""
    lines = [
        "%s/%s%s" % (
            interface.ip_address, interface.prefixlen,
            "" if network.owner_of(interface.ip_address) == machine else " detached",
        )
        for interface in network.device(machine).interfaces
        if interface.ip_address is not None and not interface.is_management
    ]
    lines.extend(
        "segment %s %s" % (segment.network, " ".join(sorted(segment.machines())))
        for segment in network.segments_of(machine)
    )
    return tuple(sorted(lines))
