"""Packet forwarding over the emulated network: FIB lookup, traceroute, ping.

Each machine's forwarding decision combines, in classic administrative
order, connected interfaces, IGP routes, and the BGP best paths from a
:class:`~repro.emulation.bgp_engine.BgpResult` — longest prefix first,
then route source.  BGP next hops resolve recursively through the IGP,
so an iBGP-learned route with a loopback next hop forwards along the
IGP shortest path, exactly the interaction the §7.2 experiment probes.

Lookups go through a per-machine FIB compiled on the machine's first
lookup: one dict per prefix length, keyed by masked network int and
probed longest-first, filled connected → IGP → BGP with the first entry
per prefix kept.  A :class:`Dataplane` answers for the converged state
it was built from; the lab builds a new one on every convergence.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Optional

from repro.emulation.bgp_engine import BgpResult
from repro.emulation.network import EmulatedNetwork
from repro.emulation.ospf_engine import IgpState

#: Hop budget of ``trace``, traceroute's default.
MAX_HOPS = 30
#: Hop budget of ``ping``, the default IP TTL: a loop-free path longer
#: than a traceroute shows is still reachable.
PING_TTL = 64

_ALL_ONES = 0xFFFFFFFF


@dataclass(frozen=True)
class ForwardingDecision:
    """Outcome of one FIB lookup."""

    action: str  # deliver | forward | drop
    next_machine: Optional[str] = None
    source: str = ""  # connected | igp | bgp | local
    prefix: Optional[ipaddress.IPv4Network] = None
    reason: str = ""


_DELIVER = ForwardingDecision(action="deliver", source="local")
_NO_ROUTE = ForwardingDecision(action="drop", reason="no route")
_NO_HOST = ForwardingDecision(action="drop", reason="no host on segment")
_BLACKHOLE = ForwardingDecision(action="drop", source="bgp", reason="blackhole aggregate")


@dataclass
class TraceResult:
    """A traceroute: the machines and addresses the probe visited."""

    source: str
    destination: ipaddress.IPv4Address
    hops: list[tuple[str, str]] = field(default_factory=list)  # (machine, address)
    reached: bool = False
    reason: str = ""

    def machines(self) -> list[str]:
        return [machine for machine, _ in self.hops]

    def addresses(self) -> list[str]:
        return [address for _, address in self.hops]


class _Fib:
    """One machine's compiled forwarding table.

    ``owned`` holds the machine's own non-management addresses as ints.
    ``probes`` holds ``(mask, table)`` per prefix length, longest first;
    a table value is a final :class:`ForwardingDecision`, the member set
    of a connected segment (the decision then depends on which host owns
    the destination), or a BGP best path, replaced by its decision once
    its next hop is resolved.  ``segments`` and ``igp_routes`` keep the
    scan order next-hop resolution follows.
    """

    __slots__ = ("owned", "probes", "segments", "igp_routes")

    def __init__(self, dataplane: "Dataplane", machine: str):
        network = dataplane.network
        device = network.device(machine)
        self.owned = {
            int(interface.ip_address)
            for interface in device.interfaces
            if interface.ip_address is not None and not interface.is_management
        }
        tables: dict[int, dict] = {}
        self.segments = []
        for segment in network.segments_of(machine):
            net = segment.network
            if net is None:
                continue
            members = frozenset(segment.machines())
            key = int(net.network_address)
            self.segments.append((key, int(net.netmask), members))
            tables.setdefault(net.prefixlen, {}).setdefault(key, members)
        self.igp_routes = []
        igp_decisions: dict[str, ForwardingDecision] = {}
        for prefix, route in dataplane.igp.routes(machine).items():
            decision = igp_decisions.get(route.next_hop)
            if decision is None:
                decision = igp_decisions[route.next_hop] = ForwardingDecision(
                    action="forward", next_machine=route.next_hop, source="igp"
                )
            key = int(prefix.network_address)
            self.igp_routes.append((key, int(prefix.netmask), route.next_hop))
            tables.setdefault(prefix.prefixlen, {}).setdefault(key, decision)
        for prefix, route in dataplane.bgp_selected.get(machine, {}).items():
            tables.setdefault(prefix.prefixlen, {}).setdefault(
                int(prefix.network_address), route
            )
        self.probes = [
            ((_ALL_ONES << (32 - length)) & _ALL_ONES, tables[length])
            for length in sorted(tables, reverse=True)
        ]


class Dataplane:
    """Forwarding over a converged (or snapshot) routing state."""

    def __init__(
        self,
        network: EmulatedNetwork,
        igp: IgpState,
        bgp_result: Optional[BgpResult] = None,
    ):
        self.network = network
        self.igp = igp
        self.bgp_selected = dict(bgp_result.selected) if bgp_result else {}
        self._fibs: dict[str, _Fib] = {}
        #: (machine, previous machine) -> the ingress address a trace shows
        self._ingress: dict[tuple[str, str], str] = {}

    def with_bgp_snapshot(self, selected: dict) -> "Dataplane":
        """A dataplane over a different BGP selection snapshot.

        Used to observe forwarding *during* oscillation: each round of
        an oscillating simulation yields a different snapshot, and
        repeated traceroutes across snapshots show the path flapping.
        """
        clone = Dataplane(self.network, self.igp)
        clone.bgp_selected = dict(selected)
        return clone

    # -- FIB ------------------------------------------------------------------
    def lookup(self, machine: str, destination) -> ForwardingDecision:
        destination = ipaddress.ip_address(str(destination))
        return self._decide(machine, destination, _as_int(destination))

    def _decide(self, machine: str, destination, value) -> ForwardingDecision:
        """The decision for ``destination`` (``value`` is its int, or None)."""
        fib = self._fibs.get(machine)
        if fib is None:
            fib = self._fibs[machine] = _Fib(self, machine)
        if value is None:
            return _NO_ROUTE
        if value in fib.owned:
            return _DELIVER
        for mask, table in fib.probes:
            key = value & mask
            entry = table.get(key)
            if entry is None:
                continue
            if entry.__class__ is ForwardingDecision:
                return entry
            if entry.__class__ is frozenset:
                owner = self.network.owner_of(destination)
                if owner is not None and owner in entry:
                    return ForwardingDecision(
                        action="forward", next_machine=owner, source="connected"
                    )
                return _NO_HOST
            decision = table[key] = self._resolve_bgp_next_hop(fib, machine, entry)
            return decision
        return _NO_ROUTE

    def _resolve_bgp_next_hop(self, fib: _Fib, machine: str, route) -> ForwardingDecision:
        next_hop = route.next_hop
        if next_hop is None:
            return _BLACKHOLE
        owner = self.network.owner_of(next_hop)
        if owner == machine:
            return ForwardingDecision(action="drop", reason="next hop is self")
        value = int(next_hop)
        for network, mask, members in fib.segments:
            if value & mask == network and owner in members:
                return ForwardingDecision(
                    action="forward", next_machine=owner, source="bgp", prefix=route.prefix
                )
        for network, mask, next_machine in fib.igp_routes:
            if value & mask == network:
                return ForwardingDecision(
                    action="forward",
                    next_machine=next_machine,
                    source="bgp",
                    prefix=route.prefix,
                )
        # C-BGP-style abstract links: the next hop may be a direct
        # neighbour's loopback on an unnumbered segment.
        if owner is not None and owner in self.network.neighbor_set(machine):
            return ForwardingDecision(
                action="forward", next_machine=owner, source="bgp", prefix=route.prefix
            )
        return ForwardingDecision(action="drop", reason="unresolvable next hop %s" % next_hop)

    # -- probes ---------------------------------------------------------------
    def trace(self, source: str, destination) -> TraceResult:
        """Hop-by-hop forwarding walk, traceroute-style."""
        return self._walk(source, destination, MAX_HOPS)

    def _walk(self, source: str, destination, max_hops: int) -> TraceResult:
        destination = ipaddress.ip_address(str(destination))
        value = _as_int(destination)
        address = str(destination)
        result = TraceResult(source=source, destination=destination)
        hops = result.hops
        current = source
        visited: set[str] = set()
        for _ in range(max_hops):
            decision = self._decide(current, destination, value)
            if decision.action == "deliver":
                if hops and hops[-1][0] == current:
                    hops[-1] = (current, address)
                else:
                    hops.append((current, address))
                result.reached = True
                return result
            if decision.action == "drop":
                result.reason = decision.reason
                return result
            next_machine = decision.next_machine
            hops.append((next_machine, self._ingress_of(next_machine, current)))
            if next_machine in visited:
                result.reason = "forwarding loop"
                return result
            visited.add(current)
            current = next_machine
        result.reason = "max hops exceeded"
        return result

    def _ingress_of(self, machine: str, previous: str) -> str:
        text = self._ingress.get((machine, previous))
        if text is None:
            ingress = self.network.address_on_segment_with(machine, previous)
            text = self._ingress[(machine, previous)] = str(ingress) if ingress else "?"
        return text

    def ping(self, source: str, destination) -> bool:
        """True when the forward path reaches the destination."""
        return self._walk(source, destination, PING_TTL).reached

    def path_machines(self, source: str, destination) -> list[str]:
        trace = self.trace(source, destination)
        return [source] + trace.machines()


def _as_int(address) -> Optional[int]:
    """The FIB key of a destination; None for a non-IPv4 address."""
    return int(address) if address.version == 4 else None
