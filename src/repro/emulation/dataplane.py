"""Packet forwarding over the emulated network: FIB lookup, traceroute, ping.

Each machine's forwarding decision combines, in classic administrative
order, connected interfaces, IGP routes, and the BGP best paths from a
:class:`~repro.emulation.bgp_engine.BgpResult` — longest prefix first,
then route source.  BGP next hops resolve recursively through the IGP,
so an iBGP-learned route with a loopback next hop forwards along the
IGP shortest path, exactly the interaction the §7.2 experiment probes.
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


@dataclass
class ForwardingDecision:
    """Outcome of one FIB lookup."""

    action: str  # deliver | forward | drop
    next_machine: Optional[str] = None
    source: str = ""  # connected | igp | bgp | local
    prefix: Optional[ipaddress.IPv4Network] = None
    reason: str = ""


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
        device = self.network.device(machine)
        if device.owns_address(destination):
            return ForwardingDecision(action="deliver", source="local")

        best: Optional[tuple] = None  # (prefixlen, -priority) max wins

        for segment in self.network.segments_of(machine):
            net = segment.network
            if net is not None and destination in net:
                candidate = (net.prefixlen, -0, ("connected", segment))
                if best is None or candidate[:2] > best[:2]:
                    best = candidate

        for prefix, route in self.igp.routes(machine).items():
            if destination in prefix:
                candidate = (prefix.prefixlen, -1, ("igp", route.next_hop))
                if best is None or candidate[:2] > best[:2]:
                    best = candidate

        for prefix, route in self.bgp_selected.get(machine, {}).items():
            if destination in prefix:
                candidate = (prefix.prefixlen, -2, ("bgp", route))
                if best is None or candidate[:2] > best[:2]:
                    best = candidate

        if best is None:
            return ForwardingDecision(action="drop", reason="no route")

        kind, payload = best[2]
        if kind == "connected":
            owner = self.network.owner_of(destination)
            if owner is not None and owner in payload.machines():
                return ForwardingDecision(
                    action="forward", next_machine=owner, source="connected"
                )
            return ForwardingDecision(action="drop", reason="no host on segment")
        if kind == "igp":
            return ForwardingDecision(action="forward", next_machine=payload, source="igp")

        route = payload
        if route.next_hop is None:
            return ForwardingDecision(action="drop", source="bgp", reason="blackhole aggregate")
        return self._resolve_bgp_next_hop(machine, route)

    def _resolve_bgp_next_hop(self, machine: str, route) -> ForwardingDecision:
        next_hop = route.next_hop
        owner = self.network.owner_of(next_hop)
        if owner == machine:
            return ForwardingDecision(action="drop", reason="next hop is self")
        for segment in self.network.segments_of(machine):
            net = segment.network
            if net is not None and next_hop in net and owner in segment.machines():
                return ForwardingDecision(
                    action="forward", next_machine=owner, source="bgp", prefix=route.prefix
                )
        for prefix, igp_route in self.igp.routes(machine).items():
            if next_hop in prefix:
                return ForwardingDecision(
                    action="forward",
                    next_machine=igp_route.next_hop,
                    source="bgp",
                    prefix=route.prefix,
                )
        # C-BGP-style abstract links: the next hop may be a direct
        # neighbour's loopback on an unnumbered segment.
        if owner is not None and owner in self.network.neighbors_of(machine):
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
        result = TraceResult(source=source, destination=destination)
        current = source
        visited: set[str] = set()
        for _ in range(max_hops):
            decision = self.lookup(current, destination)
            if decision.action == "deliver":
                if result.hops and result.hops[-1][0] == current:
                    result.hops[-1] = (current, str(destination))
                else:
                    result.hops.append((current, str(destination)))
                result.reached = True
                return result
            if decision.action == "drop":
                result.reason = decision.reason
                return result
            next_machine = decision.next_machine
            ingress = self.network.address_on_segment_with(next_machine, current)
            result.hops.append((next_machine, str(ingress) if ingress else "?"))
            if next_machine in visited:
                result.reason = "forwarding loop"
                return result
            visited.add(current)
            current = next_machine
        result.reason = "max hops exceeded"
        return result

    def ping(self, source: str, destination) -> bool:
        """True when the forward path reaches the destination."""
        return self._walk(source, destination, PING_TTL).reached

    def path_machines(self, source: str, destination) -> list[str]:
        trace = self.trace(source, destination)
        return [source] + trace.machines()
