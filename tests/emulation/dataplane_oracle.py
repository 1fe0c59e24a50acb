"""The linear-scan forwarding lookup, kept as the FIB's differential oracle.

:class:`ScanDataplane` answers every lookup by scanning all of the
machine's connected segments, IGP routes and BGP best paths with
``IPv4Network.__contains__`` and keeping the ``(prefixlen, -priority)``
maximum — the definition the compiled per-machine FIB in
:class:`repro.emulation.dataplane.Dataplane` must reproduce.  Build one
over the same state as a dataplane with :func:`scan_dataplane`.
"""

from __future__ import annotations

import ipaddress
from typing import Optional

from repro.emulation.dataplane import Dataplane, ForwardingDecision, TraceResult


def scan_dataplane(dataplane: Dataplane) -> "ScanDataplane":
    """A scanning dataplane over exactly ``dataplane``'s state."""
    oracle = ScanDataplane(dataplane.network, dataplane.igp)
    oracle.bgp_selected = dataplane.bgp_selected
    return oracle


class ScanDataplane(Dataplane):
    """Forwarding by a full table scan per lookup (the pre-FIB definition)."""

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
