"""The naive control-plane oracles the emulator's fast paths must equal.

The emulator runs one BGP schedule (event-driven, persistent
Adj-RIB-In) and one IGP recomputation (incremental invalidation on
``IgpState.rebuild``), and resolves next hops, address owners, session
addresses and IGP tables once, by integer.  Their references live here,
with the tests that compare against them:

* :func:`simulate_rounds` is the synchronous-rounds BGP schedule: every
  round the Adj-RIB-In is rebuilt from scratch, every router re-decides
  every prefix, and the export->import pipeline runs per session with
  no update groups and no memo;
* :func:`decide` / :func:`med_elimination`, :func:`export` /
  :func:`import_policy`, :func:`compute_routes` /
  :func:`cost_to_address` and :func:`owner_of` / :func:`neighbors_of`
  are the engine's per-step functions as they were before they were
  keyed by integer: routes built through ``dataclasses.replace``, every
  candidate ranked by the full key, every IGP candidate built as an
  ``IgpRoute`` keyed by its network, every next hop and owner resolved
  afresh from address objects (no memo at all);
* the IGP oracle is otherwise a fresh ``IgpState`` built on the
  post-change network, i.e. every cache dropped;
* :func:`reference_control_plane` swaps all of them into the engines
  for the duration of a ``with`` block, so a lab booted, forked and
  faulted inside it runs the oracles end to end;
  :func:`oracle_steps` swaps in only the per-step functions, so the
  event schedule runs exactly as it does in the engine and every work
  count (``bgp.messages``, ``bgp.routes_interned``) must match too.
"""

from __future__ import annotations

import contextlib
import ipaddress
from dataclasses import replace
from typing import Optional

from repro.emulation.bgp_engine import (
    _ORIGIN_RANK,
    BgpResult,
    BgpRoute,
    BgpSimulation,
    Session,
    VendorProfile,
)
from repro.emulation.network import EmulatedNetwork
from repro.emulation.ospf_engine import IgpRoute, IgpState


# -- fabric -------------------------------------------------------------------
def owner_of(network: EmulatedNetwork, address) -> Optional[str]:
    """Machine name owning an address, or None: the fabric's address map
    rebuilt from the intents, keyed by address objects."""
    if not isinstance(address, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
        address = ipaddress.ip_address(str(address))
    owners = {}
    for name in sorted(network.machines):
        for interface in network.machines[name].interfaces:
            if interface.is_management or interface.ip_address is None:
                continue
            if not interface.is_loopback:
                key = network._interface_key(interface)
                if key is not None and (name, key) in network.disabled_attachments:
                    continue  # failed link end: interface is down
            owners[interface.ip_address] = name
    return owners.get(address)


def neighbors_of(network: EmulatedNetwork, machine: str) -> list[str]:
    found = []
    for segment in network._segments_of.get(machine, []):
        for name in segment.machines():
            if name != machine and name not in found:
                found.append(name)
    return found


# -- IGP ----------------------------------------------------------------------
def compute_routes(igp: IgpState, source: str) -> dict[ipaddress.IPv4Network, IgpRoute]:
    connected = set(igp.network.connected_networks(source))
    table: dict[ipaddress.IPv4Network, IgpRoute] = {}
    machines = igp.network.machines
    # Only the source's own IGP domain can hold a path; its members
    # come in fabric order, which fixes the table's prefix order.
    for machine in igp._component.get(source, ()):
        if machine == source:
            continue
        paths = igp._machine_paths(source, machine)
        if not paths:
            continue
        route_type, metric, next_hop = min(
            paths, key=lambda option: (option[1], option[0])
        )
        if next_hop is None:
            continue
        for prefix, _ in igp.advertised_prefixes(machines[machine]):
            if prefix in connected:
                continue
            route = IgpRoute(
                prefix=prefix,
                next_hop=next_hop,
                metric=metric,
                advertiser=machine,
                route_type=route_type,
            )
            existing = table.get(prefix)
            if (
                existing is None
                or route.metric < existing.metric
                or (
                    route.metric == existing.metric
                    and route.advertiser < existing.advertiser
                )
            ):
                table[prefix] = route
    return table


def cost_to_address(igp: IgpState, source: str, address) -> Optional[int]:
    """IGP cost from ``source`` to an address, 0 when connected; ``None``
    when unresolvable.  Matched by ``ipaddress`` membership against the
    source's interfaces and a freshly computed route table."""
    if not isinstance(address, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
        address = ipaddress.ip_address(str(address))
    for interface in igp.network.device(source).interfaces:
        if interface.is_management:
            continue
        if interface.network is not None:
            if address in interface.network:
                return 0
        elif interface.ip_address == address:
            return 0
    best: Optional[int] = None
    for prefix, route in compute_routes(igp, source).items():
        if address in prefix and (best is None or route.metric < best):
            best = route.metric
    return best


# -- BGP export / import ------------------------------------------------------
def export(simulation: BgpSimulation, sender: str, route: BgpRoute, session: Session) -> BgpRoute:
    device = simulation.network.machines[sender]
    if session.is_ebgp:
        next_hop = simulation._session_address(sender, session)
        prepend = 1 + (session.intent.prepend_out or 0)
        communities = route.communities
        added = getattr(session.intent, "communities_out", ()) or ()
        if added:
            communities = tuple(
                sorted(set(communities) | set(added))
            )
        return replace(
            route,
            as_path=(device.bgp.asn,) * prepend + route.as_path,
            next_hop=next_hop,
            local_pref=0,  # receiver assigns
            med=session.intent.med_out,
            communities=communities,
            originator=None,
        )
    next_hop = route.next_hop
    if route.learned_via in ("local", "ebgp") and session.intent.next_hop_self:
        next_hop = device.loopback or next_hop
    if next_hop is None:
        next_hop = device.loopback
    return replace(
        route,
        next_hop=next_hop,
        originator=route.originator or sender,
    )


def import_policy(
    simulation: BgpSimulation, receiver: str, sender: str, route: BgpRoute, session: Session
):
    """Receive-side checks and policy minus the per-peer originator
    check; None means rejected."""
    device = simulation.network.machines[receiver]
    vendor = simulation.vendors[receiver]
    intent_of = simulation._intent_of.get(receiver)
    receiving_intent = None if intent_of is None else intent_of.get(sender)
    if receiving_intent is None:
        return None
    sender_device = simulation.network.machines[sender]
    peer_router_id = (
        sender_device.bgp.router_id
        or (str(sender_device.loopback) if sender_device.loopback else "0.0.0.0")
    )
    if session.is_ebgp:
        if device.bgp.asn in route.as_path:
            return None  # AS-path loop
        denied = getattr(receiving_intent, "deny_in", ()) or ()
        if any(
            route.prefix == net or net.supernet_of(route.prefix)
            for net in denied
        ):
            return None  # inbound prefix filter
        local_pref = receiving_intent.local_pref_in or vendor.default_local_pref
        return simulation._intern(
            replace(
                route,
                local_pref=local_pref,
                learned_via="ebgp",
                learned_from=sender,
                from_client=False,
                originator=None,
                peer_router_id=peer_router_id,
                peer_address=str(receiving_intent.peer_ip),
            )
        )
    return simulation._intern(
        replace(
            route,
            learned_via="ibgp",
            learned_from=sender,
            from_client=receiving_intent.rr_client,
            peer_router_id=peer_router_id,
            peer_address=str(receiving_intent.peer_ip),
        )
    )


def can_export(simulation: BgpSimulation, route: BgpRoute, session: Session) -> bool:
    """The per-session export check, split horizon included."""
    if route.learned_from == session.peer:
        return False
    return simulation._export_policy(route, session)


def import_route(
    simulation: BgpSimulation,
    receiver: str,
    sender: str,
    route: BgpRoute,
    session: Session,
):
    """Apply receive-side checks and policy; None means rejected."""
    if not session.is_ebgp and route.originator == receiver:
        return None  # reflection loop back to the originator
    return import_policy(simulation, receiver, sender, route, session)


# -- BGP decision process -----------------------------------------------------
def next_hop_cost(simulation: BgpSimulation, machine: str, next_hop) -> Optional[int]:
    cost = cost_to_address(simulation.igp, machine, next_hop)
    if cost is None:
        # Unnumbered (C-BGP style) links: a next hop owned by a
        # direct fabric neighbour is reachable at zero cost even
        # without an IGP route to it.
        owner = owner_of(simulation.network, next_hop)
        if owner is not None and owner in neighbors_of(simulation.network, machine):
            cost = 0
    return cost


def _valid(simulation: BgpSimulation, machine: str, route: BgpRoute) -> bool:
    if route.learned_via == "local":
        return True
    if route.next_hop is None:
        return False
    return next_hop_cost(simulation, machine, route.next_hop) is not None


def _igp_cost(simulation: BgpSimulation, machine: str, route: BgpRoute) -> int:
    if route.learned_via == "local" or route.next_hop is None:
        return 0
    cost = next_hop_cost(simulation, machine, route.next_hop)
    return 0 if cost is None else cost


def decide(simulation: BgpSimulation, machine: str, candidates: list[BgpRoute]) -> Optional[BgpRoute]:
    """Run the decision process over one prefix's candidates."""
    valid = [route for route in candidates if _valid(simulation, machine, route)]
    if not valid:
        return None
    vendor = simulation.vendors[machine]
    survivors = med_elimination(valid, vendor)

    def key(route: BgpRoute) -> tuple:
        return (
            -route.local_pref,
            0 if route.learned_via == "local" else 1,
            len(route.as_path),
            _ORIGIN_RANK.get(route.origin, 2),
            0 if route.learned_via == "ebgp" else 1,
            _igp_cost(simulation, machine, route) if vendor.igp_tiebreak else 0,
            route.peer_router_id,
            route.peer_address,
        )

    return min(survivors, key=key)


def med_elimination(routes: list[BgpRoute], vendor: VendorProfile) -> list[BgpRoute]:
    """Deterministic MED: per-neighbour-AS elimination of worse MEDs."""
    groups: dict = {}
    for route in routes:
        group_key = (
            "all" if vendor.always_compare_med
            else (route.as_path[0] if route.as_path else None)
        )
        groups.setdefault(group_key, []).append(route)
    survivors = []
    for members in groups.values():
        with_med = [route for route in members if route.med is not None]
        if len(with_med) < 2:
            survivors.extend(members)
            continue
        best_med = min(route.med for route in with_med)
        survivors.extend(
            route
            for route in members
            if route.med is None or route.med == best_med
        )
    return survivors


# -- BGP schedule -------------------------------------------------------------
def simulate_rounds(
    simulation: BgpSimulation, max_rounds: int, resume_from: Optional[dict] = None
) -> BgpResult:
    """The reference schedule: full Adj-RIB-In rebuild every round."""
    selected = simulation._seed_selected(resume_from)
    seen: dict[tuple, int] = {}
    history: list[dict] = []
    messages = 0

    for round_index in range(max_rounds + 1):
        state = simulation._state_key(selected)
        if simulation.keep_history:
            history.append(simulation._snapshot(selected))
        if state in seen:
            # A revisit after exactly one transition is a fixpoint
            # (the state mapped to itself); a longer period is a
            # persistent oscillation.
            period = round_index - seen[state]
            converged = period == 1
            return BgpResult(
                converged=converged,
                oscillating=not converged,
                rounds=round_index,
                period=0 if converged else period,
                detected_period=period,
                selected=selected,
                history=history,
                session_warnings=list(simulation.warnings),
                messages=messages,
            )
        seen[state] = round_index

        rib_in: dict[str, dict] = {name: {} for name in simulation.network.machines}
        for name, session_list in simulation.sessions.items():
            for session in session_list:
                for prefix, route in selected.get(name, {}).items():
                    if not can_export(simulation, route, session):
                        continue
                    advert = export(simulation, name, route, session)
                    imported = import_route(simulation, session.peer, name, advert, session)
                    messages += 1
                    if imported is not None:
                        rib_in[session.peer][(name, prefix)] = imported

        new_selected: dict[str, dict] = {}
        for name, device in simulation.network.machines.items():
            if device.bgp is None:
                continue
            candidates_by_prefix: dict = {}
            for prefix, route in simulation.local_routes.get(name, {}).items():
                candidates_by_prefix.setdefault(prefix, []).append(route)
            for (_, prefix), route in rib_in.get(name, {}).items():
                candidates_by_prefix.setdefault(prefix, []).append(route)
            table = {}
            for prefix, candidates in candidates_by_prefix.items():
                best = decide(simulation, name, candidates)
                if best is not None:
                    table[prefix] = best
            new_selected[name] = table
        selected = new_selected

    return BgpResult(
        converged=False,
        oscillating=False,
        rounds=max_rounds,
        selected=selected,
        history=history,
        session_warnings=list(simulation.warnings),
        messages=messages,
    )


def _rebuild_from_scratch(igp: IgpState, network=None) -> None:
    """``IgpState.rebuild`` with every cache dropped: the IGP oracle."""
    igp.__init__(network if network is not None else igp.network)


def _patched(swaps: list[tuple[type, str, object]]):
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in swaps]
    for owner, name, value in swaps:
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


#: The per-step functions, as (class, attribute, oracle) swaps.
_STEPS = [
    (BgpSimulation, "decide", decide),
    (BgpSimulation, "_med_elimination", staticmethod(med_elimination)),
    (BgpSimulation, "_export", export),
    (BgpSimulation, "_import_policy", import_policy),
    (IgpState, "_compute_routes", compute_routes),
    (IgpState, "cost_to_address", cost_to_address),
    (EmulatedNetwork, "owner_of", owner_of),
]


@contextlib.contextmanager
def oracle_steps():
    """Run the event schedule on the oracle per-step functions inside
    the block: the same schedule, the pre-integer steps."""
    yield from _patched(_STEPS)


@contextlib.contextmanager
def reference_control_plane():
    """Run the oracles in place of the fast paths inside the block.

    ``BgpSimulation.run`` schedules with :func:`simulate_rounds`,
    ``IgpState.rebuild`` re-initialises the state instead of
    invalidating incrementally, and the per-step functions are the
    oracle ones.  Labs keep whatever engine objects they hold, so a lab
    must be booted *and* driven inside the block for its whole control
    plane to be the reference one.
    """
    yield from _patched(
        _STEPS
        + [
            (BgpSimulation, "_simulate_events", simulate_rounds),
            (IgpState, "rebuild", _rebuild_from_scratch),
        ]
    )
