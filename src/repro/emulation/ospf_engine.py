"""Link-state IGP engine: multi-area SPF over the emulated fabric.

OSPF adjacency follows the protocol's actual activation rules:

* two machines on a shared segment become adjacent when *both*
  advertise that segment's subnet in their OSPF configuration
  (``network ... area ...`` statements), **and the area numbers
  match** — a mismatched area is a real-world non-adjacency;
* inter-AS links are excluded automatically (nobody advertises them)
  without the engine ever knowing about ASes;
* C-BGP-style labs, which have weightless abstract links, instead
  declare an explicit ``igp_domain`` per node (treated as area 0).

Routing follows the OSPF area model: intra-area routes come from the
per-area shortest-path tree; inter-area destinations are reached
through area border routers (ABRs), always transiting the backbone
(area 0) — route metric = cost to the ABR plus the ABR's cost onward,
exactly the summary-LSA arithmetic.

Routes are computed lazily per source machine (Dijkstra on demand,
cached), and a source only ever looks at its own IGP domain — its
connected component of the union of the area adjacencies — never at
the rest of the lab, which keeps thousand-router labs of many small
domains (the NREN model) workable.

When the fabric changes under a running lab, :meth:`IgpState.rebuild`
diffs the old and new adjacency and drops only the cached SPF runs
whose shortest-path DAG could be affected — a changed edge endpoint the
source could previously reach — plus the route tables that *consulted*
one of the dropped runs (tracked as explicit dependencies while each
table is computed).  A link event between two leaf routers leaves every
other router's SPF and routing table untouched.  The oracle this is
checked against is a fresh :class:`IgpState` built on the post-change
network: the differential tests (``tests/emulation/control_plane_oracle.py``
and ``tests/property/test_fast_path_differential.py``) assert identical
RIBs under random fault schedules.
"""

from __future__ import annotations

import heapq
import ipaddress
from dataclasses import dataclass
from typing import Optional

from repro.emulation.network import EmulatedNetwork
from repro.observability import metric_inc

BACKBONE = 0


@dataclass(frozen=True)
class IgpRoute:
    """One IGP route entry: prefix via next hop with a metric."""

    prefix: ipaddress.IPv4Network
    next_hop: str  # machine name
    metric: int
    advertiser: str  # machine that advertised the prefix
    route_type: str = "intra"  # intra | inter


class IgpState:
    """Per-lab IGP view: adjacency, distances, and routes."""

    def __init__(self, network: EmulatedNetwork):
        self.network = network
        #: per-area adjacency: area -> machine -> [(neighbor, cost out)]
        self.area_adjacency: dict[int, dict[str, list[tuple[str, int]]]] = {}
        #: areas each machine participates in
        self.machine_areas: dict[str, set[int]] = {}
        #: (source, area) -> (distance, first_hop); the cached SPF runs.
        self._spf_cache: dict[tuple[str, int], tuple[dict, dict]] = {}
        #: source -> cached routing table.
        self._routes_cache: dict[str, dict] = {}
        #: source -> the SPF keys its routing table consulted.
        self._route_deps: dict[str, frozenset] = {}
        #: source -> connected-network fingerprint at compute time.
        self._route_connected: dict[str, tuple] = {}
        #: source -> what cost_to_address rendered for it; lives and
        #: dies with the source's entry in the routes cache.
        self._address_views: dict[str, _AddressView] = {}
        #: machine -> its IGP domain: the connected component of the
        #: union of area adjacencies, members in fabric order.
        self._component: dict[str, tuple[str, ...]] = {}
        self._dep_collector: Optional[set] = None
        #: SPF cache hits since the last flush_metrics().
        self._spf_cache_hits = 0
        #: Machines whose IGP view may differ from the last time the
        #: BGP layer consumed this set (see consume_dirty_sources).
        self._bgp_dirty_sources: set[str] = set(network.machines)
        self._build_adjacency()

    def rebuild(self, network: Optional[EmulatedNetwork] = None) -> None:
        """Accept a topology delta: recompute adjacency, refresh caches.

        The adjacency delta is computed first and only the affected SPF
        runs and dependent route tables are invalidated — what lets a
        fault schedule reconverge a lab without re-running Dijkstra
        everywhere.
        """
        old_adjacency = self.area_adjacency
        old_areas = self.machine_areas
        old_components = self._component
        old_prefixes = self._advertised_fingerprint()
        if network is not None:
            self.network = network
        self.area_adjacency = {}
        self.machine_areas = {}
        self._build_adjacency()
        metric_inc("ospf.rebuilds")
        self._invalidate_incremental(
            old_adjacency, old_areas, old_prefixes, old_components
        )

    def _advertised_fingerprint(self) -> dict[str, tuple]:
        """Per-machine advertised prefixes — route tables depend on all."""
        return {
            name: tuple(self.advertised_prefixes(device))
            for name, device in self.network.machines.items()
        }

    def _invalidate_incremental(
        self, old_adjacency, old_areas, old_prefixes, old_components
    ) -> None:
        """Drop exactly the cached state the adjacency delta can touch.

        A cached SPF run ``(source, area)`` survives unless one of the
        changed endpoints in that area was reachable from the source —
        any path to newly connected territory must cross a changed edge
        whose nearer endpoint was previously reachable, so surviving
        runs are provably identical.  Route tables survive unless a run
        they consulted was dropped, the source's IGP domain gained or
        lost a member (a table only consulted runs inside the domain it
        was computed in), the source's own connected networks changed,
        or the lab's structure (area membership / advertised prefixes)
        shifted, which reshapes ABR sets globally.
        """
        changed: dict[int, set[str]] = {}
        for area in set(old_adjacency) | set(self.area_adjacency):
            before = old_adjacency.get(area, {})
            after = self.area_adjacency.get(area, {})
            endpoints = {
                machine
                for machine in set(before) | set(after)
                if before.get(machine) != after.get(machine)
            }
            if endpoints:
                changed[area] = endpoints

        dropped: set[tuple[str, int]] = set()
        for key, (distance, _) in list(self._spf_cache.items()):
            source, area = key
            endpoints = changed.get(area)
            if endpoints is None:
                continue
            if source in endpoints or any(e in distance for e in endpoints):
                dropped.add(key)
                del self._spf_cache[key]
        metric_inc("ospf.spf_invalidated", len(dropped))
        metric_inc("ospf.spf_retained", len(self._spf_cache))

        structural = (
            old_areas != self.machine_areas
            or old_prefixes != self._advertised_fingerprint()
        )
        invalidated_routes = 0
        for source in list(self._routes_cache):
            if structural or source not in self.network.machines:
                stale = True
            elif self._route_deps.get(source, frozenset()) & dropped:
                stale = True
            elif self._component.get(source) != old_components.get(source):
                stale = True
            else:
                stale = (
                    self._local_fingerprint(source)
                    != self._route_connected.get(source)
                )
            if stale:
                invalidated_routes += 1
                del self._routes_cache[source]
                self._route_deps.pop(source, None)
                self._route_connected.pop(source, None)
                self._address_views.pop(source, None)
        metric_inc("ospf.routes_invalidated", invalidated_routes)
        metric_inc("ospf.routes_retained", len(self._routes_cache))
        # total cache entries dropped by this topology event
        metric_inc("ospf.invalidations", len(dropped) + invalidated_routes)
        # Anything not in the routes cache after invalidation — dropped
        # just now or never computed — may see a different IGP; every
        # retained source's table is provably identical.
        self._bgp_dirty_sources |= (
            set(self.network.machines) - set(self._routes_cache)
        )

    def consume_dirty_sources(self) -> set[str]:
        """Machines whose IGP view may have changed since the last call.

        The BGP layer keys its incremental resume on this set: a
        machine listed here must re-run its decision process, while
        every other machine's next-hop costs and reachability are
        guaranteed unchanged.  Consuming clears the accumulator, so
        successive ``rebuild`` calls between two consumers add up
        rather than overwrite.
        """
        dirty = self._bgp_dirty_sources
        self._bgp_dirty_sources = set()
        return dirty

    # -- topology --------------------------------------------------------------
    def _build_adjacency(self) -> None:
        adjacency: dict[int, dict[str, dict[str, int]]] = {}
        for segment in self.network.segments.values():
            members = segment.members
            for device, interface in members:
                area = self._advertised_area(device, interface)
                if area is None:
                    continue
                for other_device, other_interface in members:
                    if other_device.name == device.name:
                        continue
                    other_area = self._advertised_area(other_device, other_interface)
                    if other_area is None or other_area != area:
                        continue
                    if not self._same_domain(device, other_device):
                        continue
                    cost = interface.ospf_cost or 1
                    current = adjacency.setdefault(area, {}).setdefault(
                        device.name, {}
                    )
                    if (
                        other_device.name not in current
                        or cost < current[other_device.name]
                    ):
                        current[other_device.name] = cost
        self.area_adjacency = {
            area: {
                name: sorted(neighbors.items())
                for name, neighbors in machines.items()
            }
            for area, machines in adjacency.items()
        }
        for name, device in self.network.machines.items():
            areas = {
                area
                for area, machines in self.area_adjacency.items()
                if name in machines
            }
            areas.update(area for _, area in self.advertised_prefixes(device))
            if areas:
                self.machine_areas[name] = areas
        self._component = self._components()

    def _components(self) -> dict[str, tuple[str, ...]]:
        """Connected components of the union of the area adjacencies."""
        label: dict[str, str] = {}
        for machines in self.area_adjacency.values():
            for root in machines:
                if root in label:
                    continue
                label[root] = root
                stack = [root]
                while stack:
                    machine = stack.pop()
                    for area_machines in self.area_adjacency.values():
                        for neighbor, _ in area_machines.get(machine, ()):
                            if neighbor not in label:
                                label[neighbor] = root
                                stack.append(neighbor)
        members: dict[str, list[str]] = {}
        for name in self.network.machines:
            if name in label:
                members.setdefault(label[name], []).append(name)
        component: dict[str, tuple[str, ...]] = {}
        for names in members.values():
            shared = tuple(names)
            for name in names:
                component[name] = shared
        return component

    @staticmethod
    def _advertised_area(device, interface) -> Optional[int]:
        """The area the device runs a link-state IGP in on this interface.

        OSPF activation follows the ``network ... area`` statements;
        IS-IS (when no OSPF is configured) activates on every interface
        with an ``isis metric``, treated as single-level (area 0).
        """
        if device.ospf is not None:
            network = interface.network
            if network is None:
                # C-BGP style unnumbered link: active when in a domain.
                return BACKBONE if device.igp_domain is not None else None
            for advertised, area in device.ospf.networks:
                if network == advertised or advertised.supernet_of(network):
                    return area
            return None
        if device.isis is not None:
            if interface.name in device.isis.interface_metrics:
                return BACKBONE
        return None

    @staticmethod
    def advertised_prefixes(device):
        """(prefix, area) pairs this device injects into the IGP."""
        if device.ospf is not None:
            return list(device.ospf.networks)
        if device.isis is not None:
            prefixes = []
            for interface in device.interfaces:
                if interface.is_management:
                    continue
                if interface.is_loopback or interface.name in device.isis.interface_metrics:
                    if interface.network is not None:
                        prefixes.append((interface.network, BACKBONE))
            return prefixes
        return []

    @staticmethod
    def _same_domain(device, other_device) -> bool:
        if device.igp_domain is not None or other_device.igp_domain is not None:
            return device.igp_domain == other_device.igp_domain
        return True

    def areas(self) -> list[int]:
        """All areas present in the lab, backbone first."""
        return sorted(self.area_adjacency)

    def neighbors(self, machine: str, area: Optional[int] = None) -> list[tuple[str, int]]:
        """OSPF-adjacent (neighbor, cost) pairs, across areas by default."""
        if area is not None:
            return list(self.area_adjacency.get(area, {}).get(machine, []))
        merged: dict[str, int] = {}
        for machines in self.area_adjacency.values():
            for neighbor, cost in machines.get(machine, []):
                if neighbor not in merged or cost < merged[neighbor]:
                    merged[neighbor] = cost
        return sorted(merged.items())

    def area_border_routers(self, area: int) -> list[str]:
        """Machines participating in both ``area`` and the backbone."""
        if area == BACKBONE:
            return sorted(
                name
                for name, areas in self.machine_areas.items()
                if BACKBONE in areas
            )
        return sorted(
            name
            for name, areas in self.machine_areas.items()
            if area in areas and BACKBONE in areas
        )

    # -- SPF ---------------------------------------------------------------------
    def spf(self, source: str, area: int = BACKBONE) -> tuple[dict, dict]:
        """Dijkstra within one area: (distance, first-hop) per machine.

        Counted as ``ospf.spf_runs`` — the body only runs on a cache
        miss, so the metric is the number of actual Dijkstra runs.
        While a routing table is being computed, every consulted key is
        recorded as that table's dependency for incremental
        invalidation.
        """
        key = (source, area)
        if self._dep_collector is not None:
            self._dep_collector.add(key)
        cached = self._spf_cache.get(key)
        if cached is not None:
            self._spf_cache_hits += 1
            return cached
        metric_inc("ospf.spf_runs")
        graph = self.area_adjacency.get(area, {})
        distance = {source: 0}
        first_hop: dict[str, str] = {}
        heap: list[tuple[int, str, Optional[str]]] = [(0, source, None)]
        visited: set[str] = set()
        while heap:
            dist, machine, via = heapq.heappop(heap)
            if machine in visited:
                continue
            visited.add(machine)
            if via is not None:
                first_hop[machine] = via
            for neighbor, cost in graph.get(machine, []):
                candidate = dist + cost
                if candidate < distance.get(neighbor, float("inf")):
                    distance[neighbor] = candidate
                    heapq.heappush(
                        heap,
                        (candidate, neighbor, via if via is not None else neighbor),
                    )
        self._spf_cache[key] = (distance, first_hop)
        return distance, first_hop

    def distance(self, source: str, target: str) -> Optional[int]:
        """Best IGP distance source -> target across the area model."""
        best: Optional[int] = None
        for _, metric, _ in self._machine_paths(source, target):
            if best is None or metric < best:
                best = metric
        self.flush_metrics()
        return best

    def flush_metrics(self) -> None:
        """Report the SPF cache hits counted since the last call.

        ``spf`` is probed once per (source, target) while a routing
        table is computed, so the hits are counted in a plain integer
        and handed to the registry at the end of the computation that
        caused them, not once per probe.
        """
        if self._spf_cache_hits:
            metric_inc("ospf.spf_cache_hits", self._spf_cache_hits)
            self._spf_cache_hits = 0

    def _machine_paths(self, source: str, target: str):
        """(area chain, metric, first hop) options from source to target.

        Intra-area when the two machines share an area; otherwise
        through the backbone via ABRs, per the OSPF area model.
        """
        source_areas = self.machine_areas.get(source, set())
        target_areas = self.machine_areas.get(target, set())
        options = []
        for area in source_areas & target_areas:
            distances, hops = self.spf(source, area)
            if target in distances and target != source:
                options.append(("intra", int(distances[target]), hops.get(target)))
            elif target == source:
                options.append(("intra", 0, None))
        if options or source == target:
            return options

        # Inter-area: source area -> backbone -> target area.
        for source_area in source_areas:
            for target_area in target_areas:
                option = self._inter_area(source, source_area, target, target_area)
                if option is not None:
                    options.append(option)
        return options

    def _inter_area(self, source, source_area, target, target_area):
        # Note: source_area may equal target_area — a *partitioned*
        # non-backbone area heals through the backbone, each fragment
        # reaching it via its own ABR.  (The intra-area option, when it
        # exists, short-circuits before this path is ever tried.)
        if source_area == target_area == BACKBONE:
            return None
        first_leg = [(source, 0, None)]
        if source_area != BACKBONE:
            distances, hops = self.spf(source, source_area)
            first_leg = [
                (abr, int(distances[abr]), hops.get(abr))
                for abr in self.area_border_routers(source_area)
                if abr in distances
            ]
        best = None
        backbone_cache = {}
        for abr, cost_to_abr, first_hop in first_leg:
            if abr not in backbone_cache:
                backbone_cache[abr] = self.spf(abr, BACKBONE)
            backbone_dist, backbone_hops = backbone_cache[abr]
            if target_area == BACKBONE:
                exits = [(target, None)]
            else:
                exits = [(exit_abr, exit_abr) for exit_abr in self.area_border_routers(target_area)]
            for backbone_target, exit_abr in exits:
                if backbone_target == abr:
                    middle = 0
                elif backbone_target in backbone_dist:
                    middle = int(backbone_dist[backbone_target])
                else:
                    continue
                if exit_abr is None:
                    tail = 0
                else:
                    exit_dist, _ = self.spf(exit_abr, target_area)
                    if target not in exit_dist and exit_abr != target:
                        continue
                    tail = int(exit_dist.get(target, 0))
                total = cost_to_abr + middle + tail
                hop = first_hop
                if hop is None:  # source itself is the entry ABR
                    hop = backbone_hops.get(backbone_target)
                if hop is None and exit_abr is not None and exit_abr != source:
                    exit_dist, exit_hops = self.spf(source, target_area)
                    hop = exit_hops.get(target)
                if best is None or total < best[1]:
                    best = ("inter", total, hop)
        return best

    def routes(self, source: str) -> dict[ipaddress.IPv4Network, IgpRoute]:
        """The IGP routing table of ``source``.

        Intra-area routes for every prefix advertised in an area the
        source participates in; inter-area routes (via ABRs and the
        backbone) for the rest.  For each prefix the lowest-metric
        entry wins, ties broken by advertiser name for determinism.
        """
        cached = self._routes_cache.get(source)
        if cached is not None:
            metric_inc("ospf.route_cache_hits")
            return cached
        metric_inc("ospf.route_tables_computed")
        deps: set[tuple[str, int]] = set()
        previous_collector = self._dep_collector
        self._dep_collector = deps
        try:
            table = self._compute_routes(source)
        finally:
            self._dep_collector = previous_collector
            self.flush_metrics()
        if previous_collector is not None:
            previous_collector.update(deps)
        self._routes_cache[source] = table
        self._route_deps[source] = frozenset(deps)
        self._route_connected[source] = self._local_fingerprint(source)
        return table

    def _local_fingerprint(self, source: str) -> tuple:
        """Everything ``cost_to_address`` reads from the source itself:
        its connected networks and its owned addresses.  An address
        move that keeps the prefix intact must still invalidate the
        source's cached answers."""
        device = self.network.device(source)
        return (
            tuple(self.network.connected_networks(source)),
            tuple(sorted(str(a) for a in device.addresses())),
        )

    def _compute_routes(self, source: str) -> dict[ipaddress.IPv4Network, IgpRoute]:
        connected = set(self.network.connected_networks(source))
        table: dict[ipaddress.IPv4Network, IgpRoute] = {}
        machines = self.network.machines
        # Only the source's own IGP domain can hold a path; its members
        # come in fabric order, which fixes the table's prefix order.
        for machine in self._component.get(source, ()):
            if machine == source:
                continue
            paths = self._machine_paths(source, machine)
            if not paths:
                continue
            route_type, metric, next_hop = min(
                paths, key=lambda option: (option[1], option[0])
            )
            if next_hop is None:
                continue
            for prefix, _ in self.advertised_prefixes(machines[machine]):
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

    def cost_to_address(self, source: str, address) -> Optional[int]:
        """IGP cost from ``source`` to an address, 0 when connected.

        The BGP decision process uses this as the "lowest IGP metric to
        the next hop" step; ``None`` means the next hop is unresolvable
        and the route is invalid.  Answers are memoised per source and
        dropped exactly when that source's route table is invalidated,
        so repeated resolutions across reconvergence cycles are O(1)
        for every machine the topology delta did not touch.  What a
        lookup matches against — the source's own addresses, its
        connected subnets and its route table — is rendered down to
        integer masks once per source (the route table only when a
        lookup gets that far), so a miss is shift-and-compare: the
        decision process resolves thousands of next hops against the
        same source during one reconvergence.
        """
        if not isinstance(
            address, (ipaddress.IPv4Address, ipaddress.IPv6Address)
        ):
            address = ipaddress.ip_address(str(address))
        view = self._address_views.get(source)
        if view is None:
            view = self._address_views[source] = _AddressView(
                self.network.device(source)
            )
        try:
            return view.memo[address]
        except KeyError:
            pass
        addr_int = int(address)
        version = address.version
        best: Optional[int] = None
        if any(
            mask_version == version and (addr_int >> shift) == net
            for mask_version, shift, net in view.local
        ):
            best = 0
        else:
            if view.routes is None:
                view.routes = [
                    _mask(prefix) + (route.metric,)
                    for prefix, route in self.routes(source).items()
                ]
            for route_version, shift, net, metric in view.routes:
                if route_version == version and (addr_int >> shift) == net:
                    if best is None or metric < best:
                        best = metric
        view.memo[address] = best
        return best


def _mask(prefix) -> tuple[int, int, int]:
    """A network as (version, shift, network >> shift): an address is
    inside when the same shift of its integer gives the same value."""
    shift = prefix.max_prefixlen - prefix.prefixlen
    return prefix.version, shift, int(prefix.network_address) >> shift


class _AddressView:
    """What ``cost_to_address`` matches against for one source."""

    __slots__ = ("memo", "local", "routes")

    def __init__(self, device):
        #: address -> cost, the answers given so far.
        self.memo: dict = {}
        #: Masks of the zero-cost destinations: the device's connected
        #: subnets (its own addresses lie inside them) and any address
        #: configured without a prefix length.
        self.local: list[tuple[int, int, int]] = []
        for interface in device.interfaces:
            if interface.is_management:
                continue
            if interface.network is not None:
                self.local.append(_mask(interface.network))
            elif interface.ip_address is not None:
                address = interface.ip_address
                self.local.append((address.version, 0, int(address)))
        #: The route table as (mask..., metric), rendered on first use.
        self.routes: Optional[list] = None
