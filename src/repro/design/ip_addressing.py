"""IPv4 addressing overlay (§5.2.4, §5.3).

The addressing overlay is where the attribute-based functions earn
their keep: every point-to-point link is *split* to insert a collision
domain node, and each connected block of switches is *aggregated* into
a single collision domain.  Each collision domain then receives a
subnet from its AS's infrastructure block, each attached interface a
host address, and each router a loopback /32 — all deterministic, so a
rebuild assigns identical addresses (repeatable experiments, §2).

Results live in the ``ipv4`` overlay:

* collision-domain nodes carry ``collision_domain=True``, ``subnet``
  and ``asn``;
* device-to-domain edges carry ``ip_address`` and ``prefixlen``;
* router nodes carry ``loopback``;
* the overlay data records ``infra_blocks`` and ``loopback_blocks``
  per ASN (§5.2.1).
"""

from __future__ import annotations

import networkx as nx

from repro.addressing import BaseAllocator, PerAsnAllocator
from repro.anm import AbstractNetworkModel, OverlayGraph, aggregate_nodes, split, unwrap_graph
from repro.exceptions import DesignError
from repro.observability import metric_inc

#: Device types that participate in addressing.
ADDRESSED_TYPES = ("router", "server", "external")


#: Default IPv6 blocks: the documentation prefix, split per AS.
DEFAULT_INFRA_BLOCK_V6 = "2001:db8::/32"
DEFAULT_LOOPBACK_BLOCK_V6 = "2001:db8:ffff::/48"

#: IPv6 convention: one /64 per collision domain, regardless of size.
IPV6_DOMAIN_PREFIXLEN = 64


def build_ipv4(
    anm: AbstractNetworkModel,
    allocator: BaseAllocator | None = None,
) -> OverlayGraph:
    """Create the IPv4 addressing overlay from the physical overlay."""
    return _build_ip_overlay(anm, "ipv4", allocator or PerAsnAllocator())


def build_ipv6(
    anm: AbstractNetworkModel,
    allocator: BaseAllocator | None = None,
) -> OverlayGraph:
    """Create the IPv6 addressing overlay from the physical overlay.

    Same structure as the IPv4 overlay — collision domains, per-AS
    blocks, deterministic assignment — with IPv6 conventions: every
    domain receives a /64 and router loopbacks are /128s from the
    per-AS loopback block.  Both overlays can coexist (dual stack);
    the compiler emits whichever addressing overlays were designed.
    """
    allocator = allocator or PerAsnAllocator(
        infra_block=DEFAULT_INFRA_BLOCK_V6,
        loopback_block=DEFAULT_LOOPBACK_BLOCK_V6,
        min_infra_prefixlen=48,
    )
    return _build_ip_overlay(
        anm, "ipv6", allocator, fixed_prefixlen=IPV6_DOMAIN_PREFIXLEN
    )


def _build_ip_overlay(
    anm: AbstractNetworkModel,
    overlay_id: str,
    allocator: BaseAllocator,
    fixed_prefixlen: int | None = None,
) -> OverlayGraph:
    g_phy = anm["phy"]
    g_ip = anm.add_overlay(overlay_id)
    devices = [
        node for node in g_phy if node.get("device_type") in ADDRESSED_TYPES
    ]
    g_ip.add_nodes_from(devices, retain=["asn", "device_type"])
    g_ip.add_nodes_from(g_phy.switches(), retain=["asn", "device_type"])
    g_ip.add_edges_from(
        edge
        for edge in g_phy.edges()
        if g_ip.has_node(edge.src) and g_ip.has_node(edge.dst)
    )

    _form_collision_domains(g_ip)
    _allocate(g_ip, allocator, fixed_prefixlen=fixed_prefixlen)
    return g_ip


def _form_collision_domains(g_ip: OverlayGraph) -> None:
    """Split point-to-point links and aggregate switch blocks (§5.2.4)."""
    point_to_point = [
        edge
        for edge in g_ip.edges()
        if not edge.src.is_switch() and not edge.dst.is_switch()
    ]
    for domain in split(g_ip, point_to_point, id_prefix="cd"):
        domain.collision_domain = True

    switch_domain_map: dict = {}
    switch_ids = [node.node_id for node in g_ip.nodes(device_type="switch")]
    if switch_ids:
        switch_subgraph = unwrap_graph(g_ip).subgraph(switch_ids)
        # Materialise before aggregating: aggregation mutates the graph
        # the component view iterates.
        for component in list(nx.connected_components(switch_subgraph)):
            members = sorted(component, key=str)
            survivor = aggregate_nodes(g_ip, members)
            survivor.collision_domain = True
            for member in members:
                switch_domain_map[member] = survivor.node_id
    g_ip.data.switch_domain_map = switch_domain_map


def _allocate(
    g_ip: OverlayGraph,
    allocator: BaseAllocator,
    fixed_prefixlen: int | None = None,
) -> None:
    devices = [node for node in g_ip if not node.collision_domain]
    asns = {node.asn for node in devices if node.asn is not None}
    if not asns:
        raise DesignError("no ASN-annotated devices to allocate addresses for")
    allocator.allocate_asn_blocks(asns)

    # Loopbacks: routers only, in (asn, node id) order.
    routers = sorted(
        (node for node in devices if node.device_type == "router"),
        key=lambda node: (node.asn, str(node.node_id)),
    )
    for router in routers:
        router.loopback = allocator.loopback_pool(router.asn).next_address()
        metric_inc("alloc.loopbacks_assigned")

    # Collision domains, in node-id order for determinism.
    domains = sorted(
        (node for node in g_ip if node.collision_domain),
        key=lambda node: str(node.node_id),
    )
    for domain in domains:
        attached = sorted(domain.neighbors(), key=lambda node: str(node.node_id))
        if not attached:
            continue
        domain_asn = min(node.asn for node in attached if node.asn is not None)
        domain.asn = domain_asn
        pool = allocator.infra_pool(domain_asn)
        if fixed_prefixlen is not None:
            subnet = pool.subnet(fixed_prefixlen)
        else:
            subnet = pool.subnet_for_hosts(len(attached))
        domain.subnet = subnet
        metric_inc("alloc.subnets_assigned")
        hosts = subnet.hosts()
        for device in attached:
            edge = g_ip.edge(device, domain)
            edge.ip_address = next(hosts)
            edge.prefixlen = subnet.prefixlen

    g_ip.data.infra_blocks = allocator.infra_blocks()
    g_ip.data.loopback_blocks = allocator.loopback_blocks()


def collision_domains(g_ip: OverlayGraph) -> list:
    """All collision-domain nodes of the addressing overlay."""
    return [node for node in g_ip if node.collision_domain]


def interface_address(g_ip: OverlayGraph, device, domain):
    """The (address, prefixlen) a device has on a collision domain."""
    edge = g_ip.edge(device, domain)
    return edge.ip_address, edge.prefixlen


def domain_between(g_ip: OverlayGraph, device, neighbor):
    """The collision domain realising the physical link device--neighbor.

    For a point-to-point link this is the node :func:`split` inserted;
    when ``neighbor`` is a switch it is the aggregated switch domain.
    Returns ``None`` when the link did not survive into the addressing
    overlay (for example a link between two unaddressed device types).

    Costs O(smaller of the two degrees): the lower-degree endpoint's
    adjacency is walked once and each collision domain on it is tested
    with one ``has_edge``, so the spokes of a star find their domain in
    O(1) from either end.  ``g_ip`` is an (undirected) addressing overlay.
    """
    device_id = getattr(device, "node_id", device)
    neighbor_id = getattr(neighbor, "node_id", neighbor)
    switch_map = g_ip.data.switch_domain_map or {}
    if neighbor_id in switch_map:
        return g_ip.node(switch_map[neighbor_id])
    if device_id in switch_map:
        return g_ip.node(switch_map[device_id])
    graph = unwrap_graph(g_ip)
    if device_id not in graph or neighbor_id not in graph:
        return None
    walked, other = device_id, neighbor_id
    if graph.degree(neighbor_id) < graph.degree(device_id):
        walked, other = neighbor_id, device_id
    node_data = graph.nodes
    shared = [
        domain_id
        for domain_id in graph.neighbors(walked)
        if domain_id != walked
        and domain_id != other
        and node_data[domain_id].get("collision_domain")
        and graph.has_edge(domain_id, other)
    ]
    if len(shared) > 1 and walked != device_id:
        # Several domains join the pair (a direct link beside a shared
        # switch): the device's own edge order picks, as it always has.
        shared = [domain_id for domain_id in graph.neighbors(device_id) if domain_id in shared]
    return g_ip.node(shared[0]) if shared else None
