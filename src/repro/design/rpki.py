"""RPKI service overlay (§3.3).

The RPKI case study configures "a set of CA servers to which address
space is assigned, publication points where the data are made available
and a distribution hierarchy".  The input graph carries the service
nodes (``service`` attribute) and labelled relationship edges
(``ca_parent``, ``publishes_to``, ``fetches_from``, ``rtr_feed``); the
design rule lifts exactly those into a dedicated overlay and assigns
the certificate-resource attributes each daemon's configuration needs:
each CA receives a slice of its parent's address space, producing the
ROA payloads published at its publication point.
"""

from __future__ import annotations

import ipaddress

from repro.anm import AbstractNetworkModel, OverlayGraph
from repro.exceptions import DesignError

#: Relationship edge labels recognised from the input graph.
RPKI_EDGE_TYPES = ("ca_parent", "publishes_to", "fetches_from", "rtr_feed")

#: Address space assigned to the root CA by default.
DEFAULT_ROOT_SPACE = "10.0.0.0/8"


def build_rpki(
    anm: AbstractNetworkModel,
    root_space: str = DEFAULT_ROOT_SPACE,
) -> OverlayGraph:
    """Create the RPKI overlay from the input graph's labelled edges."""
    g_in = anm["input"]
    g_rpki = anm.add_overlay("rpki", directed=True)

    service_edges = [
        edge for edge in g_in.edges() if edge.get("type") in RPKI_EDGE_TYPES
    ]
    if not service_edges:
        return g_rpki

    for edge in service_edges:
        for endpoint in (edge.src, edge.dst):
            if not g_rpki.has_node(endpoint):
                g_rpki.add_node(endpoint, retain=["asn", "device_type", "service", "ca_root"])
        # Orient each relationship: child -> parent, ca -> publication
        # point, cache -> publication point, router -> cache.  The
        # input graph is undirected, so orientation comes from explicit
        # tail/head edge attributes when present.
        tail, head = edge.get("tail"), edge.get("head")
        if tail is None or head is None:
            tail, head = edge.src.node_id, edge.dst.node_id
        g_rpki.add_edge(tail, head, type=edge.get("type"))

    _assign_ca_resources(g_rpki, root_space)
    return g_rpki


def _assign_ca_resources(g_rpki: OverlayGraph, root_space: str) -> None:
    """Slice the root's address space down the CA hierarchy."""
    cas = [node for node in g_rpki if node.service == "rpki_ca"]
    roots = [node for node in cas if node.ca_root]
    if not roots:
        if cas:
            raise DesignError("RPKI graph has CAs but no root (ca_root=True)")
        return
    root = roots[0]
    root.resources = [str(ipaddress.ip_network(root_space))]

    def children_of(parent):
        return sorted(
            (
                edge.src
                for edge in parent.edges(type="ca_parent")
                if edge.dst == parent
            ),
            key=lambda node: str(node.node_id),
        )

    frontier = [root]
    while frontier:
        parent = frontier.pop(0)
        children = children_of(parent)
        if not children:
            continue
        parent_space = ipaddress.ip_network(parent.resources[0])
        extra_bits = max(1, (len(children) - 1).bit_length())
        slices = list(parent_space.subnets(prefixlen_diff=extra_bits))
        for child, space in zip(children, slices):
            child.resources = [str(space)]
            frontier.append(child)

    # Each CA publishes ROAs for its resources under its own ASN.
    for ca_node in cas:
        if ca_node.resources:
            ca_node.roas = [
                {"prefix": prefix, "asn": ca_node.asn, "max_length": 24}
                for prefix in ca_node.resources
            ]


def publication_point_of(g_rpki: OverlayGraph, ca_node):
    """The publication point a CA publishes to, or ``None``."""
    if not g_rpki.has_node(ca_node):
        return None
    for edge in g_rpki.node(ca_node).edges(type="publishes_to"):
        if edge.src == ca_node:
            return edge.dst
    return None
