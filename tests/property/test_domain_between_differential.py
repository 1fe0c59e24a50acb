"""Differential test: adjacency-indexed ``domain_between`` ≡ the accessor scan.

``reference_domain_between`` is the implementation the compilers used
before lookups moved onto the raw adjacency, kept verbatim (together
with the ``neighbors()`` it called) as the oracle.  The random graphs
mix everything that decides the answer: point-to-point links, chained
switches (``switch_domain_map``), multi-access domains, a direct link
beside a shared switch, and neighbours of a type that is never
addressed.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anm import AbstractNetworkModel
from repro.design import build_ipv4, build_phy, domain_between

DEVICE_TYPES = ("router", "router", "server", "switch", "switch", "unmanaged")


def reference_neighbors(node):
    seen = []
    for edge in node.edges():
        other = edge.dst if edge.src_id == node.node_id else edge.src
        if other.node_id == node.node_id:
            continue
        seen.append(other)
    return seen


def reference_domain_between(g_ip, device, neighbor):
    device_id = getattr(device, "node_id", device)
    neighbor_id = getattr(neighbor, "node_id", neighbor)
    switch_map = g_ip.data.switch_domain_map or {}
    if neighbor_id in switch_map:
        return g_ip.node(switch_map[neighbor_id])
    if device_id in switch_map:
        return g_ip.node(switch_map[device_id])
    if not g_ip.has_node(device_id):
        return None
    for candidate in reference_neighbors(g_ip.node(device_id)):
        if not candidate.collision_domain:
            continue
        if any(other.node_id == neighbor_id for other in reference_neighbors(candidate)):
            return candidate
    return None


@st.composite
def input_graphs(draw):
    size = draw(st.integers(min_value=2, max_value=9))
    graph = nx.Graph()
    for index in range(size):
        graph.add_node(
            "n%d" % index,
            device_type=draw(st.sampled_from(DEVICE_TYPES)),
            asn=draw(st.integers(min_value=1, max_value=2)),
        )
    # At least one addressed device, so allocation has an AS to work on.
    graph.nodes["n0"]["device_type"] = "router"
    pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * size)):
        graph.add_edge("n%d" % a, "n%d" % b, type="physical")
    return graph


@settings(max_examples=150, deadline=None)
@given(input_graphs())
def test_domain_between_matches_the_accessor_scan(graph):
    # Straight into the model: the loader would reject the unaddressed type.
    anm = AbstractNetworkModel()
    anm.add_overlay("input", graph=graph)
    build_phy(anm)
    g_ip = build_ipv4(anm)
    ids = list(graph.nodes) + [node.node_id for node in g_ip] + ["absent"]
    for device_id in ids:
        for neighbor_id in ids:
            expected = reference_domain_between(g_ip, device_id, neighbor_id)
            actual = domain_between(g_ip, device_id, neighbor_id)
            assert (actual and actual.node_id) == (expected and expected.node_id), (
                device_id, neighbor_id,
            )
