"""Unit tests for iBGP designs: full mesh and route reflection (§7.1)."""

import pytest

from repro.design import (
    assign_route_reflectors_by_centrality,
    build_anm,
    build_ibgp,
    build_ibgp_full_mesh,
    build_ibgp_route_reflection,
    build_phy,
    ibgp_session_count,
)
from repro.loader import bad_gadget_topology, multi_as_topology, small_internet


def _phy_anm(graph):
    anm = build_anm(graph)
    build_phy(anm)
    return anm


def test_full_mesh_session_count(si_anm):
    """O(n^2): n(n-1) directed sessions per AS."""
    g_ibgp = si_anm["ibgp"]
    # AS20: 3 routers -> 6; AS100: 3 -> 6; AS300: 4 -> 12; singles: 0.
    assert g_ibgp.number_of_edges() == 6 + 6 + 12


def test_full_mesh_all_peer_sessions(si_anm):
    assert all(
        edge.session_type == "peer" for edge in si_anm["ibgp"].edges()
    )


def test_session_count_formula():
    assert ibgp_session_count(10) == 45
    assert ibgp_session_count(2) == 1
    assert ibgp_session_count(1) == 0


def test_no_cross_as_sessions(si_anm):
    for edge in si_anm["ibgp"].edges():
        assert edge.src.asn == edge.dst.asn


def test_route_reflection_hierarchy_built_from_rr_attribute():
    anm = _phy_anm(bad_gadget_topology())
    g_ibgp = build_ibgp_route_reflection(anm)
    down = [e for e in g_ibgp.edges() if e.session_type == "down"]
    up = [e for e in g_ibgp.edges() if e.session_type == "up"]
    peer = [e for e in g_ibgp.edges() if e.session_type == "peer"]
    # 3 clients, each with exactly one reflector (cluster-scoped).
    assert len(down) == 3 and len(up) == 3
    # rr full mesh: 3 pairs, both directions.
    assert len(peer) == 6


def test_route_reflection_cluster_scoping():
    anm = _phy_anm(bad_gadget_topology())
    g_ibgp = build_ibgp_route_reflection(anm)
    for edge in g_ibgp.edges(session_type="down"):
        assert edge.src.rr_cluster == edge.dst.rr_cluster


def test_route_reflection_without_clusters_connects_all_pairs():
    graph = multi_as_topology(n_ases=1, routers_per_as=5, seed=4)
    graph.nodes["as1r1"]["rr"] = True
    graph.nodes["as1r2"]["rr"] = True
    anm = _phy_anm(graph)
    g_ibgp = build_ibgp_route_reflection(anm)
    down = [e for e in g_ibgp.edges() if e.session_type == "down"]
    # 2 reflectors x 3 clients.
    assert len(down) == 6


def test_route_reflection_falls_back_to_mesh_without_rr():
    graph = multi_as_topology(n_ases=2, routers_per_as=3, seed=1)
    graph.nodes["as1r1"]["rr"] = True  # only AS 1 has a reflector
    anm = _phy_anm(graph)
    g_ibgp = build_ibgp_route_reflection(anm)
    as2_edges = [e for e in g_ibgp.edges() if e.src.asn == 2]
    assert all(e.session_type == "peer" for e in as2_edges)
    assert len(as2_edges) == 6  # 3 routers full mesh, directed


def test_build_ibgp_dispatches_on_rr_attribute():
    mesh_anm = _phy_anm(small_internet())
    assert all(e.session_type == "peer" for e in build_ibgp(mesh_anm).edges())
    rr_anm = _phy_anm(bad_gadget_topology())
    assert any(e.session_type == "down" for e in build_ibgp(rr_anm).edges())


def test_centrality_based_rr_assignment():
    graph = multi_as_topology(n_ases=2, routers_per_as=8, seed=6)
    anm = _phy_anm(graph)
    chosen = assign_route_reflectors_by_centrality(anm, fraction=0.25)
    # At least one per AS, marked in place.
    asns = {node.asn for node in chosen}
    assert asns == {1, 2}
    assert all(node.rr for node in chosen)
    # The reflector set contains a maximal-degree router of each AS.
    g_phy = anm["phy"]
    for asn in asns:
        members = g_phy.routers(asn=asn)
        best_degree = max(g_phy.degree(m) for m in members)
        chosen_degrees = [g_phy.degree(n) for n in chosen if n.asn == asn]
        assert max(chosen_degrees) == best_degree


def test_centrality_rr_reduces_sessions():
    graph = multi_as_topology(n_ases=1, routers_per_as=20, seed=8)
    anm = _phy_anm(graph)
    mesh_edges = build_ibgp_full_mesh(anm).number_of_edges()
    assign_route_reflectors_by_centrality(anm, fraction=0.1)
    rr_edges = build_ibgp_route_reflection(anm).number_of_edges()
    assert rr_edges < mesh_edges


def test_centrality_minimum_respected():
    graph = multi_as_topology(n_ases=1, routers_per_as=3, seed=2)
    anm = _phy_anm(graph)
    chosen = assign_route_reflectors_by_centrality(anm, fraction=0.0, minimum=2)
    assert len(chosen) == 2


def test_full_mesh_edge_order_is_that_of_eq2():
    """Grouping by ASN leaves the edge list of the N x N comprehension, order included."""
    import networkx as nx

    graph = nx.Graph()
    # ASes interleaved in node order, ids out of string order within an AS
    for name, asn in [
        ("r9", 1), ("r2", 2), ("r5", 3), ("r1", 1), ("r8", 3),
        ("r3", 2), ("r7", 1), ("r4", 3), ("r6", 2), ("r0", 1),
    ]:
        graph.add_node(name, asn=asn, device_type="router")
    nx.add_path(graph, list(graph.nodes))
    anm = _phy_anm(graph)
    routers = anm["phy"].routers()

    expected = nx.DiGraph()
    expected.add_nodes_from(node.node_id for node in routers)
    for src, dst in [
        (src, dst)
        for src in routers
        for dst in routers
        if src.asn == dst.asn and str(src.node_id) < str(dst.node_id)
    ]:
        expected.add_edge(src.node_id, dst.node_id)
        expected.add_edge(dst.node_id, src.node_id)

    g_ibgp = build_ibgp_full_mesh(anm)
    assert [(edge.src_id, edge.dst_id) for edge in g_ibgp.edges()] == list(expected.edges)
    assert g_ibgp.number_of_edges() == 2 * (6 + 3 + 3)
