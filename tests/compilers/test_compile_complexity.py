"""Complexity guard: compiling a hub-and-spoke lab costs O(degree) lookups.

Counts graph steps, not seconds: every edge ``OverlayGraph.edges``
returns and every adjacency entry the compilers reach through
NetworkX (``neighbors``/``successors``/``predecessors`` entries walked,
``has_edge`` probes).  Quadrupling the hub's degree must not multiply
that count by much more than four; the accessor scans this guards
against multiplied it by about sixteen.
"""

import networkx as nx

from repro.anm import OverlayGraph
from repro.compilers import platform_compiler
from repro.design import design_network
from repro.loader import rpki_topology

#: The RPKI rules without the iBGP mesh, whose *output* is quadratic.
RULES = ("phy", "ipv4", "ospf", "ebgp", "rpki")


def _count_compile_visits(monkeypatch, spokes: int, hub_degree: int) -> int:
    graph = rpki_topology(n_child_cas=2, n_caches=spokes, n_routers=spokes)
    anm = design_network(graph, rules=RULES)
    # every machine hangs off pub1, bar those it already has a service edge to
    assert anm["phy"].degree("pub1") == hub_degree
    visits = [0]

    def counting_edges(original):
        def edges(self, *args, **kwargs):
            found = original(self, *args, **kwargs)
            visits[0] += len(found)
            return found
        return edges

    def counting_walk(original):
        def walk(self, node):
            for other in original(self, node):
                visits[0] += 1
                yield other
        return walk

    def counting_probe(original):
        def has_edge(self, u, v):
            visits[0] += 1
            return original(self, u, v)
        return has_edge

    with monkeypatch.context() as patch:
        patch.setattr(OverlayGraph, "edges", counting_edges(OverlayGraph.edges))
        patch.setattr(nx.Graph, "neighbors", counting_walk(nx.Graph.neighbors))
        patch.setattr(nx.DiGraph, "successors", counting_walk(nx.DiGraph.successors))
        patch.setattr(nx.DiGraph, "predecessors", counting_walk(nx.DiGraph.predecessors))
        patch.setattr(nx.Graph, "has_edge", counting_probe(nx.Graph.has_edge))
        patch.setattr(nx.DiGraph, "has_edge", counting_probe(nx.DiGraph.has_edge))
        nidb = platform_compiler("netkit", anm).compile()
    assert len(nidb) == graph.number_of_nodes()
    assert len(nidb.node("pub1").physical_interfaces()) == hub_degree
    return visits[0]


def test_compile_lookups_grow_linearly_with_hub_degree(monkeypatch):
    small = _count_compile_visits(monkeypatch, spokes=32, hub_degree=50)
    large = _count_compile_visits(monkeypatch, spokes=132, hub_degree=200)
    assert small > 0
    assert large <= 5 * small, (small, large)
