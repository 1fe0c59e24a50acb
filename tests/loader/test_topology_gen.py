"""Unit tests for the built-in and synthetic topology generators."""

import networkx as nx
import pytest

from repro.loader import (
    attach_servers,
    bad_gadget_topology,
    european_nren_model,
    fig5_topology,
    full_mesh_topology,
    line_topology,
    multi_as_topology,
    ring_topology,
    rpki_topology,
    small_internet,
    star_with_switch,
)
from repro.loader.topology_gen import (
    BAD_GADGET_PREFIX,
    NREN_N_ASES,
    NREN_N_LINKS,
    NREN_N_ROUTERS,
)


def _asns(graph):
    return {data["asn"] for _, data in graph.nodes(data=True) if data.get("asn")}


class TestFig5:
    def test_exact_nodes_and_edges(self):
        graph = fig5_topology()
        assert set(graph.nodes) == {"r1", "r2", "r3", "r4", "r5"}
        expected = {
            ("r1", "r2"), ("r1", "r3"), ("r2", "r4"),
            ("r3", "r4"), ("r3", "r5"), ("r4", "r5"),
        }
        assert {tuple(sorted(e)) for e in graph.edges} == expected

    def test_asn_allocation_matches_paper(self):
        graph = fig5_topology()
        assert [graph.nodes["r%d" % i]["asn"] for i in range(1, 6)] == [1, 1, 1, 1, 2]

    def test_ospf_costs_follow_figure(self):
        graph = fig5_topology()
        assert graph.edges["r1", "r2"]["ospf_cost"] == 10
        assert graph.edges["r2", "r4"]["ospf_cost"] == 20


class TestSmallInternet:
    def test_seven_ases_fourteen_routers(self):
        graph = small_internet()
        assert len(graph) == 14
        assert _asns(graph) == {1, 20, 30, 40, 100, 200, 300}

    def test_connected(self):
        assert nx.is_connected(small_internet())

    def test_figure7_chain_links_present(self):
        graph = small_internet()
        chain = ["as300r2", "as40r1", "as1r1", "as20r3", "as20r2", "as100r1", "as100r2"]
        for left, right in zip(chain, chain[1:]):
            assert graph.has_edge(left, right), (left, right)

    def test_deterministic(self):
        assert nx.utils.graphs_equal(small_internet(), small_internet())


class TestNrenModel:
    def test_exact_documented_size_at_full_scale(self):
        graph = european_nren_model()
        assert len(_asns(graph)) == NREN_N_ASES == 42
        assert graph.number_of_nodes() == NREN_N_ROUTERS == 1158
        assert graph.number_of_edges() == NREN_N_LINKS == 1470

    def test_connected_at_full_scale(self):
        assert nx.is_connected(european_nren_model())

    def test_scaled_down_proportions(self):
        graph = european_nren_model(scale=0.1)
        assert abs(graph.number_of_nodes() - 116) <= 3
        assert len(_asns(graph)) == 4

    def test_deterministic_given_seed(self):
        a = european_nren_model(scale=0.2, seed=9)
        b = european_nren_model(scale=0.2, seed=9)
        assert nx.utils.graphs_equal(a, b)

    def test_different_seed_changes_graph(self):
        a = european_nren_model(scale=0.2, seed=1)
        b = european_nren_model(scale=0.2, seed=2)
        assert not nx.utils.graphs_equal(a, b)

    def test_backbone_is_asn_1(self):
        graph = european_nren_model(scale=0.2)
        backbone = [n for n, d in graph.nodes(data=True) if d["asn"] == 1]
        assert backbone
        assert all(name.startswith("geant") for name in backbone)

    def test_invalid_scale_raises(self):
        with pytest.raises(ValueError):
            european_nren_model(scale=0)


class TestBadGadget:
    def test_structure(self):
        graph = bad_gadget_topology()
        assert len(graph) == 7
        reflectors = [n for n, d in graph.nodes(data=True) if d.get("rr")]
        assert sorted(reflectors) == ["rr1", "rr2", "rr3"]

    def test_circular_igp_costs(self):
        graph = bad_gadget_topology()
        assert graph.edges["rr1", "c1"]["ospf_cost"] == 10
        assert graph.edges["rr1", "c2"]["ospf_cost"] == 5
        assert graph.edges["rr1", "c3"]["ospf_cost"] == 15
        assert graph.edges["rr2", "c3"]["ospf_cost"] == 5

    def test_origin_advertises_prefix(self):
        graph = bad_gadget_topology()
        assert graph.nodes["origin"]["prefixes"] == [BAD_GADGET_PREFIX]
        assert graph.nodes["origin"]["asn"] != graph.nodes["c1"]["asn"]

    def test_clients_use_next_hop_self(self):
        graph = bad_gadget_topology()
        for client in ("c1", "c2", "c3"):
            assert graph.nodes[client]["bgp_next_hop_self"] is True

    def test_clusters_pair_each_client_with_one_reflector(self):
        graph = bad_gadget_topology()
        for index in (1, 2, 3):
            assert (
                graph.nodes["c%d" % index]["rr_cluster"]
                == graph.nodes["rr%d" % index]["rr_cluster"]
            )


class TestRpkiTopology:
    def test_roles_present(self):
        graph = rpki_topology()
        services = {d.get("service") for _, d in graph.nodes(data=True)}
        assert {"rpki_ca", "rpki_publication", "rpki_cache"} <= services

    def test_labelled_edges(self):
        graph = rpki_topology()
        types = {d.get("type") for _, _, d in graph.edges(data=True)}
        assert {"ca_parent", "publishes_to", "fetches_from", "rtr_feed"} <= types

    def test_scales_to_many_nodes(self):
        graph = rpki_topology(n_child_cas=10, n_publication_points=4, n_caches=50, n_routers=100)
        assert len(graph) == 1 + 10 + 4 + 50 + 100

    def test_paper_size_is_823_vms(self):
        """§3.3: "over 800 Linux VMs"; the size the ledger's rpki_cold runs."""
        graph = rpki_topology(n_child_cas=20, n_caches=400, n_routers=400)
        assert graph.number_of_nodes() == 823

    def test_single_root(self):
        graph = rpki_topology()
        roots = [n for n, d in graph.nodes(data=True) if d.get("ca_root")]
        assert roots == ["ca_root"]


class TestStructuralHelpers:
    def test_line(self):
        graph = line_topology(4)
        assert graph.number_of_edges() == 3

    def test_ring(self):
        graph = ring_topology(4)
        assert graph.number_of_edges() == 4
        assert all(graph.degree(n) == 2 for n in graph)

    def test_full_mesh(self):
        graph = full_mesh_topology(5)
        assert graph.number_of_edges() == 10

    def test_star_with_switch(self):
        graph = star_with_switch(3)
        assert graph.nodes["sw1"]["device_type"] == "switch"
        assert graph.degree("sw1") == 3

    def test_multi_as_connected_and_sized(self):
        graph = multi_as_topology(n_ases=4, routers_per_as=5, seed=3)
        assert nx.is_connected(graph)
        assert len(graph) == 20
        assert _asns(graph) == {1, 2, 3, 4}

    def test_multi_as_deterministic(self):
        a = multi_as_topology(seed=5)
        b = multi_as_topology(seed=5)
        assert nx.utils.graphs_equal(a, b)

    def test_attach_servers(self):
        graph = attach_servers(line_topology(3), per_router=2)
        servers = [n for n, d in graph.nodes(data=True) if d["device_type"] == "server"]
        assert len(servers) == 6
        assert all(graph.degree(s) == 1 for s in servers)
        # servers inherit the router's ASN
        assert graph.nodes[servers[0]]["asn"] == 1
