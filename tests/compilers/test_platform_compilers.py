"""Unit tests for the four platform compilers (§5.4)."""

import pytest

from repro.compilers import (
    PLATFORM_COMPILERS,
    CbgpPlatformCompiler,
    DynagenCompiler,
    JunosphereCompiler,
    NetkitCompiler,
    platform_compiler,
)
from repro.design import design_network
from repro.exceptions import CompilerError
from repro.loader import fig5_topology, small_internet, star_with_switch


@pytest.fixture(scope="module")
def anm():
    return design_network(small_internet())


def test_registry_contents():
    assert set(PLATFORM_COMPILERS) == {"netkit", "dynagen", "junosphere", "cbgp"}


def test_unknown_platform_raises(anm):
    with pytest.raises(CompilerError, match="unknown platform"):
        platform_compiler("gns3", anm)


def test_compile_requires_ipv4_overlay():
    from repro.design import apply_design, build_anm

    anm = build_anm(fig5_topology())
    apply_design(anm, rules=("phy",))
    with pytest.raises(CompilerError, match="ipv4"):
        NetkitCompiler(anm).compile()


def test_corrupted_ipv4_edge_raises_instead_of_dropping_the_interface():
    from repro.anm import unwrap_graph

    anm = design_network(fig5_topology())
    g_ip = anm["ipv4"]
    (domain,) = [
        node for node in g_ip.node("r1").neighbors() if g_ip.has_edge(node, "r2")
    ]
    del unwrap_graph(g_ip).edges["r1", domain.node_id]["ip_address"]
    with pytest.raises(CompilerError, match="r1 has no ipv4 address on collision domain"):
        NetkitCompiler(anm).compile()


def test_device_missing_from_a_switch_domain_gets_no_interface():
    # the one tolerated gap: the switch map names a domain the device is not on
    anm = design_network(star_with_switch(3, asn=1))
    g_ip = anm["ipv4"]
    g_ip.remove_edge("r1", g_ip.data.switch_domain_map["sw1"])
    nidb = NetkitCompiler(anm).compile()
    assert nidb.node("r1").physical_interfaces() == []
    assert len(nidb.node("r2").physical_interfaces()) == 1


class TestNetkit:
    def test_interface_names_eth(self, anm):
        nidb = NetkitCompiler(anm).compile()
        names = [i.id for i in nidb.node("as100r1").physical_interfaces()]
        assert names == ["eth0", "eth1", "eth2"]

    def test_loopback_named_lo(self, anm):
        nidb = NetkitCompiler(anm).compile()
        assert nidb.node("as100r1").loopback_interface().id == "lo"

    def test_hostnames_lowercased(self):
        graph = small_internet()
        import networkx as nx

        graph = nx.relabel_nodes(graph, {"as1r1": "AS1-R1.core"})
        nidb = NetkitCompiler(design_network(graph)).compile()
        assert nidb.node("AS1-R1.core").hostname == "as1-r1_core"

    def test_tap_addresses_unique(self, anm):
        nidb = NetkitCompiler(anm).compile()
        taps = [device.tap.ip for device in nidb]
        assert len(set(taps)) == len(taps) == 14
        assert all(tap.startswith("172.16.") for tap in taps)

    def test_tap_interface_follows_physical(self, anm):
        nidb = NetkitCompiler(anm).compile()
        device = nidb.node("as100r1")
        assert device.tap.interface == "eth3"

    def test_render_entries_per_daemon(self, anm):
        nidb = NetkitCompiler(anm).compile()
        device = nidb.node("as100r1")
        templates = {f.template for f in device.render.files}
        assert "quagga/zebra.conf.j2" in templates
        assert "quagga/ospfd.conf.j2" in templates
        assert "quagga/bgpd.conf.j2" in templates
        assert "netkit/startup.j2" in templates
        assert "bind/named.conf.j2" in templates  # DNS server

    def test_render_dst_folder_matches_paper(self, anm):
        """§5.4: base_dst_folder like localhost/netkit/as100r1."""
        nidb = NetkitCompiler(anm).compile()
        assert nidb.node("as100r1").render.dst_folder == "localhost/netkit/as100r1"

    def test_no_ospfd_render_for_stub_router(self, anm):
        nidb = NetkitCompiler(anm).compile()
        templates = {f.template for f in nidb.node("as30r1").render.files}
        assert "quagga/ospfd.conf.j2" not in templates

    def test_collision_domains_on_topology(self, anm):
        nidb = NetkitCompiler(anm).compile()
        domains = nidb.topology.collision_domains.to_dict()
        assert len(domains) == 18
        assert all(len(members) == 2 for members in domains.values())

    def test_switch_becomes_shared_domain(self):
        nidb = NetkitCompiler(design_network(star_with_switch(3, asn=1))).compile()
        domains = nidb.topology.collision_domains.to_dict()
        assert len(domains) == 1
        (members,) = domains.values()
        assert sorted(members) == ["r1", "r2", "r3"]


class TestDynagen:
    def test_interface_names_slot_port(self, anm):
        nidb = DynagenCompiler(anm).compile()
        names = [i.id for i in nidb.node("as100r1").physical_interfaces()]
        assert names == ["f0/0", "f0/1", "f1/0"]

    def test_loopback_interface_name(self, anm):
        nidb = DynagenCompiler(anm).compile()
        assert nidb.node("as100r1").loopback_interface().id == "Loopback0"

    def test_topology_links_have_both_interfaces(self, anm):
        nidb = DynagenCompiler(anm).compile()
        links = [link.to_dict() for link in nidb.topology.links]
        assert len(links) == 18
        sample = links[0]
        assert set(sample) == {"src", "src_interface", "dst", "dst_interface"}

    def test_render_single_config_per_router(self, anm):
        nidb = DynagenCompiler(anm).compile()
        files = nidb.node("as100r1").render.files
        assert len(files) == 1
        assert files[0].path == "configs/as100r1.cfg"


class TestJunosphere:
    def test_interface_names_ge(self, anm):
        nidb = JunosphereCompiler(anm).compile()
        names = [i.id for i in nidb.node("as100r1").physical_interfaces()]
        assert names == ["ge-0/0/0", "ge-0/0/1", "ge-0/0/2"]

    def test_topology_render_is_vmm(self, anm):
        nidb = JunosphereCompiler(anm).compile()
        paths = [f.path for f in nidb.topology.render.files]
        assert paths == ["topology.vmm"]


class TestCbgp:
    def test_no_per_device_files(self, anm):
        nidb = CbgpPlatformCompiler(anm).compile()
        assert nidb.node("as100r1").render.files == []

    def test_single_topology_script(self, anm):
        nidb = CbgpPlatformCompiler(anm).compile()
        paths = [f.path for f in nidb.topology.render.files]
        assert paths == ["network.cli"]

    def test_links_carry_igp_weight(self, anm):
        nidb = CbgpPlatformCompiler(anm).compile()
        links = [link.to_dict() for link in nidb.topology.links]
        assert len(links) == 18
        assert all(link["igp_weight"] >= 1 for link in links)

    def test_asn_list(self, anm):
        nidb = CbgpPlatformCompiler(anm).compile()
        assert nidb.topology.asns == [1, 20, 30, 40, 100, 200, 300]


def test_interfaces_sorted_by_neighbor_for_determinism(anm):
    first = NetkitCompiler(anm).compile()
    second = NetkitCompiler(anm).compile()
    for device in first:
        other = second.node(device.node_id)
        assert [i.id for i in device.interfaces] == [i.id for i in other.interfaces]
        assert [str(i.ip_address) for i in device.interfaces] == [
            str(i.ip_address) for i in other.interfaces
        ]
