"""Unit tests for the emulated fabric and the IGP engine."""

import ipaddress

import pytest

from repro.emulation import EmulatedNetwork, IgpState
from repro.emulation.intent import (
    DeviceIntent,
    InterfaceIntent,
    LabIntent,
    OspfIntent,
)
from repro.exceptions import EmulationError


def _router(name, interfaces, ospf_networks=None, costs=None):
    device = DeviceIntent(name=name, vendor="quagga", hostname=name)
    device.interfaces = interfaces
    if ospf_networks is not None:
        device.ospf = OspfIntent(
            networks=[(ipaddress.ip_network(net), 0) for net in ospf_networks],
            interface_costs=costs or {},
        )
        for interface in interfaces:
            if interface.name in (costs or {}):
                interface.ospf_cost = costs[interface.name]
    return device


def _iface(name, ip, prefixlen, loopback=False):
    return InterfaceIntent(
        name=name,
        ip_address=ipaddress.ip_address(ip),
        prefixlen=prefixlen,
        is_loopback=loopback,
    )


def _line_lab(costs=(1, 1)):
    """r1 -- r2 -- r3 with per-hop OSPF costs."""
    lab = LabIntent(platform="netkit")
    lab.devices["r1"] = _router(
        "r1",
        [_iface("lo", "192.168.0.1", 32, loopback=True), _iface("eth0", "10.0.0.1", 30)],
        ospf_networks=["10.0.0.0/30", "192.168.0.1/32"],
        costs={"eth0": costs[0]},
    )
    lab.devices["r2"] = _router(
        "r2",
        [
            _iface("lo", "192.168.0.2", 32, loopback=True),
            _iface("eth0", "10.0.0.2", 30),
            _iface("eth1", "10.0.0.5", 30),
        ],
        ospf_networks=["10.0.0.0/30", "10.0.0.4/30", "192.168.0.2/32"],
        costs={"eth0": costs[0], "eth1": costs[1]},
    )
    lab.devices["r3"] = _router(
        "r3",
        [_iface("lo", "192.168.0.3", 32, loopback=True), _iface("eth0", "10.0.0.6", 30)],
        ospf_networks=["10.0.0.4/30", "192.168.0.3/32"],
        costs={"eth0": costs[1]},
    )
    return lab


class TestEmulatedNetwork:
    def test_segments_by_subnet(self):
        network = EmulatedNetwork(_line_lab())
        assert len(network.segments) == 2
        assert sorted(network.neighbors_of("r2")) == ["r1", "r3"]

    def test_address_ownership(self):
        network = EmulatedNetwork(_line_lab())
        assert network.owner_of("10.0.0.1") == "r1"
        assert network.owner_of("192.168.0.3") == "r3"
        assert network.owner_of("172.31.0.1") is None

    def test_duplicate_address_rejected(self):
        lab = _line_lab()
        lab.devices["r3"].interfaces[1].ip_address = ipaddress.ip_address("10.0.0.1")
        with pytest.raises(EmulationError, match="duplicate"):
            EmulatedNetwork(lab)

    def test_empty_lab_rejected(self):
        with pytest.raises(EmulationError, match="no machines"):
            EmulatedNetwork(LabIntent(platform="netkit"))

    def test_shared_segments_and_addresses(self):
        network = EmulatedNetwork(_line_lab())
        segments = network.shared_segments("r1", "r2")
        assert len(segments) == 1
        assert str(network.address_on_segment_with("r2", "r1")) == "10.0.0.2"

    def test_connected_networks(self):
        network = EmulatedNetwork(_line_lab())
        nets = {str(n) for n in network.connected_networks("r2")}
        assert nets == {"10.0.0.0/30", "10.0.0.4/30", "192.168.0.2/32"}

    def test_management_interfaces_excluded(self):
        lab = _line_lab()
        lab.devices["r1"].interfaces.append(
            InterfaceIntent(
                name="eth9",
                ip_address=ipaddress.ip_address("172.16.0.2"),
                prefixlen=16,
                is_management=True,
            )
        )
        network = EmulatedNetwork(lab)
        assert network.owner_of("172.16.0.2") is None

    def test_unknown_machine_raises(self):
        network = EmulatedNetwork(_line_lab())
        with pytest.raises(EmulationError):
            network.device("ghost")


class TestIgpEngine:
    def test_adjacency_requires_mutual_advertisement(self):
        lab = _line_lab()
        # r3 stops advertising the shared subnet: no adjacency with r2.
        lab.devices["r3"].ospf.networks = [
            (ipaddress.ip_network("192.168.0.3/32"), 0)
        ]
        igp = IgpState(EmulatedNetwork(lab))
        assert igp.neighbors("r3") == []
        assert [n for n, _ in igp.neighbors("r2")] == ["r1"]

    def test_costs_directional(self):
        lab = _line_lab(costs=(5, 7))
        igp = IgpState(EmulatedNetwork(lab))
        assert dict(igp.neighbors("r1"))["r2"] == 5
        assert dict(igp.neighbors("r2"))["r3"] == 7

    def test_spf_distances(self):
        igp = IgpState(EmulatedNetwork(_line_lab(costs=(5, 7))))
        assert igp.distance("r1", "r3") == 12
        assert igp.distance("r3", "r1") == 12
        assert igp.distance("r1", "r1") == 0

    def test_routes_to_loopbacks(self):
        igp = IgpState(EmulatedNetwork(_line_lab(costs=(5, 7))))
        routes = igp.routes("r1")
        r3_loopback = ipaddress.ip_network("192.168.0.3/32")
        assert routes[r3_loopback].next_hop == "r2"
        assert routes[r3_loopback].metric == 12

    def test_routes_exclude_connected(self):
        igp = IgpState(EmulatedNetwork(_line_lab()))
        routes = igp.routes("r1")
        assert ipaddress.ip_network("10.0.0.0/30") not in routes
        assert ipaddress.ip_network("10.0.0.4/30") in routes

    def test_cost_to_address(self):
        igp = IgpState(EmulatedNetwork(_line_lab(costs=(5, 7))))
        assert igp.cost_to_address("r1", "10.0.0.2") == 0  # connected
        assert igp.cost_to_address("r1", "192.168.0.1") == 0  # own
        assert igp.cost_to_address("r1", "192.168.0.3") == 12
        assert igp.cost_to_address("r1", "203.0.113.1") is None

    def test_equal_cost_tie_breaks_deterministically(self):
        """A square: two equal paths; the tie must break identically."""
        lab = LabIntent(platform="netkit")
        # square a-b-d and a-c-d, all cost 1
        links = {
            ("a", "b"): "10.0.0.0/30",
            ("a", "c"): "10.0.0.4/30",
            ("b", "d"): "10.0.0.8/30",
            ("c", "d"): "10.0.0.12/30",
        }
        interfaces: dict[str, list] = {name: [] for name in "abcd"}
        hosts = {name: "192.168.0.%d" % (i + 1) for i, name in enumerate("abcd")}
        counter = {name: 0 for name in "abcd"}
        for (left, right), net in links.items():
            network_obj = ipaddress.ip_network(net)
            addresses = list(network_obj.hosts())
            for index, name in enumerate((left, right)):
                interfaces[name].append(
                    _iface("eth%d" % counter[name], str(addresses[index]), 30)
                )
                counter[name] += 1
        for name in "abcd":
            interfaces[name].append(_iface("lo", hosts[name], 32, loopback=True))
            advertised = [
                net for (l, r), net in links.items() if name in (l, r)
            ] + ["%s/32" % hosts[name]]
            lab.devices[name] = _router(name, interfaces[name], ospf_networks=advertised)
        igp_one = IgpState(EmulatedNetwork(lab))
        igp_two = IgpState(EmulatedNetwork(lab))
        route_one = igp_one.routes("a")[ipaddress.ip_network("192.168.0.4/32")]
        route_two = igp_two.routes("a")[ipaddress.ip_network("192.168.0.4/32")]
        assert route_one.next_hop == route_two.next_hop
        assert igp_one.distance("a", "d") == 2


def test_an_ospf_router_with_an_ipv6_interface_boots_and_converges():
    # x02 peers over an IPv6 /126 with c00, which runs OSPF on its IPv4
    # links: the IGP skips the IPv6 interface instead of comparing it
    # with the IPv4 ``network`` statements.
    from repro.emulation import EmulatedLab

    from tests.emulation.synthetic_bgp import (
        add_ipv6_external,
        core_lab,
        core_name,
        external_prefix,
    )

    intent = core_lab(3)
    shadows = [ipaddress.ip_address("10.0.9.1"), ipaddress.ip_address("10.0.9.2")]
    add_ipv6_external(intent, 2, core_name(0), shadows)
    ipv6_network = next(
        interface.network
        for interface in intent.devices[core_name(0)].interfaces
        if interface.collision_domain == "v6link2"
    )
    assert ipv6_network.version == 6
    assert not intent.devices[core_name(0)].ospf.advertises(ipv6_network)

    lab = EmulatedLab(intent)
    assert lab.converged
    assert "v6link2" not in {
        interface.collision_domain
        for interface in intent.devices[core_name(0)].interfaces
        if IgpState._advertised_area(intent.devices[core_name(0)], interface) is not None
    }
    assert external_prefix(2) in lab.bgp_result.selected[core_name(0)]
