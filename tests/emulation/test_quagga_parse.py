"""Unit tests for parsing Quagga daemon configurations back into intent."""

import ipaddress

import pytest

from repro.emulation.parsing import parse_bgpd, parse_hostname, parse_isisd, parse_ospfd
from repro.exceptions import ConfigParseError

OSPFD = """\
hostname r1
password 1234
!
interface eth0
 ip ospf cost 5
!
interface eth1
 ip ospf cost 20
!
router ospf
 ospf router-id 192.168.0.1
 network 10.0.0.0/30 area 0
 network 10.0.0.4/30 area 1
 network 192.168.0.1/32 area 0
!
"""

BGPD = """\
hostname r1
password 1234
!
router bgp 100
 bgp router-id 192.168.0.1
 network 10.0.0.0/16
 neighbor 10.1.0.2 remote-as 20
 neighbor 10.1.0.2 description eBGP to r9 (AS 20)
 neighbor 10.1.0.2 route-map rm-in-r9 in
 neighbor 192.168.0.2 remote-as 100
 neighbor 192.168.0.2 update-source lo
 neighbor 192.168.0.2 next-hop-self
 neighbor 192.168.0.3 remote-as 100
 neighbor 192.168.0.3 route-reflector-client
!
route-map rm-in-r9 permit 10
 set local-preference 200
!
"""


class TestOspfd:
    def test_interface_costs(self):
        intent = parse_ospfd(OSPFD)
        assert intent.interface_costs == {"eth0": 5, "eth1": 20}

    def test_router_id(self):
        assert parse_ospfd(OSPFD).router_id == "192.168.0.1"

    def test_networks_with_areas(self):
        intent = parse_ospfd(OSPFD)
        nets = {(str(net), area) for net, area in intent.networks}
        assert nets == {
            ("10.0.0.0/30", 0),
            ("10.0.0.4/30", 1),
            ("192.168.0.1/32", 0),
        }

    def test_advertises(self):
        intent = parse_ospfd(OSPFD)
        assert intent.advertises(ipaddress.ip_network("10.0.0.0/30"))
        assert not intent.advertises(ipaddress.ip_network("10.9.0.0/30"))

    def test_cost_outside_interface_raises(self):
        with pytest.raises(ConfigParseError):
            parse_ospfd("ip ospf cost 5\n")

    def test_bad_network_statement_raises(self):
        with pytest.raises(ConfigParseError):
            parse_ospfd("router ospf\n network banana area x\n")


class TestBgpd:
    def test_asn_and_router_id(self):
        intent = parse_bgpd(BGPD)
        assert intent.asn == 100
        assert intent.router_id == "192.168.0.1"

    def test_networks(self):
        intent = parse_bgpd(BGPD)
        assert [str(n) for n in intent.networks] == ["10.0.0.0/16"]

    def test_neighbor_attributes(self):
        intent = parse_bgpd(BGPD)
        ebgp = intent.neighbor_for("10.1.0.2")
        assert ebgp.remote_asn == 20
        assert ebgp.local_pref_in == 200
        assert "eBGP to r9" in ebgp.description
        ibgp = intent.neighbor_for("192.168.0.2")
        assert ibgp.update_source == "lo"
        assert ibgp.next_hop_self is True
        client = intent.neighbor_for("192.168.0.3")
        assert client.rr_client is True

    def test_neighbor_for_takes_strings_and_address_objects(self):
        intent = parse_bgpd(BGPD)
        by_text = intent.neighbor_for("10.1.0.2")
        assert by_text is not None
        assert intent.neighbor_for(ipaddress.ip_address("10.1.0.2")) is by_text
        assert intent.neighbor_for("10.9.9.9") is None

    def test_route_map_not_applied_without_reference(self):
        intent = parse_bgpd(BGPD)
        assert intent.neighbor_for("192.168.0.2").local_pref_in is None

    def test_missing_router_bgp_raises(self):
        with pytest.raises(ConfigParseError, match="router bgp"):
            parse_bgpd("hostname r1\n")

    def test_neighbor_option_before_remote_as_raises(self):
        with pytest.raises(ConfigParseError, match="before remote-as"):
            parse_bgpd("router bgp 1\n neighbor 1.2.3.4 next-hop-self\n")


class TestOthers:
    def test_hostname(self):
        assert parse_hostname("hostname core1\n") == "core1"
        assert parse_hostname("") is None

    def test_isisd(self):
        text = (
            "hostname r1\n!\ninterface eth0\n ip router isis 1\n isis metric 33\n!\n"
            "router isis 1\n net 49.0001.0000.0000.0001.00\n"
        )
        intent = parse_isisd(text)
        assert intent.net == "49.0001.0000.0000.0001.00"
        assert intent.interface_metrics == {"eth0": 33}
