"""Unit tests for the four platform lab parsers boot path."""

import ipaddress
import os

import pytest

from repro.compilers import platform_compiler
from repro.design import design_network
from repro.emulation.parsing import (
    parse_bind_zone,
    parse_cbgp_lab,
    parse_dynagen_lab,
    parse_junos_config,
    parse_junosphere_lab,
    parse_lab_conf,
    parse_netkit_lab,
    parse_rpki_conf,
    parse_startup,
)
from repro.exceptions import ConfigParseError
from repro.loader import small_internet
from repro.render import render_nidb


class TestLabConf:
    def test_wiring_parse(self):
        wiring = parse_lab_conf("r1[0]=cd_a\nr1[1]=cd_b\nr2[0]=cd_a\n")
        assert wiring == {"r1": {0: "cd_a", 1: "cd_b"}, "r2": {0: "cd_a"}}

    def test_metadata_lines_skipped(self):
        wiring = parse_lab_conf('LAB_DESCRIPTION="x"\nLAB_VERSION=1.0\nr1[0]=cd\n')
        assert wiring == {"r1": {0: "cd"}}

    def test_bad_line_raises(self):
        with pytest.raises(ConfigParseError):
            parse_lab_conf("r1[zero]=cd\n")


class TestStartup:
    def test_interfaces_and_loopback(self):
        text = (
            "/sbin/ifconfig lo 127.0.0.1 up\n"
            "/sbin/ifconfig lo:1 192.168.0.1 netmask 255.255.255.255 up\n"
            "/sbin/ifconfig eth0 10.0.0.1 netmask 255.255.255.252 up\n"
            "/sbin/ifconfig eth1 172.16.0.5 netmask 255.255.0.0 up\n"
        )
        interfaces = parse_startup(text, "r1")
        by_name = {i.name: i for i in interfaces}
        assert by_name["lo"].is_loopback
        assert str(by_name["lo"].ip_address) == "192.168.0.1"
        assert by_name["eth0"].prefixlen == 30
        assert by_name["eth1"].is_management  # TAP block

    def test_non_ifconfig_lines_ignored(self):
        assert parse_startup("/etc/init.d/zebra start\n", "r1") == []


class TestBindZone:
    def test_forward_records(self):
        zone = parse_bind_zone(
            "$TTL 3600\n@ IN SOA ns.as1.lab. admin.as1.lab. ( 1 3600 900 604800 86400 )\n"
            "@ IN NS ns.as1.lab.\nns IN A 192.168.0.1\nr1 IN A 192.168.0.1\n"
        )
        assert zone.origin == "as1.lab"
        assert zone.records["r1"] == "192.168.0.1"

    def test_ptr_records(self):
        zone = parse_bind_zone(
            "@ IN SOA ns.as1.lab. admin. ( 1 1 1 1 1 )\n"
            "1.0.168.192.in-addr.arpa. IN PTR r1.as1.lab.\n"
        )
        assert zone.ptr_records == {"1.0.168.192.in-addr.arpa": "r1.as1.lab"}


def test_parse_rpki_conf_accumulates_lists():
    config = parse_rpki_conf(
        "role = ca\nresource = 10.0.0.0/8\nresource = 192.168.0.0/16\n"
        "roa = 10.0.0.0/8 asn 1 max-length 24\n"
    )
    assert config["role"] == "ca"
    assert len(config["resources"]) == 2
    assert len(config["roas"]) == 1


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    out = {}
    for platform in ("netkit", "dynagen", "junosphere", "cbgp"):
        anm = design_network(small_internet())
        nidb = platform_compiler(platform, anm).compile()
        out[platform] = render_nidb(nidb, tmp_path_factory.mktemp("p_%s" % platform))
    return out


class TestNetkitLabParse:
    def test_all_machines_found(self, rendered):
        lab = parse_netkit_lab(rendered["netkit"].lab_dir)
        assert len(lab.devices) == 14
        assert lab.platform == "netkit"

    def test_device_intent_complete(self, rendered):
        lab = parse_netkit_lab(rendered["netkit"].lab_dir)
        device = lab.devices["as100r1"]
        assert device.hostname == "as100r1"
        assert device.loopback is not None
        assert device.ospf is not None and device.bgp is not None
        assert device.bgp.asn == 100
        physical = [i for i in device.interfaces if not i.is_loopback and not i.is_management]
        assert len(physical) == 3
        assert all(i.collision_domain for i in physical)

    def test_dns_intent_loaded(self, rendered):
        lab = parse_netkit_lab(rendered["netkit"].lab_dir)
        server = lab.devices["as100r1"]
        assert server.dns.is_server
        assert server.dns.resolver is not None
        client = lab.devices["as100r2"]
        assert client.dns.resolver is not None
        assert not client.dns.is_server

    def test_missing_lab_conf_raises(self, tmp_path):
        with pytest.raises(ConfigParseError, match="lab.conf"):
            parse_netkit_lab(tmp_path)

    def test_equal_addresses_are_one_object(self, rendered):
        lab = parse_netkit_lab(rendered["netkit"].lab_dir)
        interfaces = [i.ip_address for d in lab.devices.values() for i in d.interfaces]
        peers = [n.peer_ip for d in lab.devices.values() if d.bgp for n in d.bgp.neighbors]
        seen = {}
        for address in interfaces + peers:
            if address is not None:
                seen.setdefault(str(address), set()).add(id(address))
        assert all(len(ids) == 1 for ids in seen.values())
        # a session's peer address is the peer interface's own object
        assert any(id(peer) in map(id, interfaces) for peer in peers)


class TestDynagenLabParse:
    def test_all_routers_found(self, rendered):
        lab = parse_dynagen_lab(rendered["dynagen"].lab_dir)
        assert len(lab.devices) == 14
        device = lab.devices["as100r1"]
        assert device.vendor == "ios"
        assert device.loopback is not None
        assert device.bgp.asn == 100

    def test_wildcard_networks_parsed(self, rendered):
        lab = parse_dynagen_lab(rendered["dynagen"].lab_dir)
        device = lab.devices["as100r1"]
        prefixes = {net.prefixlen for net, _ in device.ospf.networks}
        assert 30 in prefixes and 32 in prefixes

    def test_missing_configs_raises(self, tmp_path):
        with pytest.raises(ConfigParseError):
            parse_dynagen_lab(tmp_path)


class TestJunosphereLabParse:
    def test_all_routers_found(self, rendered):
        lab = parse_junosphere_lab(rendered["junosphere"].lab_dir)
        assert len(lab.devices) == 14
        device = lab.devices["as100r1"]
        assert device.vendor == "junos"
        assert device.bgp.asn == 100
        assert device.ospf.interface_costs

    def test_vmm_wiring_applied(self, rendered):
        lab = parse_junosphere_lab(rendered["junosphere"].lab_dir)
        device = lab.devices["as100r1"]
        physical = [i for i in device.interfaces if not i.is_loopback]
        assert all(i.collision_domain for i in physical)

    def test_brace_parser_handles_comments(self):
        device = parse_junos_config(
            "/* header */\nsystem {\n    host-name r9;\n}\n", "r9"
        )
        assert device.hostname == "r9"


class TestCbgpLabParse:
    def test_nodes_links_sessions(self, rendered):
        lab = parse_cbgp_lab(rendered["cbgp"].lab_dir)
        assert len(lab.devices) == 14
        sample = next(iter(lab.devices.values()))
        assert sample.vendor == "cbgp"
        assert sample.igp_domain is not None
        assert sample.bgp is not None

    def test_loopback_is_node_id(self, rendered):
        lab = parse_cbgp_lab(rendered["cbgp"].lab_dir)
        for name, device in lab.devices.items():
            assert str(device.loopback) == name

    def test_missing_script_raises(self, tmp_path):
        with pytest.raises(ConfigParseError):
            parse_cbgp_lab(tmp_path)
