"""Unit tests for pre-deployment static verification (§8)."""

import pytest

from repro.compilers import platform_compiler
from repro.design import design_network
from repro.loader import small_internet
from repro.verification import VerificationReport, verify_nidb


@pytest.fixture()
def nidb():
    return platform_compiler("netkit", design_network(small_internet())).compile()


def test_clean_compile_passes(nidb):
    report = verify_nidb(nidb)
    assert report.ok, [str(f) for f in report.findings]
    assert report.errors == []
    assert "passed" in report.summary() or report.warnings


def test_duplicate_address_detected(nidb):
    a = nidb.node("as100r1").physical_interfaces()[0]
    b = nidb.node("as300r1").physical_interfaces()[0]
    b.ip_address = a.ip_address
    report = verify_nidb(nidb)
    assert not report.ok
    assert any(f.check == "unique-address" for f in report.errors)


def test_link_subnet_mismatch_detected(nidb):
    interface = nidb.node("as100r1").physical_interfaces()[0]
    interface.subnet = "10.99.0.0/30"
    report = verify_nidb(nidb)
    assert any(f.check == "link-subnet" for f in report.errors)


def test_wrong_remote_asn_detected(nidb):
    neighbor = nidb.node("as100r1").bgp.ebgp_neighbors[0]
    neighbor.remote_asn = 65000
    report = verify_nidb(nidb)
    assert any(f.check == "bgp-remote-asn" for f in report.errors)


def test_dangling_peer_address_detected(nidb):
    neighbor = nidb.node("as100r1").bgp.ebgp_neighbors[0]
    neighbor.neighbor_ip = "198.51.100.1"
    report = verify_nidb(nidb)
    assert any(f.check == "bgp-peer-address" for f in report.errors)


def test_non_reciprocal_session_warned(nidb):
    nidb.node("as30r1").bgp.ebgp_neighbors = []
    report = verify_nidb(nidb)
    assert any(f.check == "bgp-reciprocal" for f in report.warnings)


def test_missing_next_hop_self_warned(nidb):
    # compiled iBGP records are shared read-only: give as100r1 its own
    bgp = nidb.node("as100r1").bgp
    bgp.ibgp_neighbors = [
        dict(session.to_dict(), next_hop_self=False) for session in bgp.ibgp_neighbors
    ]
    report = verify_nidb(nidb)
    assert any(f.check == "ibgp-next-hop" for f in report.warnings)
    # warnings alone don't fail verification
    assert report.ok


def test_one_sided_ospf_detected(nidb):
    device = nidb.node("as100r1")
    device.ospf.ospf_links = [
        link for link in device.ospf.ospf_links if link.interface != "eth0"
    ]
    report = verify_nidb(nidb)
    assert any(f.check == "ospf-one-sided" for f in report.errors)


def test_report_accessors():
    report = VerificationReport()
    report.add("error", "x", "r1", "boom")
    report.add("warning", "y", "r2", "meh")
    assert len(report.errors) == 1 and len(report.warnings) == 1
    assert "1 error(s), 1 warning(s)" in report.summary()
    assert "[error] x r1: boom" == str(report.errors[0])
