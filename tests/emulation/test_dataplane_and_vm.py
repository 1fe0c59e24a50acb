"""Unit tests for forwarding, traceroute, and VM command output."""

import ipaddress

import pytest

from repro.exceptions import MeasurementError


class TestDataplane:
    def test_deliver_to_self(self, si_lab):
        decision = si_lab.dataplane.lookup("as100r1", "192.168.128.1")
        assert decision.action == "deliver"

    def test_connected_forwarding(self, si_lab):
        # as100r1's neighbour on a shared /30.
        neighbor_ip = si_lab.network.address_on_segment_with("as100r2", "as100r1")
        decision = si_lab.dataplane.lookup("as100r1", neighbor_ip)
        assert decision.action == "forward"
        assert decision.next_machine == "as100r2"
        assert decision.source == "connected"

    def test_igp_forwarding_longest_prefix_beats_bgp_aggregate(self, si_lab):
        # Loopback of a same-AS router: /32 OSPF route wins over the /19.
        decision = si_lab.dataplane.lookup(
            "as100r1", si_lab.network.device("as100r2").loopback
        )
        assert decision.source in ("igp", "connected")

    def test_bgp_forwarding_cross_as(self, si_lab):
        decision = si_lab.dataplane.lookup(
            "as100r1", si_lab.network.device("as300r3").loopback
        )
        assert decision.action == "forward"
        assert decision.source == "bgp"

    def test_no_route_drop(self, si_lab):
        decision = si_lab.dataplane.lookup("as100r1", "198.51.100.77")
        assert decision.action == "drop"
        assert "no route" in decision.reason

    def test_blackhole_aggregate(self, si_lab):
        """An address inside the local aggregate but not assigned: dropped."""
        decision = si_lab.dataplane.lookup("as100r1", "10.4.255.254")
        assert decision.action == "drop"

    def test_trace_reaches_every_remote_loopback(self, si_lab):
        machines = sorted(si_lab.network.machines)
        source = "as1r1"
        for target in machines:
            if target == source:
                continue
            loopback = si_lab.network.device(target).loopback
            trace = si_lab.dataplane.trace(source, loopback)
            assert trace.reached, (target, trace.reason)
            assert trace.hops[-1][1] == str(loopback)

    def test_trace_hop_machines_form_connected_walk(self, si_lab):
        trace = si_lab.dataplane.trace(
            "as300r2", si_lab.network.device("as100r2").loopback
        )
        walk = ["as300r2"] + trace.machines()
        for left, right in zip(walk, walk[1:]):
            assert right in si_lab.network.neighbors_of(left), (left, right)

    def test_forward_and_reverse_paths_consistent(self, si_lab):
        forward = si_lab.dataplane.trace(
            "as20r1", si_lab.network.device("as300r3").loopback
        )
        backward = si_lab.dataplane.trace(
            "as300r3", si_lab.network.device("as20r1").loopback
        )
        assert forward.reached and backward.reached

    def test_ping_true_false(self, si_lab):
        assert si_lab.dataplane.ping("as1r1", si_lab.network.device("as200r1").loopback)
        assert not si_lab.dataplane.ping("as1r1", "198.51.100.1")

    def test_ping_outlives_the_traceroute_hop_cap(self):
        """34 hops down an OSPF chain: past traceroute's 30, inside a
        default TTL of 64."""
        from repro.emulation.dataplane import Dataplane
        from repro.emulation.network import EmulatedNetwork
        from repro.emulation.ospf_engine import IgpState
        from tests.emulation.synthetic_bgp import core_lab, core_name, loopback

        network = EmulatedNetwork(core_lab(35))
        dataplane = Dataplane(network, IgpState(network))
        far_end = loopback(34)
        assert dataplane.ping(core_name(0), far_end)
        trace = dataplane.trace(core_name(0), far_end)
        assert not trace.reached
        assert trace.reason == "max hops exceeded"
        assert len(trace.hops) == 30


class TestVirtualMachine:
    def test_traceroute_numeric_output_shape(self, si_lab):
        out = si_lab.vm("as300r2").run("traceroute -naU 192.168.128.2")
        lines = out.splitlines()
        assert lines[0].startswith("traceroute to 192.168.128.2")
        assert lines[-1].strip().endswith("ms")
        assert "192.168.128.2" in lines[-1]

    def test_traceroute_rtts_deterministic(self, si_lab):
        first = si_lab.vm("as300r2").run("traceroute -naU 192.168.128.2")
        second = si_lab.vm("as300r2").run("traceroute -naU 192.168.128.2")
        assert first == second

    def test_traceroute_by_hostname_via_dns(self, si_lab):
        out = si_lab.vm("as100r2").run("traceroute -naU as100r3")
        assert "traceroute to as100r3" in out

    def test_traceroute_with_reverse_dns(self, si_lab):
        out = si_lab.vm("as100r2").run("traceroute -aU 192.168.128.3")
        assert "as100r3.as100.lab" in out

    def test_traceroute_unreachable_stars(self, si_lab):
        out = si_lab.vm("as100r1").run("traceroute -naU 198.51.100.9")
        assert "* * *" in out

    def test_ping_output(self, si_lab):
        out = si_lab.vm("as100r1").run("ping -c 1 192.168.128.2")
        assert "1 packets transmitted, 1 received, 0% packet loss" in out

    def test_ping_loss(self, si_lab):
        out = si_lab.vm("as100r1").run("ping -c 1 198.51.100.9")
        assert "0 received, 100% packet loss" in out

    def test_show_ip_ospf_neighbor(self, si_lab):
        out = si_lab.vm("as100r1").run("show ip ospf neighbor")
        assert out.splitlines()[0].startswith("Neighbor ID")
        assert len(out.splitlines()) == 3  # two OSPF neighbours

    def test_show_ip_bgp_summary(self, si_lab):
        out = si_lab.vm("as100r1").run("show ip bgp summary")
        assert "local AS number 100" in out
        assert "10.1.0.10" in out  # the eBGP peer

    def test_show_ip_bgp_table(self, si_lab):
        out = si_lab.vm("as100r1").run("show ip bgp")
        assert "Network" in out
        assert "*>" in out

    def test_show_ip_route_protocols(self, si_lab):
        out = si_lab.vm("as100r1").run("show ip route")
        assert any(line.startswith("C>*") for line in out.splitlines())
        assert any(line.startswith("O>*") for line in out.splitlines())
        assert any(line.startswith("B>*") for line in out.splitlines())

    def test_hostname_command(self, si_lab):
        assert si_lab.vm("as100r1").run("hostname") == "as100r1"

    def test_nslookup_forward_and_reverse(self, si_lab):
        forward = si_lab.vm("as100r2").run("nslookup as100r1")
        assert "192.168.128.1" in forward
        reverse = si_lab.vm("as100r2").run("nslookup 192.168.128.1")
        assert "as100r1.as100.lab" in reverse

    def test_nslookup_missing_name(self, si_lab):
        assert "NXDOMAIN" in si_lab.vm("as100r2").run("nslookup nosuchhost")

    def test_unknown_command_raises(self, si_lab):
        with pytest.raises(MeasurementError):
            si_lab.vm("as100r1").run("reboot now")

    def test_unresolvable_target_raises(self, si_lab):
        with pytest.raises(MeasurementError, match="cannot resolve"):
            si_lab.vm("as100r1").run("traceroute -naU not.a.real.name.example")


class TestAdditionalShowCommands:
    def test_show_ip_interface_brief(self, si_lab):
        out = si_lab.vm("as100r1").run("show ip interface brief")
        lines = out.splitlines()
        assert lines[0].startswith("Interface")
        assert any(line.startswith("lo ") for line in lines)
        assert any("unassigned" not in line for line in lines[1:])

    def test_show_version_per_vendor(self, si_lab, gadget_lab_ios):
        assert "Quagga" in si_lab.vm("as100r1").run("show version")
        assert "Cisco IOS" in gadget_lab_ios.vm("rr1").run("show version")

    def test_show_running_config_reads_rendered_files(self, si_lab):
        out = si_lab.vm("as100r1").run("show running-config")
        assert "! file: bgpd.conf" in out
        assert "router bgp 100" in out
        assert "! file: ospfd.conf" in out

    def test_show_run_alias(self, si_lab):
        assert si_lab.vm("as30r1").run("show run") == si_lab.vm("as30r1").run(
            "show running-config"
        )

    def test_show_running_config_ios(self, gadget_lab_ios):
        out = gadget_lab_ios.vm("rr1").run("show running-config")
        assert "! file: rr1.cfg" in out
        assert "router bgp 100" in out

    def test_running_config_unavailable_for_intent_labs(self, si_lab):
        from repro.emulation import EmulatedLab

        rebuilt = EmulatedLab(si_lab.intent)
        out = rebuilt.vm("as100r1").run("show running-config")
        assert "unavailable" in out
