"""Virtual machines: realistic command execution on emulated devices.

Each machine of a booted lab is wrapped in a :class:`VirtualMachine`
whose :meth:`run` accepts the same command strings a measurement client
would send over the management network — ``traceroute -naU``, ``ping``,
``show ip ospf neighbor``, ``show ip bgp summary`` — and returns
realistic text output.  The measurement layer then parses that text
with textfsm-lite, closing the same loop as the paper (§5.7): results
come back as *text*, not API objects.
"""

from __future__ import annotations

import ipaddress
from collections import Counter
from typing import Optional

from repro.emulation.intent import DeviceIntent
from repro.exceptions import MeasurementError


def _rtt(seed: str, sample: int) -> str:
    """Deterministic pseudo-RTT so output is stable across runs."""
    value = (hash_str(seed) + sample * 37) % 900 + 50
    return "%.3f" % (value / 1000.0)


def hash_str(text: str) -> int:
    value = 0
    for char in text:
        value = (value * 131 + ord(char)) % 1000003
    return value


class VirtualMachine:
    """One booted machine, addressable by name."""

    def __init__(self, lab, name: str):
        self.lab = lab
        self.name = name

    @property
    def intent(self) -> DeviceIntent:
        return self.lab.network.device(self.name)

    # -- command dispatch ------------------------------------------------------
    def run(self, command: str) -> str:
        """Execute a command string and return its text output."""
        parts = command.split()
        if not parts:
            raise MeasurementError("empty command")
        if parts[0] == "traceroute":
            target = parts[-1]
            numeric = any(flag.startswith("-") and "n" in flag for flag in parts[1:-1])
            return self.traceroute(target, numeric=numeric)
        if parts[0] == "ping":
            return self.ping(parts[-1])
        if parts[0] == "hostname":
            return self.intent.hostname or self.name
        if parts[:4] == ["show", "ip", "ospf", "neighbor"]:
            return self.show_ip_ospf_neighbor()
        if parts[:4] == ["show", "ip", "bgp", "summary"]:
            return self.show_ip_bgp_summary()
        if parts[:3] == ["show", "ip", "bgp"]:
            return self.show_ip_bgp()
        if parts[:3] == ["show", "ip", "route"]:
            return self.show_ip_route()
        if parts[:4] == ["show", "ip", "interface", "brief"]:
            return self.show_ip_interface_brief()
        if parts[:2] == ["show", "version"]:
            return self.show_version()
        if parts[:2] == ["show", "running-config"] or parts[:2] == ["show", "run"]:
            return self.show_running_config()
        if parts[0] in ("nslookup", "host"):
            return self.nslookup(parts[-1])
        raise MeasurementError("unsupported command %r" % command)

    # -- name/address helpers ----------------------------------------------------
    def _target_address(self, target: str) -> ipaddress.IPv4Address:
        try:
            return ipaddress.ip_address(target)
        except ValueError:
            resolved = self.lab.dns.resolve(target, client=self.name)
            if resolved is None:
                raise MeasurementError(
                    "%s: cannot resolve %r" % (self.name, target)
                ) from None
            return ipaddress.ip_address(resolved)

    def _display(self, address: str, numeric: bool) -> str:
        if numeric:
            return address
        name = self.lab.dns.reverse(address)
        return "%s (%s)" % (name, address) if name else address

    # -- probes -------------------------------------------------------------------
    def traceroute(self, target: str, numeric: bool = True) -> str:
        destination = self._target_address(target)
        trace = self.lab.dataplane.trace(self.name, destination)
        lines = [
            "traceroute to %s (%s), 30 hops max, 60 byte packets"
            % (target, destination)
        ]
        for index, (machine, address) in enumerate(trace.hops, start=1):
            rtts = "  ".join(
                "%s ms" % _rtt("%s%s%d" % (machine, address, index), sample)
                for sample in range(3)
            )
            lines.append(
                "%2d  %s  %s" % (index, self._display(address, numeric), rtts)
            )
        if not trace.reached:
            lines.append("%2d  * * *" % (len(trace.hops) + 1))
        return "\n".join(lines)

    def ping(self, target: str) -> str:
        destination = self._target_address(target)
        reached = self.lab.dataplane.ping(self.name, destination)
        received = 1 if reached else 0
        lines = ["PING %s (%s) 56(84) bytes of data." % (target, destination)]
        if reached:
            lines.append(
                "64 bytes from %s: icmp_seq=1 ttl=64 time=%s ms"
                % (destination, _rtt(str(destination), 1))
            )
        lines.append("")
        lines.append("--- %s ping statistics ---" % destination)
        lines.append(
            "1 packets transmitted, %d received, %d%% packet loss"
            % (received, (1 - received) * 100)
        )
        return "\n".join(lines)

    # -- show commands -----------------------------------------------------------
    def show_ip_ospf_neighbor(self) -> str:
        lines = [
            "Neighbor ID     Pri State           Dead Time Address         Interface"
        ]
        for neighbor_name, _ in self.lab.igp.neighbors(self.name):
            neighbor = self.lab.network.device(neighbor_name)
            router_id = (
                neighbor.ospf.router_id
                if neighbor.ospf and neighbor.ospf.router_id
                else str(neighbor.loopback or "0.0.0.0")
            )
            address = self.lab.network.address_on_segment_with(neighbor_name, self.name)
            interface = self._interface_towards(neighbor_name)
            lines.append(
                "%-15s %3d Full/DR         00:00:35  %-15s %s"
                % (router_id, 1, address, interface or "?")
            )
        return "\n".join(lines)

    def _interface_towards(self, neighbor_name: str) -> Optional[str]:
        for segment in self.lab.network.shared_segments(self.name, neighbor_name):
            interface = segment.interface_of(self.name)
            if interface is not None:
                return interface.name
        return None

    def show_ip_bgp_summary(self) -> str:
        device = self.intent
        if device.bgp is None:
            return "% BGP not active"
        lines = [
            "BGP router identifier %s, local AS number %d"
            % (device.bgp.router_id or device.loopback, device.bgp.asn),
            "Neighbor        V    AS MsgRcvd MsgSent   TblVer  InQ OutQ Up/Down  State/PfxRcd",
        ]
        selected = self.lab.bgp_result.selected.get(self.name, {})
        # prefixes received per peer machine, in one pass over the table;
        # a neighbour that matches no machine (owner None) gets the count
        # of locally originated routes, whose learned_from is None
        received_from = Counter(route.learned_from for route in selected.values())
        for neighbor in device.bgp.neighbors:
            received = received_from[self.lab.network.owner_of(neighbor.peer_ip)]
            lines.append(
                "%-15s 4 %5d %7d %7d %8d %4d %4d %s %8d"
                % (
                    neighbor.peer_ip,
                    neighbor.remote_asn,
                    self.lab.bgp_result.rounds,
                    self.lab.bgp_result.rounds,
                    0,
                    0,
                    0,
                    "00:01:00",
                    received,
                )
            )
        return "\n".join(lines)

    def show_ip_bgp(self) -> str:
        device = self.intent
        if device.bgp is None:
            return "% BGP not active"
        lines = [
            "BGP table version is 1, local router ID is %s"
            % (device.bgp.router_id or device.loopback),
            "   Network          Next Hop            Metric LocPrf Weight Path",
        ]
        selected = self.lab.bgp_result.selected.get(self.name, {})
        for prefix in sorted(selected, key=lambda p: (p.network_address, p.prefixlen)):
            route = selected[prefix]
            path = " ".join(str(asn) for asn in route.as_path)
            next_hop = str(route.next_hop) if route.next_hop else "0.0.0.0"
            weight = 32768 if route.learned_via == "local" else 0
            lines.append(
                "*> %-16s %-18s %6d %6d %6d %s i"
                % (prefix, next_hop, route.med or 0, route.local_pref, weight, path)
            )
        return "\n".join(lines)

    def show_ip_route(self) -> str:
        lines = []
        for network_ in sorted(
            self.lab.network.connected_networks(self.name),
            key=lambda n: (n.network_address, n.prefixlen),
        ):
            lines.append("C>* %s is directly connected" % network_)
        igp_routes = self.lab.igp.routes(self.name)
        for prefix in sorted(igp_routes, key=lambda p: (p.network_address, p.prefixlen)):
            route = igp_routes[prefix]
            via = self.lab.network.address_on_segment_with(route.next_hop, self.name)
            lines.append("O>* %s [110/%d] via %s" % (prefix, route.metric, via))
        selected = self.lab.bgp_result.selected.get(self.name, {})
        for prefix in sorted(selected, key=lambda p: (p.network_address, p.prefixlen)):
            route = selected[prefix]
            if route.learned_via == "local":
                continue
            distance = 20 if route.learned_via == "ebgp" else 200
            lines.append(
                "B>* %s [%d/0] via %s" % (prefix, distance, route.next_hop)
            )
        return "\n".join(lines)

    def show_ip_interface_brief(self) -> str:
        lines = ["Interface       IP-Address      OK? Method Status                Protocol"]
        for interface in self.intent.interfaces:
            address = str(interface.ip_address) if interface.ip_address else "unassigned"
            lines.append(
                "%-15s %-15s YES manual up                    up"
                % (interface.name, address)
            )
        return "\n".join(lines)

    def show_version(self) -> str:
        vendor = self.intent.vendor
        banner = {
            "quagga": "Quagga 0.99.22 (zebra/ospfd/bgpd/isisd)",
            "ios": "Cisco IOS Software, 7200 Software (C7200-ADVENTERPRISEK9-M)",
            "junos": "JUNOS Base OS boot [12.1R1.9]",
            "cbgp": "C-BGP routing solver 2.3.2",
        }.get(vendor, vendor)
        return "%s\n%s uptime is 1 minute" % (banner, self.intent.hostname or self.name)

    def show_running_config(self) -> str:
        """The device's actual configuration files, read back from disk."""
        import glob
        import os

        lab_dir = self.lab.lab_dir
        if lab_dir is None:
            return "%% configuration archive unavailable (lab built from intent)"
        platform = self.lab.intent.platform
        if platform == "netkit":
            paths = sorted(
                glob.glob(os.path.join(lab_dir, self.name, "etc", "quagga", "*.conf"))
            )
        elif platform == "dynagen":
            paths = [os.path.join(lab_dir, "configs", "%s.cfg" % self.name)]
        elif platform == "junosphere":
            paths = [os.path.join(lab_dir, "configs", "%s.conf" % self.name)]
        else:
            paths = [os.path.join(lab_dir, "network.cli")]
        sections = []
        for path in paths:
            if os.path.exists(path):
                with open(path) as handle:
                    sections.append(
                        "! file: %s\n%s" % (os.path.basename(path), handle.read())
                    )
        if not sections:
            return "%% no configuration files found"
        return "\n".join(sections)

    def nslookup(self, target: str) -> str:
        try:
            address = ipaddress.ip_address(target)
        except ValueError:
            resolved = self.lab.dns.resolve(target, client=self.name)
            if resolved is None:
                return "** server can't find %s: NXDOMAIN" % target
            return "Name:\t%s\nAddress: %s" % (target, resolved)
        name = self.lab.dns.reverse(address)
        if name is None:
            return "** server can't find %s: NXDOMAIN" % target
        return "%s.in-addr.arpa\tname = %s." % (
            ".".join(reversed(str(address).split("."))),
            name,
        )

    def __repr__(self) -> str:
        return "VirtualMachine(%s)" % self.name
