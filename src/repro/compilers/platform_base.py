"""Platform compiler base (§5.4).

"The platform compiler module constructs information needed by a
particular emulation platform, allocates platform specified
information, such as interface names ..., and management IP addresses,
and performs platform based formatting, such as removing any invalid
characters from hostnames.  ...  The platform compiler module then
calls the per-device compilers."

Subclasses define the interface-naming scheme, hostname rules, the
device-syntax compilers they support, and the render entries (which
templates produce which output files).
"""

from __future__ import annotations

import ipaddress
import re
from typing import Iterator

from repro.anm import AbstractNetworkModel
from repro.compilers.base import DeviceCompiler, RouterCompiler, ServerCompiler
from repro.design.ip_addressing import domain_between, interface_address
from repro.exceptions import CompilerError, NodeNotFoundError
from repro.nidb import DeviceModel, Nidb
from repro.observability import metric_inc, span

#: Management (TAP) block used for host-to-VM connectivity (§5.4).
DEFAULT_TAP_BLOCK = "172.16.0.0/16"

#: Device types that become emulated machines (switches become
#: collision domains instead).
MACHINE_TYPES = ("router", "server", "external")


class PlatformCompiler:
    """Base class turning a designed ANM into a NIDB for one platform."""

    platform = "base"
    default_syntax = "quagga"

    def __init__(self, anm: AbstractNetworkModel, host: str = "localhost"):
        self.anm = anm
        self.host = host
        self._device_compilers: dict[str, DeviceCompiler] = {}

    # -- hooks for subclasses -------------------------------------------------
    def interface_names(self) -> Iterator[str]:
        """Yield physical interface names in platform order."""
        index = 0
        while True:
            yield "eth%d" % index
            index += 1

    def loopback_name(self) -> str:
        return "lo0"

    def format_hostname(self, node_id) -> str:
        """Remove characters the platform's hostnames cannot contain."""
        hostname = re.sub(r"[^A-Za-z0-9_-]", "_", str(node_id))
        return hostname or "device"

    def device_compiler_for(self, syntax: str) -> DeviceCompiler:
        """The device compiler for a syntax, cached per platform run."""
        if syntax not in self._device_compilers:
            compiler_cls = self.syntax_compilers().get(syntax)
            if compiler_cls is None:
                raise CompilerError(
                    "platform %r does not support device syntax %r"
                    % (self.platform, syntax)
                )
            self._device_compilers[syntax] = compiler_cls(self.anm, self.nidb)
        return self._device_compilers[syntax]

    def syntax_compilers(self) -> dict[str, type]:
        """Mapping of device syntax name to compiler class."""
        return {"generic": RouterCompiler, "linux": ServerCompiler}

    def render_device(self, device: DeviceModel) -> None:
        """Attach the per-device render entries (template -> output path)."""
        device.render = {"base": "templates", "dst_folder": str(device.node_id), "files": []}

    def render_topology(self) -> None:
        """Attach platform-level render entries (lab.conf and friends)."""
        self.nidb.topology.render = {"files": []}

    # -- main entry -------------------------------------------------------------
    def compile(self, only: set | None = None) -> Nidb:
        """Create and fill the NIDB for this platform.

        ``only`` restricts compilation to the named devices — the
        multi-host path (§5.4) uses it to build one lab per
        (host, platform) target.
        """
        self.nidb = Nidb()
        g_phy = self.anm["phy"]
        g_ip = self.anm["ipv4"] if self.anm.has_overlay("ipv4") else None
        if g_ip is None:
            raise CompilerError("the ipv4 overlay must be designed before compiling")

        machines = sorted(
            (
                node
                for node in g_phy
                if node.get("device_type") in MACHINE_TYPES
                and (only is None or str(node.node_id) in only)
            ),
            key=lambda node: str(node.node_id),
        )
        tap_hosts = ipaddress.ip_network(DEFAULT_TAP_BLOCK).hosts()
        next(tap_hosts)  # first host is the emulation host's end

        for phy_node in machines:
            device = self.nidb.add_device(
                phy_node.node_id,
                hostname=self.format_hostname(phy_node.node_id),
                device_type=phy_node.device_type,
                asn=phy_node.asn,
                platform=self.platform,
                syntax=self._syntax_of(phy_node),
                host=self.host,
                label=phy_node.label,
            )
            if g_ip.has_node(phy_node):
                device.loopback = g_ip.node(phy_node).loopback
            device.tap = {"ip": str(next(tap_hosts))}
            self.allocate_interfaces(phy_node, device, g_phy, g_ip)

        for phy_node in machines:
            device = self.nidb.node(phy_node)
            syntax = device.syntax
            if device.device_type == "server":
                syntax = "linux"
            with span(
                "compile.%s" % device.hostname,
                device=str(phy_node.node_id),
                syntax=syntax,
                platform=self.platform,
            ):
                self.device_compiler_for(syntax).compile(phy_node, device)
                self.render_device(device)
            metric_inc("compile.devices_compiled")

        self._add_links(machines, g_phy, g_ip)
        members = collision_domain_members(self.anm)
        local_names = {str(node.node_id) for node in machines}
        self.nidb.topology.collision_domains = {
            domain: [str(device) for device, _ in attached]
            for domain, attached in sorted(members.items())
            if any(str(device) in local_names for device, _ in attached)
        }
        self.render_topology()
        self.nidb.topology.platform = self.platform
        self.nidb.topology.host = self.host
        return self.nidb

    def _syntax_of(self, phy_node) -> str:
        syntax = phy_node.get("syntax") or self.default_syntax
        if syntax not in self.syntax_compilers():
            syntax = self.default_syntax
        return syntax

    # -- interfaces ---------------------------------------------------------
    def allocate_interfaces(self, phy_node, device: DeviceModel, g_phy, g_ip) -> None:
        """Create the device's interface records, in neighbour-id order."""
        names = self.interface_names()
        g_ip6 = self.anm["ipv6"] if self.anm.has_overlay("ipv6") else None
        if g_ip6 is not None and g_ip6.has_node(phy_node):
            device.loopback_v6 = g_ip6.node(phy_node).loopback
        if device.device_type == "router" and device.loopback is not None:
            loopback = device.add_interface(
                id=self.loopback_name(),
                category="loopback",
                description="loopback",
                ip_address=device.loopback,
                prefixlen=32,
                subnet="%s/32" % device.loopback,
            )
            if device.loopback_v6 is not None:
                loopback.ipv6_address = device.loopback_v6
                loopback.ipv6_prefixlen = 128
                loopback.ipv6_subnet = "%s/128" % device.loopback_v6
        g_ospf = self.anm["ospf"] if self.anm.has_overlay("ospf") else None
        node_id = phy_node.node_id
        neighbors = sorted(
            g_phy.node(phy_node).neighbors(), key=lambda neighbor: str(neighbor.node_id)
        )
        for neighbor in neighbors:
            domain = domain_between(g_ip, node_id, neighbor.node_id)
            if domain is None:
                continue
            try:
                address, prefixlen = interface_address(g_ip, node_id, domain)
            except NodeNotFoundError:
                # the domain comes from the switch map: this device is not on it
                continue
            if address is None:
                raise CompilerError(
                    "%s has no %s address on collision domain %s"
                    % (node_id, g_ip.overlay_id, domain.node_id)
                )
            ospf_cost, area = self._igp_parameters(g_ospf, phy_node, neighbor)
            interface = device.add_interface(
                id=next(names),
                category="physical",
                description="%s to %s" % (phy_node.node_id, neighbor.node_id),
                ip_address=address,
                prefixlen=prefixlen,
                subnet=str(domain.subnet),
                collision_domain=str(domain.node_id),
                neighbor=neighbor.node_id,
                ospf_cost=ospf_cost,
                area=area,
                igp_active=(domain.asn == phy_node.asn),
            )
            if g_ip6 is not None and g_ip6.has_node(phy_node):
                domain_v6 = domain_between(g_ip6, phy_node.node_id, neighbor.node_id)
                if domain_v6 is not None:
                    address_v6, prefixlen_v6 = interface_address(
                        g_ip6, phy_node.node_id, domain_v6
                    )
                    interface.ipv6_address = address_v6
                    interface.ipv6_prefixlen = prefixlen_v6
                    interface.ipv6_subnet = str(domain_v6.subnet)

    def _igp_parameters(self, g_ospf, phy_node, neighbor):
        if g_ospf is None or not g_ospf.has_node(phy_node):
            return 1, 0
        if g_ospf.has_node(neighbor) and g_ospf.has_edge(phy_node, neighbor):
            edge = g_ospf.edge(phy_node, neighbor)
            return edge.ospf_cost or 1, edge.area if edge.area is not None else 0
        node = g_ospf.node(phy_node)
        return 1, node.area if node.area is not None else 0

    def _add_links(self, machines, g_phy, g_ip) -> None:
        for phy_node in machines:
            for neighbor in g_phy.node(phy_node).neighbors():
                if str(neighbor.node_id) <= str(phy_node.node_id):
                    continue
                if not self.nidb.has_node(neighbor):
                    continue
                domain = domain_between(g_ip, phy_node.node_id, neighbor.node_id)
                self.nidb.add_link(
                    phy_node.node_id,
                    neighbor.node_id,
                    collision_domain=str(domain.node_id) if domain else None,
                )


def collision_domain_members(anm: AbstractNetworkModel) -> dict[str, list[tuple]]:
    """Mapping of collision-domain id to [(device id, interface ip)].

    Platform compilers use this to emit the machine-to-segment wiring
    (for example Netkit's ``lab.conf``).
    """
    g_ip = anm["ipv4"]
    members: dict[str, list[tuple]] = {}
    for node in g_ip:
        if not node.collision_domain:
            continue
        attached = sorted(node.neighbors(), key=lambda device: str(device.node_id))
        members[str(node.node_id)] = [
            (device.node_id, interface_address(g_ip, device.node_id, node)[0])
            for device in attached
        ]
    return members
