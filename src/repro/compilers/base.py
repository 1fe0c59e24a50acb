"""Device compiler base classes (§5.4).

"The generic router compiler consists of base functions: compile(),
ospf(), interfaces().  These can be overwritten in the inherited device
compilers, extended by calling the super() module, or added to for new
overlays."

The platform compiler (see ``platform_base``) creates the NIDB devices
and allocates their interfaces (names are platform semantics); the
device compiler then condenses the protocol overlays into the nested
stanzas the templates consume: ``ospf``, ``bgp``, ``isis``, ``dns``,
``rpki``.
"""

from __future__ import annotations

import sys

from repro.anm import AbstractNetworkModel
from repro.design.ip_addressing import domain_between, interface_address
from repro.exceptions import CompilerError
from repro.nidb import DeviceModel, Nidb

DEFAULT_ZEBRA_PASSWORD = "1234"


class DeviceCompiler:
    """Base for all device compilers: wiring plus no-op protocol hooks."""

    syntax = "base"

    def __init__(self, anm: AbstractNetworkModel, nidb: Nidb):
        self.anm = anm
        self.nidb = nidb

    # Convenience overlay handles (absent overlays read as None).
    def overlay(self, overlay_id: str):
        if self.anm.has_overlay(overlay_id):
            return self.anm[overlay_id]
        return None

    def compile(self, phy_node, device: DeviceModel) -> None:
        raise NotImplementedError


class RouterCompiler(DeviceCompiler):
    """The generic router compiler (§5.4)."""

    syntax = "generic"

    def compile(self, phy_node, device: DeviceModel) -> None:
        """Condense every routing/service overlay into device stanzas."""
        self.system(phy_node, device)
        self.ospf(phy_node, device)
        self.isis(phy_node, device)
        self.bgp(phy_node, device)
        self.dns(phy_node, device)
        self.rpki_client(phy_node, device)

    # -- base functions ----------------------------------------------------
    def system(self, phy_node, device: DeviceModel) -> None:
        device.zebra = {
            "hostname": device.hostname,
            "password": DEFAULT_ZEBRA_PASSWORD,
        }

    def ospf(self, phy_node, device: DeviceModel) -> None:
        g_ospf = self.overlay("ospf")
        if g_ospf is None or not g_ospf.has_node(phy_node):
            return
        ospf_node = g_ospf.node(phy_node)
        if not ospf_node.edges():
            return
        links = []
        for interface in device.physical_interfaces():
            if not interface.igp_active:
                continue
            links.append(
                {
                    "network": interface.subnet,
                    "area": interface.area if interface.area is not None else 0,
                    "cost": interface.ospf_cost or 1,
                    "interface": interface.id,
                }
            )
        loopback = device.loopback_interface()
        if loopback is not None:
            links.append(
                {
                    # The loopback sits in the router's home area, so a
                    # pure area-N internal router stays out of area 0.
                    "network": "%s/32" % loopback.ip_address,
                    "area": ospf_node.area if ospf_node.area is not None else 0,
                    "cost": 1,
                    "interface": loopback.id,
                }
            )
        device.ospf = {
            "process_id": ospf_node.process_id or 1,
            "router_id": str(device.loopback),
            "ospf_links": links,
        }

    def isis(self, phy_node, device: DeviceModel) -> None:
        # The "15 lines in the compiler" of §7: condense the isis
        # overlay node and its interfaces into a device stanza.
        g_isis = self.overlay("isis")
        if g_isis is None or not g_isis.has_node(phy_node):
            return
        isis_node = g_isis.node(phy_node)
        if not isis_node.edges():
            return
        metric_by_neighbor = {
            edge.other_end(isis_node).node_id: edge.isis_metric for edge in isis_node.edges()
        }
        interfaces = [
            {"id": i.id, "metric": metric_by_neighbor.get(i.neighbor, 10)}
            for i in device.physical_interfaces()
            if i.igp_active
        ]
        device.isis = {
            "process_id": isis_node.isis_process_id or 1,
            "net": "%s.%s.00" % (isis_node.isis_area, isis_node.isis_system_id),
            "interfaces": interfaces,
        }

    def bgp(self, phy_node, device: DeviceModel) -> None:
        g_ebgp = self.overlay("ebgp")
        g_ibgp = self.overlay("ibgp")
        g_ip = self.overlay("ipv4")
        ebgp_neighbors = self._ebgp_neighbors(phy_node, device, g_ebgp, g_ip)
        ibgp_neighbors = self._ibgp_neighbors(phy_node, device, g_ibgp, g_ip)
        networks = list(phy_node.prefixes or [])
        if not (ebgp_neighbors or ibgp_neighbors or networks):
            return
        # BGP speakers originate their AS's allocated blocks so other
        # ASes learn how to reach the infrastructure and loopbacks.
        if (ebgp_neighbors or ibgp_neighbors) and g_ip is not None:
            for blocks_name in ("infra_blocks", "loopback_blocks"):
                blocks = g_ip.data.get(blocks_name) or {}
                block = blocks.get(device.asn)
                if block is not None and str(block) not in networks:
                    networks.append(str(block))
        device.bgp = {
            "asn": device.asn,
            "router_id": str(device.loopback),
            "networks": networks,
            "ebgp_neighbors": ebgp_neighbors,
            "ibgp_neighbors": ibgp_neighbors,
        }

    def _ebgp_neighbors(self, phy_node, device, g_ebgp, g_ip) -> list[dict]:
        if g_ebgp is None or g_ip is None or not g_ebgp.has_node(phy_node):
            return []
        neighbors = []
        raw = g_ebgp._graph
        for _, neighbor_id, data in sorted(
            raw.out_edges(phy_node.node_id, data=True), key=lambda item: str(item[1])
        ):
            domain = domain_between(g_ip, phy_node.node_id, neighbor_id)
            if domain is None:
                raise CompilerError(
                    "no collision domain between eBGP peers %s and %s"
                    % (phy_node.node_id, neighbor_id)
                )
            neighbor_ip, _ = interface_address(g_ip, neighbor_id, domain)
            neighbor_phy = self.anm["phy"].node(neighbor_id)
            neighbor_loopback = g_ip.node(neighbor_id).loopback
            neighbors.append(
                {
                    "neighbor": str(neighbor_id),
                    "neighbor_ip": str(neighbor_ip),
                    "neighbor_loopback": str(neighbor_loopback) if neighbor_loopback else None,
                    "remote_asn": neighbor_phy.asn,
                    "description": "eBGP to %s (AS %s)" % (neighbor_id, neighbor_phy.asn),
                    "is_ebgp": True,
                    "local_pref": data.get("local_pref"),
                    "med": data.get("med"),
                    "as_path_prepend": data.get("as_path_prepend"),
                    "community": data.get("community"),
                    "deny_prefixes_out": list(data.get("deny_prefixes_out") or []),
                    "deny_prefixes_in": list(data.get("deny_prefixes_in") or []),
                }
            )
        return neighbors

    def _ibgp_neighbors(self, phy_node, device, g_ibgp, g_ip) -> list[dict]:
        if g_ibgp is None or g_ip is None or not g_ibgp.has_node(phy_node):
            return []
        node = g_ibgp.node(phy_node)
        neighbors = []
        raw = g_ibgp._graph
        for _, neighbor_id, data in sorted(
            raw.out_edges(phy_node.node_id, data=True), key=lambda item: str(item[1])
        ):
            neighbor_loopback = g_ip.node(neighbor_id).loopback
            if neighbor_loopback is None:
                raise CompilerError(
                    "iBGP neighbor %s has no loopback allocated" % (neighbor_id,)
                )
            # interned: a full mesh names every router once per other router
            loopback = sys.intern(str(neighbor_loopback))
            neighbors.append(
                {
                    "neighbor": str(neighbor_id),
                    "neighbor_ip": loopback,
                    "neighbor_loopback": loopback,
                    "remote_asn": device.asn,
                    "description": sys.intern("iBGP to %s" % (neighbor_id,)),
                    "is_ebgp": False,
                    "update_source": "lo0",
                    # next-hop-self defaults on: iBGP-learned external
                    # routes must have an IGP-resolvable next hop, and
                    # inter-AS link subnets are not in the IGP.
                    "next_hop_self": (
                        True
                        if phy_node.bgp_next_hop_self is None
                        else bool(phy_node.bgp_next_hop_self)
                    ),
                    "rr_client": data.get("session_type") == "down",
                    "session_type": data.get("session_type", "peer"),
                    "cluster_id": phy_node.rr_cluster if phy_node.rr else None,
                }
            )
        return neighbors

    def dns(self, phy_node, device: DeviceModel) -> None:
        g_dns = self.overlay("dns")
        g_ip = self.overlay("ipv4")
        if g_dns is None or g_ip is None or not g_dns.has_node(phy_node):
            return
        dns_node = g_dns.node(phy_node)
        server = self._dns_server_of(dns_node)
        if server is None:
            return
        resolver_ip = self._primary_address(server.node_id, g_ip)
        device.dns_client = {
            "resolver": str(resolver_ip),
            "domain": dns_node.zone,
        }
        if not dns_node.dns_server:
            return
        members = [dns_node] + [
            edge.dst for edge in dns_node.edges(type="dns_client") if edge.src == dns_node
        ]
        records = []
        for member in sorted(members, key=lambda n: str(n.node_id)):
            address = self._primary_address(member.node_id, g_ip)
            if address is not None:
                records.append({"name": str(member.node_id), "ip": str(address)})
        reverse_records = [
            {
                "ptr": _reverse_name(record["ip"]),
                "name": "%s.%s." % (record["name"], dns_node.zone),
            }
            for record in records
        ]
        device.dns = {
            "zone": dns_node.zone,
            "records": records,
            "reverse_records": reverse_records,
        }

    def rpki_client(self, phy_node, device: DeviceModel) -> None:
        g_rpki = self.overlay("rpki")
        if g_rpki is None or not g_rpki.has_node(phy_node):
            return
        rpki_node = g_rpki.node(phy_node)
        caches = _far_ends(rpki_node, "rtr_feed")
        if caches:
            device.rpki = {"role": "rtr_client", "cache": caches[0]}

    def _dns_server_of(self, dns_node):
        if dns_node.dns_server:
            return dns_node
        for edge in dns_node.edges(type="dns_client"):
            if edge.dst == dns_node:
                return edge.src
        return None

    def _primary_address(self, node_id, g_ip):
        node = g_ip.node(node_id)
        if node.loopback is not None:
            return node.loopback
        for domain in node.neighbors():
            if domain.collision_domain:
                address, _ = interface_address(g_ip, node_id, domain)
                return address
        return None


class ServerCompiler(DeviceCompiler):
    """Compiler for server devices: addressing, resolver, and services."""

    syntax = "linux"

    def compile(self, phy_node, device: DeviceModel) -> None:
        self.dns_client(phy_node, device)
        self.rpki(phy_node, device)

    def dns_client(self, phy_node, device: DeviceModel) -> None:
        RouterCompiler.dns(self, phy_node, device)  # reuse record logic

    # RouterCompiler.dns needs these two helpers; share them.
    _dns_server_of = RouterCompiler._dns_server_of
    _primary_address = RouterCompiler._primary_address

    def rpki(self, phy_node, device: DeviceModel) -> None:
        g_rpki = self.overlay("rpki")
        if g_rpki is None or not g_rpki.has_node(phy_node):
            return
        rpki_node = g_rpki.node(phy_node)
        service = rpki_node.service
        if service == "rpki_ca":
            publishes_to = _far_ends(rpki_node, "publishes_to")
            parent = _far_ends(rpki_node, "ca_parent")
            device.rpki = {
                "role": "ca",
                "is_root": bool(rpki_node.ca_root),
                "parent": parent[0] if parent else None,
                "resources": list(rpki_node.resources or []),
                "roas": [dict(roa) for roa in (rpki_node.roas or [])],
                "publication_point": publishes_to[0] if publishes_to else None,
            }
        elif service == "rpki_publication":
            publishers = _far_ends(rpki_node, "publishes_to", incoming=True)
            device.rpki = {"role": "publication", "publishers": sorted(publishers)}
        elif service == "rpki_cache":
            fetches = _far_ends(rpki_node, "fetches_from")
            clients = _far_ends(rpki_node, "rtr_feed", incoming=True)
            device.rpki = {
                "role": "cache",
                "fetches_from": fetches[0] if fetches else None,
                "rtr_clients": sorted(clients),
            }


def _far_ends(node, edge_type: str, incoming: bool = False) -> list[str]:
    """Ids across ``node``'s own ``edge_type`` edges: heads of its
    out-edges, or tails of its in-edges with ``incoming``."""
    node_id = node.node_id
    if incoming:
        return [
            str(edge.src_id) for edge in node.edges(type=edge_type) if edge.dst_id == node_id
        ]
    return [str(edge.dst_id) for edge in node.edges(type=edge_type) if edge.src_id == node_id]


def _reverse_name(ip: str) -> str:
    """PTR owner name for an IPv4 address: d.c.b.a.in-addr.arpa."""
    octets = str(ip).split(".")
    return ".".join(reversed(octets)) + ".in-addr.arpa."
