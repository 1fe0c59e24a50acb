"""C-BGP script parser.

C-BGP describes the whole network in one script: nodes are identified
by their loopback address, links connect node pairs with IGP weights,
and BGP routers/sessions are declared per node.  The parser builds one
:class:`DeviceIntent` per node; links become synthetic point-to-point
collision domains carrying the IGP weight.
"""

from __future__ import annotations

import ipaddress
import os

from repro.emulation.intent import (
    BgpIntent,
    BgpNeighborIntent,
    DeviceIntent,
    InterfaceIntent,
    LabIntent,
    OspfIntent,
)
from repro.emulation.labtree import LabTree
from repro.exceptions import ConfigParseError


def parse_cbgp_script(text: str) -> LabIntent:
    """Parse a network.cli script into a lab intent."""
    lab = LabIntent(platform="cbgp")
    domains: dict[str, int] = {}
    link_weights: dict[tuple[str, str], int] = {}

    def device(node_ip: str) -> DeviceIntent:
        if node_ip not in lab.devices:
            intent = DeviceIntent(name=node_ip, vendor="cbgp", hostname=node_ip)
            intent.interfaces.append(
                InterfaceIntent(
                    name="lo0",
                    ip_address=ipaddress.ip_address(node_ip),
                    prefixlen=32,
                    is_loopback=True,
                )
            )
            lab.devices[node_ip] = intent
        return lab.devices[node_ip]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[:3] == ["net", "add", "node"]:
                device(parts[3])
            elif parts[:3] == ["net", "add", "link"]:
                src, dst = parts[3], parts[4]
                device(src)
                device(dst)
                link_weights.setdefault(_link_key(src, dst), 1)
            elif parts[:2] == ["net", "link"] and "igp-weight" in parts:
                src, dst = parts[2], parts[3]
                link_weights[_link_key(src, dst)] = int(parts[-1])
            elif parts[:2] == ["net", "node"] and parts[3] == "domain":
                domains[parts[2]] = int(parts[4])
            elif parts[:3] == ["bgp", "add", "router"]:
                asn, node_ip = int(parts[3]), parts[4]
                device(node_ip).bgp = BgpIntent(asn=asn, router_id=node_ip)
            elif parts[:2] == ["bgp", "router"] and parts[3:5] == ["add", "network"]:
                device(parts[2]).bgp.networks.append(
                    ipaddress.ip_network(parts[5], strict=False)
                )
            elif parts[:2] == ["bgp", "router"] and parts[3:5] == ["add", "peer"]:
                node_ip, remote_asn, peer_ip = parts[2], int(parts[5]), parts[6]
                bgp = device(node_ip).bgp
                bgp.neighbors.append(
                    BgpNeighborIntent(
                        peer_ip=ipaddress.ip_address(peer_ip),
                        remote_asn=remote_asn,
                        update_source="lo0" if remote_asn == bgp.asn else None,
                    )
                )
            elif parts[:2] == ["bgp", "router"] and parts[3] == "peer":
                bgp = device(parts[2]).bgp
                neighbor = bgp.neighbor_for(parts[4])
                if neighbor is None:
                    raise ConfigParseError(
                        "peer %s option before add peer" % parts[4], "network.cli", lineno
                    )
                option = parts[5]
                if option == "rr-client":
                    neighbor.rr_client = True
                elif option == "next-hop-self":
                    neighbor.next_hop_self = True
        except (IndexError, ValueError, AttributeError) as exc:
            raise ConfigParseError(
                "bad C-BGP line %r: %s" % (line, exc), "network.cli", lineno
            ) from exc

    _build_links(lab, link_weights)
    _apply_domains(lab, domains)
    return lab


def _link_key(src: str, dst: str) -> tuple[str, str]:
    return (src, dst) if src <= dst else (dst, src)


def _build_links(lab: LabIntent, link_weights: dict) -> None:
    for index, ((src, dst), weight) in enumerate(sorted(link_weights.items())):
        domain = "link_%d" % index
        for node_ip in (src, dst):
            lab.devices[node_ip].interfaces.append(
                InterfaceIntent(
                    name="if_%d" % index,
                    collision_domain=domain,
                    ospf_cost=weight,
                )
            )


def _apply_domains(lab: LabIntent, domains: dict[str, int]) -> None:
    # Every node in an IGP domain advertises its loopback; this mirrors
    # C-BGP's "net domain <asn> compute" full-domain SPF.
    for node_ip, domain in domains.items():
        intent = lab.devices.get(node_ip)
        if intent is None:
            continue
        intent.igp_domain = domain
        if intent.ospf is None:
            intent.ospf = OspfIntent(router_id=node_ip)
        intent.ospf.networks.append(
            (ipaddress.ip_network("%s/32" % node_ip), 0)
        )
        for interface in intent.interfaces:
            intent.ospf.interface_costs[interface.name] = interface.ospf_cost


def parse_cbgp_lab(source: str | os.PathLike | LabTree) -> LabIntent:
    """Parse a rendered C-BGP lab (network.cli), from a directory or a tree."""
    with LabTree.of(source) as tree:
        text = tree.read("network.cli")
    if text is None:
        raise ConfigParseError("no network.cli in %s" % tree.source, "network.cli")
    return parse_cbgp_script(text)
