"""IOS configuration parser and Dynagen lab loader.

Parses the generated monolithic IOS configurations (interface stanzas
with dotted-mask addresses, wildcard-mask OSPF network statements,
``mask``-style BGP network statements, and route-map policy).
"""

from __future__ import annotations

import ipaddress
import os
import re

from repro.emulation.intent import (
    BgpIntent,
    BgpNeighborIntent,
    DeviceIntent,
    InterfaceIntent,
    IsisIntent,
    LabIntent,
    OspfIntent,
)
from repro.emulation.labtree import LabTree
from repro.emulation.parsing.config_dir import parse_config_dir
from repro.exceptions import ConfigParseError


def parse_ios_config(text: str, machine: str) -> DeviceIntent:
    """Parse one IOS router configuration into device intent."""
    device = DeviceIntent(name=machine, vendor="ios")
    hostname = re.search(r"^hostname\s+(\S+)", text, re.MULTILINE)
    device.hostname = hostname.group(1) if hostname else machine

    section = None
    current_interface: InterfaceIntent | None = None
    route_maps = _route_map_actions(text)
    prefix_lists = _prefix_list_denies(text)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        stripped = line.strip()
        if not stripped or stripped.startswith("!"):
            continue
        if stripped.startswith("interface "):
            name = stripped.split(None, 1)[1]
            current_interface = InterfaceIntent(
                name=name, is_loopback=name.lower().startswith("loopback")
            )
            device.interfaces.append(current_interface)
            section = "interface"
            continue
        if stripped.startswith("router ospf"):
            device.ospf = OspfIntent(process_id=int(stripped.split()[-1]))
            section = "ospf"
            continue
        if stripped.startswith("router isis"):
            parts = stripped.split()
            device.isis = IsisIntent(process_id=int(parts[2]) if len(parts) > 2 else 1)
            section = "isis"
            continue
        if stripped.startswith("router bgp"):
            device.bgp = BgpIntent(asn=int(stripped.split()[-1]))
            section = "bgp"
            continue
        if (
            stripped.startswith("route-map")
            or stripped.startswith("ip prefix-list")
            or stripped == "end"
        ):
            section = None
            continue

        if section == "interface" and current_interface is not None:
            if stripped.startswith("ip address "):
                parts = stripped.split()
                current_interface.ip_address = ipaddress.ip_address(parts[2])
                current_interface.prefixlen = ipaddress.ip_network(
                    "0.0.0.0/%s" % parts[3]
                ).prefixlen
            elif stripped.startswith("ip ospf cost "):
                current_interface.ospf_cost = int(stripped.split()[-1])
        elif section == "ospf" and device.ospf is not None:
            if stripped.startswith("router-id "):
                device.ospf.router_id = stripped.split()[-1]
            elif stripped.startswith("network "):
                parts = stripped.split()
                try:
                    # Wildcard (host) mask: invert to a netmask, since
                    # ipaddress treats all-zero masks ambiguously.
                    wildcard = int(ipaddress.ip_address(parts[2]))
                    netmask = ipaddress.ip_address(wildcard ^ 0xFFFFFFFF)
                    network = ipaddress.ip_network("%s/%s" % (parts[1], netmask))
                    area = int(parts[4])
                except (ValueError, IndexError) as exc:
                    raise ConfigParseError(
                        "bad OSPF network statement %r" % stripped, machine, lineno
                    ) from exc
                device.ospf.networks.append((network, area))
        elif section == "isis" and device.isis is not None:
            if stripped.startswith("net "):
                device.isis.net = stripped.split()[1]
        elif section == "bgp" and device.bgp is not None:
            _parse_bgp_line(
                device.bgp, stripped, route_maps, prefix_lists, machine, lineno
            )

    if device.ospf is not None:
        for interface in device.interfaces:
            device.ospf.interface_costs[interface.name] = interface.ospf_cost
    return device


def _parse_bgp_line(
    bgp: BgpIntent, line: str, route_maps, prefix_lists, machine, lineno
) -> None:
    if line.startswith("bgp router-id "):
        bgp.router_id = line.split()[-1]
        return
    if line.startswith("network "):
        parts = line.split()
        if len(parts) >= 4 and parts[2] == "mask":
            bgp.networks.append(ipaddress.ip_network("%s/%s" % (parts[1], parts[3])))
        else:
            bgp.networks.append(ipaddress.ip_network(parts[1], strict=False))
        return
    if not line.startswith("neighbor "):
        return
    parts = line.split()
    peer = parts[1]
    existing = bgp.neighbor_for(peer)
    if parts[2] == "remote-as":
        bgp.neighbors.append(
            BgpNeighborIntent(
                peer_ip=ipaddress.ip_address(peer), remote_asn=int(parts[3])
            )
        )
    elif existing is None:
        raise ConfigParseError(
            "neighbor %s configured before remote-as" % peer, machine, lineno
        )
    elif parts[2] == "description":
        existing.description = " ".join(parts[3:])
    elif parts[2] == "update-source":
        existing.update_source = parts[3]
    elif parts[2] == "next-hop-self":
        existing.next_hop_self = True
    elif parts[2] == "route-reflector-client":
        existing.rr_client = True
    elif parts[2] == "route-map" and parts[-1] == "in":
        existing.local_pref_in = route_maps.get(parts[3], {}).get("local_pref")
    elif parts[2] == "route-map" and parts[-1] == "out":
        actions = route_maps.get(parts[3], {})
        if actions.get("metric") is not None:
            existing.med_out = actions["metric"]
        existing.prepend_out = actions.get("prepend", 0)
        existing.communities_out = actions.get("communities", ())
    elif parts[2] == "prefix-list" and parts[-1] == "out":
        existing.deny_out = prefix_lists.get(parts[3], ())
    elif parts[2] == "prefix-list" and parts[-1] == "in":
        existing.deny_in = prefix_lists.get(parts[3], ())


def _route_map_actions(text: str) -> dict[str, dict]:
    """Route-map set actions: local_pref, metric (MED), prepend count."""
    actions: dict[str, dict] = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("route-map ") and " permit " in line:
            current = line.split()[1]
            actions[current] = {}
        elif current is None:
            continue
        elif line.startswith("set local-preference "):
            actions[current]["local_pref"] = int(line.split()[-1])
        elif line.startswith("set metric "):
            actions[current]["metric"] = int(line.split()[-1])
        elif line.startswith("set as-path prepend "):
            actions[current]["prepend"] = len(line.split()[3:])
        elif line.startswith("set community "):
            actions[current]["communities"] = tuple(
                token for token in line.split()[2:] if token != "additive"
            )
    return actions


def parse_dynagen_lab(source: str | os.PathLike | LabTree) -> LabIntent:
    """Parse a rendered Dynagen lab: lab.net plus configs/*.cfg."""
    lab = LabIntent(platform="dynagen")
    with LabTree.of(source) as tree:
        parse_config_dir(tree, lab, ".cfg", parse_ios_config, "ios")
    return lab


def _prefix_list_denies(text: str) -> dict[str, tuple]:
    """Prefix-list deny entries: {list name: (denied networks, ...)}."""
    denies: dict[str, list] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith("ip prefix-list "):
            continue
        parts = line.split()
        if len(parts) >= 6 and parts[5] == "deny":
            denies.setdefault(parts[2], []).append(
                ipaddress.ip_network(parts[6], strict=False)
            )
        else:
            denies.setdefault(parts[2], [])
    return {name: tuple(entries) for name, entries in denies.items()}
