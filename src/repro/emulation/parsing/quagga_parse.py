"""Parsers for Quagga daemon configuration files.

These parse the *generated* configuration text back into device intent,
which is how the emulation substrate validates the whole pipeline: a
template bug produces configs that fail to parse or boot, exactly as on
a real Netkit host.
"""

from __future__ import annotations

import ipaddress
import re
import sys

from repro.emulation.intent import (
    BgpIntent,
    BgpNeighborIntent,
    IsisIntent,
    OspfIntent,
)
from repro.exceptions import ConfigParseError


def parse_hostname(text: str) -> str | None:
    match = re.search(r"^hostname\s+(\S+)", text, re.MULTILINE)
    return match.group(1) if match else None


#: Directives zebra accepts at the top level; anything else means the
#: file is corrupt and the daemon would refuse to start.
_ZEBRA_KEYWORDS = frozenset(
    {
        "hostname", "password", "enable", "interface", "description",
        "log", "ip", "ipv6", "line", "service", "banner", "debug",
        "access-list", "route-map", "no", "table", "multicast",
        "shutdown", "link-detect", "bandwidth", "exit", "end",
    }
)


def parse_zebra(text: str, filename: str = "zebra.conf") -> str | None:
    """Validate a zebra.conf and return its hostname.

    Zebra itself exits on an unrecognised directive, so an invalid file
    means the VM never boots — this parser reproduces that by raising
    :class:`ConfigParseError` naming the file and line.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("!", "#")):
            continue
        keyword = line.split()[0]
        if keyword not in _ZEBRA_KEYWORDS:
            raise ConfigParseError(
                "unrecognised zebra directive %r" % keyword, filename, lineno
            )
    return parse_hostname(text)


def parse_ospfd(text: str, filename: str = "ospfd.conf") -> OspfIntent:
    """Parse an ospfd.conf: interface costs plus network statements."""
    intent = OspfIntent()
    current_interface = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("!"):
            continue
        if line.startswith("interface "):
            current_interface = line.split()[1]
        elif line.startswith("ip ospf cost "):
            if current_interface is None:
                raise ConfigParseError(
                    "ip ospf cost outside interface stanza", filename, lineno
                )
            intent.interface_costs[current_interface] = int(line.split()[-1])
        elif line.startswith("router ospf"):
            current_interface = None
        elif line.startswith("ospf router-id "):
            intent.router_id = line.split()[-1]
        elif line.startswith("network "):
            parts = line.split()
            try:
                network = ipaddress.ip_network(parts[1], strict=False)
                area = int(parts[3])
            except (ValueError, IndexError) as exc:
                raise ConfigParseError(
                    "bad network statement %r" % line, filename, lineno
                ) from exc
            intent.networks.append((network, area))
    return intent


def parse_isisd(text: str, filename: str = "isisd.conf") -> IsisIntent:
    intent = IsisIntent()
    current_interface = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("!"):
            continue
        if line.startswith("interface "):
            current_interface = line.split()[1]
        elif line.startswith("isis metric "):
            if current_interface is None:
                raise ConfigParseError("isis metric outside interface", filename, lineno)
            intent.interface_metrics[current_interface] = int(line.split()[-1])
        elif line.startswith("router isis"):
            current_interface = None
            parts = line.split()
            if len(parts) > 2:
                intent.process_id = int(parts[2])
        elif line.startswith("net "):
            intent.net = line.split()[1]
    return intent


def intern_address(addresses: dict, text: str):
    """The address object for ``text``, parsed once per ``addresses`` table."""
    address = addresses.get(text)
    if address is None:
        address = addresses[text] = ipaddress.ip_address(text)
    return address


#: The ASN of a ``router bgp`` line, matched at the start of the raw line.
_ROUTER_BGP = re.compile(r"router bgp\s+(\d+)")


def parse_bgpd(
    text: str, filename: str = "bgpd.conf", addresses: dict | None = None
) -> BgpIntent:
    """Parse a bgpd.conf: sessions, origination, and route-map policy.

    One pass over the lines, dispatching on the first token (and on the
    third for ``neighbor`` statements).  Route-map and prefix-list
    references are resolved once the whole file is read, so a neighbour
    may name a policy defined further down.  ``addresses`` maps address
    text to address objects; a lab parse passes one table to every
    file so each peer address is parsed once and shared.
    """
    if addresses is None:
        addresses = {}
    asn = None
    intent = BgpIntent(asn=0)
    neighbors: dict[str, BgpNeighborIntent] = {}
    # (neighbour, "route-map" | "prefix-list", policy name, "in" | "out")
    references: list[tuple] = []
    route_maps: dict[str, dict] = {}
    prefix_lists: dict[str, list] = {}
    current_map = None
    in_router = False
    misplaced = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "!":
            continue
        parts = line.split()
        head = parts[0]
        if head == "neighbor":
            if not in_router or misplaced is not None or len(parts) == 1:
                continue
            peer, attribute = parts[1], parts[2]
            if attribute == "remote-as":
                neighbors[peer] = BgpNeighborIntent(
                    peer_ip=intern_address(addresses, peer), remote_asn=int(parts[3])
                )
                continue
            neighbor = neighbors.get(peer)
            if neighbor is None:
                misplaced = ConfigParseError(
                    "neighbor %s configured before remote-as" % peer, filename, lineno
                )
            elif attribute == "description":
                # interned: a full mesh repeats each description and
                # update source once per router
                neighbor.description = sys.intern(" ".join(parts[3:]))
            elif attribute == "update-source":
                neighbor.update_source = sys.intern(parts[3])
            elif attribute == "next-hop-self":
                neighbor.next_hop_self = True
            elif attribute == "route-reflector-client":
                neighbor.rr_client = True
            elif attribute in ("route-map", "prefix-list") and parts[-1] in ("in", "out"):
                references.append((neighbor, attribute, parts[3], parts[-1]))
        elif head == "set":
            if current_map is None or len(parts) < 3:
                continue
            action = parts[1]
            if action == "local-preference":
                current_map["local_pref"] = int(parts[-1])
            elif action == "metric":
                current_map["metric"] = int(parts[-1])
            elif action == "as-path" and parts[2] == "prepend" and len(parts) > 3:
                current_map["prepend"] = len(parts) - 3
            elif action == "community":
                current_map["communities"] = tuple(
                    token for token in parts[2:] if token != "additive"
                )
        elif line.startswith("router bgp"):
            in_router = True
            if asn is None:
                match = _ROUTER_BGP.match(raw)
                if match is not None:
                    asn = int(match.group(1))
        elif line.startswith("route-map"):
            in_router = False
            if head == "route-map" and " permit " in line:
                current_map = route_maps[parts[1]] = {}
        elif head == "ip" and len(parts) > 2 and parts[1] == "prefix-list":
            # ip prefix-list NAME seq N (deny|permit) CIDR [le N]
            entries = prefix_lists.setdefault(parts[2], [])
            if len(parts) >= 6 and parts[5] == "deny":
                entries.append(ipaddress.ip_network(parts[6], strict=False))
        elif in_router and misplaced is None:
            if head == "network" and len(parts) > 1:
                intent.networks.append(ipaddress.ip_network(parts[1], strict=False))
            elif line.startswith("bgp router-id "):
                intent.router_id = parts[-1]
    if asn is None:
        raise ConfigParseError("no 'router bgp' stanza", filename)
    if misplaced is not None:
        raise misplaced
    intent.asn = asn
    denies = {name: tuple(entries) for name, entries in prefix_lists.items()}
    for neighbor, attribute, name, direction in references:
        if attribute == "prefix-list":
            if direction == "out":
                neighbor.deny_out = denies.get(name, ())
            else:
                neighbor.deny_in = denies.get(name, ())
        elif direction == "in":
            neighbor.local_pref_in = route_maps.get(name, {}).get("local_pref")
        else:
            actions = route_maps.get(name, {})
            if actions.get("metric") is not None:
                neighbor.med_out = actions["metric"]
            neighbor.prepend_out = actions.get("prepend", 0)
            neighbor.communities_out = actions.get("communities", ())
    intent.neighbors = list(neighbors.values())
    return intent
