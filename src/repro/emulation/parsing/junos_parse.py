"""JunOS configuration parser and Junosphere lab loader.

JunOS configurations are hierarchical brace blocks.  A small recursive
tokenizer turns them into nested dictionaries, from which the standard
device intent is extracted (interfaces, per-interface OSPF metrics,
BGP groups with reflection/next-hop-self/policy, static origination).
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
    LabIntent,
    OspfIntent,
)
from repro.emulation.labtree import LabTree
from repro.emulation.parsing.config_dir import parse_config_dir
from repro.exceptions import ConfigParseError


def tokenize(text: str) -> list[str]:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    return re.findall(r"[{};]|[^\s{};]+", text)


def parse_braces(text: str) -> dict:
    """Parse JunOS curly syntax into nested dicts.

    Leaf statements ``a b;`` become ``{"a b": True}``; blocks nest.
    Repeated block names merge; repeated leaves accumulate.
    """
    tokens = tokenize(text)
    position = 0

    def parse_block() -> dict:
        nonlocal position
        block: dict = {}
        words: list[str] = []
        while position < len(tokens):
            token = tokens[position]
            position += 1
            if token == "{":
                key = " ".join(words)
                words = []
                inner = parse_block()
                if key in block and isinstance(block[key], dict):
                    _merge(block[key], inner)
                else:
                    block[key] = inner
            elif token == ";":
                if words:
                    block.setdefault("__leaves__", []).append(" ".join(words))
                    words = []
            elif token == "}":
                if words:
                    block.setdefault("__leaves__", []).append(" ".join(words))
                return block
            else:
                words.append(token)
        if words:
            block.setdefault("__leaves__", []).append(" ".join(words))
        return block

    return parse_block()


def _merge(target: dict, extra: dict) -> None:
    for key, value in extra.items():
        if key == "__leaves__":
            target.setdefault("__leaves__", []).extend(value)
        elif key in target and isinstance(target[key], dict) and isinstance(value, dict):
            _merge(target[key], value)
        else:
            target[key] = value


def _leaves(block: dict | None) -> list[str]:
    if not isinstance(block, dict):
        return []
    return block.get("__leaves__", [])


def parse_junos_config(text: str, machine: str) -> DeviceIntent:
    """Parse one JunOS router configuration into device intent."""
    tree = parse_braces(text)
    device = DeviceIntent(name=machine, vendor="junos")

    for leaf in _leaves(tree.get("system")):
        if leaf.startswith("host-name "):
            device.hostname = leaf.split()[-1]

    interfaces_block = tree.get("interfaces", {})
    for name, block in interfaces_block.items():
        if name == "__leaves__":
            continue
        interface = InterfaceIntent(name=name, is_loopback=name.startswith("lo"))
        unit = block.get("unit 0", {})
        family = unit.get("family inet", {})
        for leaf in _leaves(family):
            if leaf.startswith("address "):
                address = leaf.split()[1]
                packed = ipaddress.ip_interface(address)
                interface.ip_address = packed.ip
                interface.prefixlen = packed.network.prefixlen
        device.interfaces.append(interface)

    routing_options = tree.get("routing-options", {})
    asn = None
    for leaf in _leaves(routing_options):
        if leaf.startswith("autonomous-system "):
            asn = int(leaf.split()[-1])
    static_networks = [
        ipaddress.ip_network(leaf.split()[1], strict=False)
        for leaf in _leaves(routing_options.get("static"))
        if leaf.startswith("route ")
    ]

    local_prefs = _policy_local_prefs(tree.get("policy-options", {}))
    export_policies = _policy_exports(tree.get("policy-options", {}))
    community_members = _community_members(tree.get("policy-options", {}))
    prefix_filters = _policy_route_filters(tree.get("policy-options", {}))
    protocols = tree.get("protocols", {})
    ospf_block = protocols.get("ospf")
    if ospf_block:
        device.ospf = OspfIntent()
        for area_key, area_block in ospf_block.items():
            if not area_key.startswith("area "):
                continue
            area_id = _parse_area(area_key.split()[1])
            for key, inner in area_block.items():
                if not key.startswith("interface "):
                    continue
                iface_name = key.split()[1]
                metric = 1
                for leaf in _leaves(inner):
                    if leaf.startswith("metric "):
                        metric = int(leaf.split()[-1])
                device.ospf.interface_costs[iface_name] = metric
                interface = device.interface(iface_name)
                if interface is not None:
                    interface.ospf_cost = metric
                    if interface.network is not None:
                        device.ospf.networks.append((interface.network, area_id))
        for leaf in _leaves(routing_options):
            if leaf.startswith("router-id "):
                device.ospf.router_id = leaf.split()[-1]

    bgp_block = protocols.get("bgp")
    if bgp_block:
        if asn is None:
            raise ConfigParseError("BGP configured without autonomous-system", machine)
        device.bgp = BgpIntent(asn=asn, networks=static_networks)
        for leaf in _leaves(routing_options):
            if leaf.startswith("router-id "):
                device.bgp.router_id = leaf.split()[-1]
        for key, group in bgp_block.items():
            if not key.startswith("group "):
                continue
            group_type = None
            peer_as = None
            neighbor_ip = None
            local_pref = None
            med_out = None
            prepend_out = 0
            communities_out = ()
            deny_out = ()
            deny_in = ()
            rr_client = False
            next_hop_self = False
            for leaf in _leaves(group):
                if leaf.startswith("type "):
                    group_type = leaf.split()[-1]
                elif leaf.startswith("peer-as "):
                    peer_as = int(leaf.split()[-1])
                elif leaf.startswith("neighbor "):
                    neighbor_ip = leaf.split()[-1]
                elif leaf.startswith("import lp-"):
                    local_pref = local_prefs.get(leaf.split()[-1])
                elif leaf.startswith("export out-"):
                    policy = export_policies.get(leaf.split()[-1], {})
                    med_out = policy.get("metric")
                    prepend_out = policy.get("prepend", 0)
                    communities_out = tuple(
                        member
                        for name in policy.get("communities", ())
                        for member in community_members.get(name, ())
                    )
                elif leaf.startswith("export pf-out-"):
                    deny_out = prefix_filters.get(leaf.split()[-1], ())
                elif leaf.startswith("import pf-in-"):
                    deny_in = prefix_filters.get(leaf.split()[-1], ())
                elif leaf.startswith("cluster "):
                    rr_client = True
                elif leaf == "export next-hop-self":
                    next_hop_self = True
            if neighbor_ip is None:
                continue
            if group_type == "internal" or peer_as is None:
                peer_as = asn
            device.bgp.neighbors.append(
                BgpNeighborIntent(
                    peer_ip=ipaddress.ip_address(neighbor_ip),
                    remote_asn=peer_as,
                    update_source="lo0" if group_type == "internal" else None,
                    next_hop_self=next_hop_self,
                    rr_client=rr_client,
                    local_pref_in=local_pref,
                    med_out=med_out,
                    prepend_out=prepend_out,
                    communities_out=communities_out,
                    deny_out=deny_out,
                    deny_in=deny_in,
                )
            )
    return device


def _parse_area(token: str) -> int:
    """JunOS area ids: plain integers or dotted quads (0.0.0.1 -> 1)."""
    if "." in token:
        octets = [int(part) for part in token.split(".")]
        value = 0
        for octet in octets:
            value = (value << 8) | octet
        return value
    return int(token)


def _policy_exports(policy_options: dict) -> dict[str, dict]:
    """Export policies (out-*): metric and as-path-prepend actions."""
    policies: dict[str, dict] = {}
    for key, block in policy_options.items():
        if not key.startswith("policy-statement out-"):
            continue
        name = key.split()[1]
        actions: dict = {}
        for leaf in _leaves(block.get("then", {})):
            if leaf.startswith("metric "):
                actions["metric"] = int(leaf.split()[-1])
            elif leaf.startswith("as-path-prepend "):
                quoted = leaf.split(None, 1)[1].strip().strip('"')
                actions["prepend"] = len(quoted.split())
            elif leaf.startswith("community add "):
                actions.setdefault("communities", []).append(leaf.split()[-1])
        policies[name] = actions
    return policies


def _policy_route_filters(policy_options: dict) -> dict[str, tuple]:
    """Reject-term route filters of pf-* policy statements."""
    filters: dict[str, tuple] = {}
    for key, block in policy_options.items():
        if not key.startswith("policy-statement pf-"):
            continue
        name = key.split()[1]
        denied = []
        for term_key, term in block.items():
            if not isinstance(term, dict):
                continue
            from_block = term.get("from", {})
            for leaf in _leaves(from_block):
                if leaf.startswith("route-filter "):
                    denied.append(
                        ipaddress.ip_network(leaf.split()[1], strict=False)
                    )
        filters[name] = tuple(denied)
    return filters


def _community_members(policy_options: dict) -> dict[str, tuple]:
    """Named community definitions: cm-* -> member strings."""
    members: dict[str, tuple] = {}
    for leaf in _leaves(policy_options):
        if leaf.startswith("community ") and " members " in leaf:
            parts = leaf.split()
            members[parts[1]] = tuple(parts[3:])
    return members


def _policy_local_prefs(policy_options: dict) -> dict[str, int]:
    prefs: dict[str, int] = {}
    for key, block in policy_options.items():
        if not key.startswith("policy-statement lp-"):
            continue
        name = key.split()[1]
        then = block.get("then", {})
        for leaf in _leaves(then):
            if leaf.startswith("local-preference "):
                prefs[name] = int(leaf.split()[-1])
    return prefs


def parse_junosphere_lab(source: str | os.PathLike | LabTree) -> LabIntent:
    """Parse a rendered Junosphere lab: topology.vmm plus configs/.

    The VMM wiring is applied after all devices exist.
    """
    lab = LabIntent(platform="junosphere")
    with LabTree.of(source) as tree:
        parse_config_dir(tree, lab, ".conf", parse_junos_config, "junos")
        _apply_vmm_wiring(lab, tree.read("topology.vmm") or "")
    return lab


def _apply_vmm_wiring(lab: LabIntent, text: str) -> None:
    current_vm = None
    for raw in text.splitlines():
        line = raw.strip()
        vm_match = re.match(r'vm "([^"]+)"', line)
        if vm_match:
            current_vm = vm_match.group(1)
            continue
        iface_match = re.match(r'interface "([^"]+)" bridge "([^"]+)";', line)
        if iface_match and current_vm in lab.devices:
            interface = lab.devices[current_vm].interface(iface_match.group(1))
            if interface is not None:
                interface.collision_domain = iface_match.group(2)
