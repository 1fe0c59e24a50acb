"""Netkit lab parser: lab.conf + startup files + /etc trees (§5.7).

Boots a lab *from the rendered files*, the same artefacts Netkit's
``lstart`` consumes, read through a :class:`LabTree`: ``lab.conf``
gives the wiring, ``<machine>.startup`` the interface addressing, and
each machine's ``etc/quagga``, ``etc/bind`` and ``etc/rpki`` trees the
daemon configurations.
"""

from __future__ import annotations

import ipaddress
import os
import re

from repro.emulation.intent import (
    DeviceIntent,
    DnsIntent,
    DnsZoneIntent,
    InterfaceIntent,
    LabIntent,
)
from repro.emulation.labtree import LabTree
from repro.emulation.parsing.quagga_parse import (
    intern_address,
    parse_bgpd,
    parse_isisd,
    parse_ospfd,
    parse_zebra,
)
from repro.exceptions import ConfigParseError
from repro.observability import metric_inc

#: The management (TAP) block: interfaces in it never carry lab traffic.
MANAGEMENT_BLOCK = ipaddress.ip_network("172.16.0.0/16")

_LAB_LINE = re.compile(r"^(?P<machine>[\w.-]+)\[(?P<index>\d+)\]=(?P<domain>\S+)$")
_IFCONFIG = re.compile(
    r"^/sbin/ifconfig\s+(?P<iface>\S+)\s+(?P<ip>\d+\.\d+\.\d+\.\d+)"
    r"\s+netmask\s+(?P<mask>\d+\.\d+\.\d+\.\d+)\s+up$"
)
_IFCONFIG_V6 = re.compile(
    r"^/sbin/ifconfig\s+(?P<iface>\S+)\s+add\s+(?P<ip>[0-9A-Fa-f:]+)/(?P<plen>\d+)\s+up$"
)


def parse_lab_conf(text: str) -> dict[str, dict[int, str]]:
    """Parse lab.conf into {machine: {interface index: collision domain}}."""
    wiring: dict[str, dict[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        if line.startswith("LAB_"):
            continue
        match = _LAB_LINE.match(line)
        if match is None:
            raise ConfigParseError("bad lab.conf line %r" % line, "lab.conf", lineno)
        wiring.setdefault(match.group("machine"), {})[int(match.group("index"))] = (
            match.group("domain")
        )
    return wiring


def parse_startup(
    text: str, machine: str, addresses: dict | None = None
) -> list[InterfaceIntent]:
    """Parse a .startup file's ifconfig lines into interface intents.

    ``addresses`` is the lab parse's intern table (address text to
    address object, see :func:`parse_netkit_lab`).
    """
    if addresses is None:
        addresses = {}
    interfaces: list[InterfaceIntent] = []

    def find(iface_name):
        for intent in interfaces:
            if intent.name == iface_name:
                return intent
        return None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        v6_match = _IFCONFIG_V6.match(line)
        if v6_match is not None:
            iface_name = v6_match.group("iface")
            target = find("lo" if iface_name.startswith("lo") else iface_name)
            if target is not None:
                target.ipv6_address = intern_address(addresses, v6_match.group("ip"))
                target.ipv6_prefixlen = int(v6_match.group("plen"))
            continue
        match = _IFCONFIG.match(line)
        if match is None:
            continue
        iface = match.group("iface")
        if iface == "lo":
            continue
        try:
            address = intern_address(addresses, match.group("ip"))
            prefixlen = ipaddress.ip_network("0.0.0.0/%s" % match.group("mask")).prefixlen
        except ValueError as exc:
            message = "%s on %s" % (exc, iface)
            raise ConfigParseError(message, "%s.startup" % machine, lineno) from None
        if iface.startswith("lo:"):
            interfaces.append(
                InterfaceIntent(
                    name="lo",
                    ip_address=address,
                    prefixlen=prefixlen,
                    is_loopback=True,
                )
            )
        else:
            interfaces.append(
                InterfaceIntent(
                    name=iface,
                    ip_address=address,
                    prefixlen=prefixlen,
                    is_management=address in MANAGEMENT_BLOCK,
                )
            )
    return interfaces


def parse_bind_zone(text: str) -> DnsZoneIntent:
    """Parse a rendered bind zone file: A and PTR records."""
    origin = ""
    records: dict[str, str] = {}
    ptr_records: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith((";", "$")):
            continue
        parts = line.split()
        if "SOA" in parts:
            origin = parts[parts.index("SOA") + 1].split(".", 1)[1].rstrip(".")
            continue
        if len(parts) >= 4 and parts[1] == "IN" and parts[2] == "A":
            records[parts[0]] = parts[3]
        elif len(parts) >= 4 and parts[1] == "IN" and parts[2] == "PTR":
            ptr_records[parts[0].rstrip(".")] = parts[3].rstrip(".")
    return DnsZoneIntent(origin=origin, records=records, ptr_records=ptr_records)


def parse_rpki_conf(text: str) -> dict:
    """Parse a rendered RPKI daemon config (key = value, repeatable)."""
    config: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in ("resource", "roa", "publisher", "rtr_client"):
            config.setdefault(key + "s", []).append(value)
        else:
            config[key] = value
    return config


def parse_netkit_lab(source: str | os.PathLike | LabTree, jobs: int = 1) -> LabIntent:
    """Parse a rendered Netkit lab (a directory or a :class:`LabTree`).

    Machines are parsed one after another, in sorted order.  ``jobs``
    is accepted for existing callers and ignored.

    One intern table (address text to address object) lives for the
    whole parse: an interface address and every BGP ``peer_ip`` naming
    it are the same object, parsed once.
    """
    del jobs
    with LabTree.of(source) as tree:
        text = tree.read("lab.conf")
        if text is None:
            raise ConfigParseError("no lab.conf in %s" % tree.source, "lab.conf")
        wiring = parse_lab_conf(text)

        lab = LabIntent(platform="netkit")
        addresses: dict = {}
        machines = sorted(
            set(wiring)
            | {
                entry[: -len(".startup")]
                for entry in tree.listdir()
                if entry.endswith(".startup")
            }
        )
        for machine in machines:
            lab.devices[machine] = _parse_machine(tree, machine, wiring, addresses)
    return lab


def _parse_machine(
    tree: LabTree, machine: str, wiring: dict, addresses: dict
) -> DeviceIntent:
    """Parse one machine's files — the independent unit of boot work.

    A file that fails to parse does not abort the whole lab parse: the
    error is recorded in ``device.boot_errors`` and the boot layer
    decides (strict mode raises it, non-strict quarantines the
    machine).  This mirrors a real host, where one broken VM leaves the
    rest of the lab starting normally.
    """
    device = DeviceIntent(name=machine, vendor="quagga")
    try:
        text = tree.read("%s.startup" % machine)
        if text is not None:
            device.interfaces = parse_startup(text, machine, addresses)
        _load_services(tree, machine, device)
    except ConfigParseError as exc:
        device.boot_errors.append(exc)
    for interface in device.interfaces:
        index = _interface_index(interface.name)
        if index is not None:
            interface.collision_domain = wiring.get(machine, {}).get(index)
    _load_quagga(tree, machine, device, addresses)
    metric_inc("deploy.configs_parsed")
    return device


def _interface_index(name: str) -> int | None:
    match = re.match(r"^eth(\d+)$", name)
    return int(match.group(1)) if match else None


def _load_quagga(
    tree: LabTree, machine: str, device: DeviceIntent, addresses: dict
) -> None:
    """Parse one machine's quagga daemons, collecting errors per file."""
    daemons = (
        ("zebra.conf", "hostname", parse_zebra),
        ("ospfd.conf", "ospf", parse_ospfd),
        ("bgpd.conf", "bgp", lambda text, path: parse_bgpd(text, path, addresses)),
        ("isisd.conf", "isis", parse_isisd),
    )
    for name, attribute, parse in daemons:
        path = "%s/etc/quagga/%s" % (machine, name)
        try:
            text = tree.read(path)
            if text is not None:
                setattr(device, attribute, parse(text, path))
        except ConfigParseError as exc:
            device.boot_errors.append(exc)
    if device.ospf is not None:
        for interface in device.interfaces:
            if interface.name in device.ospf.interface_costs:
                interface.ospf_cost = device.ospf.interface_costs[interface.name]
    if device.isis is not None:
        for interface in device.interfaces:
            if interface.name in device.isis.interface_metrics:
                interface.ospf_cost = device.isis.interface_metrics[interface.name]


def _load_services(tree: LabTree, machine: str, device: DeviceIntent) -> None:
    etc = "%s/etc/" % machine
    dns = DnsIntent()
    have_dns = False
    for entry in tree.listdir(etc + "bind"):
        if entry.startswith("db."):
            dns.zones.append(parse_bind_zone(tree.read(etc + "bind/" + entry) or ""))
            dns.is_server = True
            have_dns = True
    for raw in (tree.read(etc + "resolv.conf") or "").splitlines():
        parts = raw.split()
        if len(parts) >= 2 and parts[0] == "nameserver":
            dns.resolver = parts[1]
            have_dns = True
        elif len(parts) >= 2 and parts[0] == "domain":
            dns.domain = parts[1]
    if have_dns:
        device.dns = dns

    for entry in tree.listdir(etc + "rpki"):
        if entry.endswith(".conf"):
            config = parse_rpki_conf(tree.read(etc + "rpki/" + entry) or "")
            device.rpki_role = config.get("role")
            device.rpki_config = config
