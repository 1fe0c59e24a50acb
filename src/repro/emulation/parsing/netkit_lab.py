"""Netkit lab parser: lab.conf + startup files + /etc trees (§5.7).

Boots a lab *from the rendered files on disk*, the same artefacts
Netkit's ``lstart`` consumes: ``lab.conf`` gives the wiring,
``<machine>.startup`` the interface addressing, and each machine's
``etc/quagga``, ``etc/bind`` and ``etc/rpki`` trees the daemon
configurations.
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
from repro.emulation.parsing.parallel import parse_machines
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
        address = intern_address(addresses, match.group("ip"))
        prefixlen = ipaddress.ip_network(
            "0.0.0.0/%s" % match.group("mask")
        ).prefixlen
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


def parse_netkit_lab(lab_dir: str | os.PathLike, jobs: int = 1) -> LabIntent:
    """Parse a rendered Netkit lab directory into a :class:`LabIntent`.

    Each machine's files (startup + quagga + service trees) are
    independent, so with ``jobs > 1`` the per-machine parses fan out
    over the engine's executors; the devices dict is assembled in
    sorted machine order either way, so the resulting intent is
    identical to a serial parse.

    One intern table (address text to address object) lives for the
    whole parse: an interface address and every BGP ``peer_ip`` naming
    it are the same object, parsed once.
    """
    lab_dir = str(lab_dir)
    lab_conf_path = os.path.join(lab_dir, "lab.conf")
    if not os.path.exists(lab_conf_path):
        raise ConfigParseError("no lab.conf in %s" % lab_dir, lab_conf_path)
    with open(lab_conf_path) as handle:
        wiring = parse_lab_conf(handle.read())

    lab = LabIntent(platform="netkit")
    addresses: dict = {}
    machines = sorted(
        set(wiring)
        | {
            entry[: -len(".startup")]
            for entry in os.listdir(lab_dir)
            if entry.endswith(".startup")
        }
    )
    for machine, device in parse_machines(
        machines,
        lambda machine: _parse_machine(lab_dir, machine, wiring, addresses),
        jobs=jobs,
    ):
        lab.devices[machine] = device
    return lab


def _parse_machine(
    lab_dir: str, machine: str, wiring: dict, addresses: dict
) -> DeviceIntent:
    """Parse one machine's files — the independent unit of boot work."""
    device = DeviceIntent(name=machine, vendor="quagga")
    startup_path = os.path.join(lab_dir, "%s.startup" % machine)
    if os.path.exists(startup_path):
        with open(startup_path) as handle:
            device.interfaces = parse_startup(handle.read(), machine, addresses)
    for interface in device.interfaces:
        index = _interface_index(interface.name)
        if index is not None:
            interface.collision_domain = wiring.get(machine, {}).get(index)
    _load_quagga(lab_dir, machine, device, addresses)
    _load_services(lab_dir, machine, device)
    metric_inc("deploy.configs_parsed")
    return device


def _interface_index(name: str) -> int | None:
    match = re.match(r"^eth(\d+)$", name)
    return int(match.group(1)) if match else None


def _load_quagga(
    lab_dir: str, machine: str, device: DeviceIntent, addresses: dict
) -> None:
    """Parse one machine's quagga tree, collecting errors per device.

    A daemon config that fails to parse does not abort the whole lab
    parse: the error is recorded in ``device.boot_errors`` and the boot
    layer decides (strict mode raises it, non-strict quarantines the
    machine).  This mirrors a real host, where one broken VM leaves the
    rest of the lab starting normally.
    """
    quagga_dir = os.path.join(lab_dir, machine, "etc", "quagga")
    if not os.path.isdir(quagga_dir):
        return
    zebra_path = os.path.join(quagga_dir, "zebra.conf")
    if os.path.exists(zebra_path):
        with open(zebra_path) as handle:
            try:
                device.hostname = parse_zebra(handle.read(), zebra_path)
            except ConfigParseError as exc:
                device.boot_errors.append(exc)
    ospfd_path = os.path.join(quagga_dir, "ospfd.conf")
    if os.path.exists(ospfd_path):
        with open(ospfd_path) as handle:
            try:
                device.ospf = parse_ospfd(handle.read(), ospfd_path)
            except ConfigParseError as exc:
                device.boot_errors.append(exc)
        if device.ospf is not None:
            for interface in device.interfaces:
                if interface.name in device.ospf.interface_costs:
                    interface.ospf_cost = device.ospf.interface_costs[interface.name]
    bgpd_path = os.path.join(quagga_dir, "bgpd.conf")
    if os.path.exists(bgpd_path):
        with open(bgpd_path) as handle:
            try:
                device.bgp = parse_bgpd(handle.read(), bgpd_path, addresses)
            except ConfigParseError as exc:
                device.boot_errors.append(exc)
    isisd_path = os.path.join(quagga_dir, "isisd.conf")
    if os.path.exists(isisd_path):
        with open(isisd_path) as handle:
            try:
                device.isis = parse_isisd(handle.read(), isisd_path)
            except ConfigParseError as exc:
                device.boot_errors.append(exc)
        if device.isis is not None:
            for interface in device.interfaces:
                if interface.name in device.isis.interface_metrics:
                    interface.ospf_cost = device.isis.interface_metrics[interface.name]


def _load_services(lab_dir: str, machine: str, device: DeviceIntent) -> None:
    etc_dir = os.path.join(lab_dir, machine, "etc")
    bind_dir = os.path.join(etc_dir, "bind")
    dns = DnsIntent()
    have_dns = False
    if os.path.isdir(bind_dir):
        for entry in sorted(os.listdir(bind_dir)):
            if entry.startswith("db."):
                with open(os.path.join(bind_dir, entry)) as handle:
                    dns.zones.append(parse_bind_zone(handle.read()))
                dns.is_server = True
                have_dns = True
    resolv_path = os.path.join(etc_dir, "resolv.conf")
    if os.path.exists(resolv_path):
        with open(resolv_path) as handle:
            for raw in handle:
                parts = raw.split()
                if len(parts) >= 2 and parts[0] == "nameserver":
                    dns.resolver = parts[1]
                    have_dns = True
                elif len(parts) >= 2 and parts[0] == "domain":
                    dns.domain = parts[1]
    if have_dns:
        device.dns = dns

    rpki_dir = os.path.join(etc_dir, "rpki")
    if os.path.isdir(rpki_dir):
        for entry in sorted(os.listdir(rpki_dir)):
            if entry.endswith(".conf"):
                with open(os.path.join(rpki_dir, entry)) as handle:
                    config = parse_rpki_conf(handle.read())
                device.rpki_role = config.get("role")
                device.rpki_config = config
