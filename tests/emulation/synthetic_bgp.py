"""Hand-built BGP lab intents for tests that need policy the designed
topologies never produce: reflector clusters, mixed ``next-hop-self``,
parallel sessions, per-neighbour eBGP policy.

A lab is one iBGP AS (:data:`CORE_ASN`) whose routers sit on an OSPF
chain, peer between loopbacks, and originate one prefix each, plus
optional single-router external ASes hanging off a core router.
"""

from __future__ import annotations

import ipaddress

from repro.emulation.intent import (
    BgpIntent,
    BgpNeighborIntent,
    DeviceIntent,
    InterfaceIntent,
    LabIntent,
    OspfIntent,
)

CORE_ASN = 65000


def core_name(index: int) -> str:
    return "c%02d" % index


def loopback(index: int) -> ipaddress.IPv4Address:
    return ipaddress.ip_address("10.255.%d.%d" % divmod(index + 1, 256))


def core_prefix(index: int) -> ipaddress.IPv4Network:
    return ipaddress.ip_network("10.%d.%d.0/24" % (100 + index // 256, index % 256))


def external_prefix(index: int) -> ipaddress.IPv4Network:
    return ipaddress.ip_network("172.16.%d.0/24" % index)


def _link(lab: LabIntent, index: int, left: str, right: str) -> tuple:
    """A /30 between two devices; returns (subnet, left address, right address)."""
    subnet = ipaddress.ip_network("10.0.%d.%d/30" % divmod(index * 4, 256))
    addresses = list(subnet.hosts())
    for name, address in zip((left, right), addresses):
        device = lab.devices[name]
        device.interfaces.append(
            InterfaceIntent(
                name="eth%d" % len(device.interfaces),
                ip_address=address,
                prefixlen=30,
                collision_domain="cd%d" % index,
            )
        )
    return subnet, addresses[0], addresses[1]


def core_lab(n_core: int, vendors=None, domain_of=None, platform="netkit") -> LabIntent:
    """``n_core`` routers of one AS on an OSPF chain, no sessions yet.

    ``domain_of(index)`` splits the chain: consecutive routers are only
    linked when it maps them to the same value (disjoint IGP domains).
    """
    lab = LabIntent(platform=platform)
    for index in range(n_core):
        name = core_name(index)
        device = DeviceIntent(
            name=name, vendor=(vendors or {}).get(index, "quagga")
        )
        device.interfaces.append(
            InterfaceIntent(
                name="lo", ip_address=loopback(index), prefixlen=32, is_loopback=True
            )
        )
        device.ospf = OspfIntent(
            router_id=str(loopback(index)),
            networks=[(ipaddress.ip_network("%s/32" % loopback(index)), 0)],
        )
        device.bgp = BgpIntent(
            asn=CORE_ASN, router_id=str(loopback(index)), networks=[core_prefix(index)]
        )
        lab.devices[name] = device
    for index in range(n_core - 1):
        if domain_of is not None and domain_of(index) != domain_of(index + 1):
            continue
        subnet, _, _ = _link(lab, index, core_name(index), core_name(index + 1))
        for end in (index, index + 1):
            lab.devices[core_name(end)].ospf.networks.append((subnet, 0))
    return lab


def add_ibgp_session(
    lab: LabIntent,
    left: int,
    right: int,
    left_flags: dict | None = None,
    right_flags: dict | None = None,
) -> None:
    """A loopback-to-loopback iBGP session, one stanza per side."""
    for local, remote, flags in (
        (left, right, left_flags),
        (right, left, right_flags),
    ):
        lab.devices[core_name(local)].bgp.neighbors.append(
            BgpNeighborIntent(
                peer_ip=loopback(remote), remote_asn=CORE_ASN, **(flags or {})
            )
        )


def full_mesh(lab: LabIntent, n_core: int) -> None:
    for left in range(n_core):
        for right in range(left + 1, n_core):
            add_ibgp_session(lab, left, right)


def add_external(
    lab: LabIntent,
    index: int,
    attach_to: int,
    link_index: int,
    core_flags: dict | None = None,
    external_flags: dict | None = None,
    in_igp: bool = False,
    prefixes=None,
) -> str:
    """External AS ``65100 + index``: one router on a /30 to a core router."""
    name = "x%02d" % index
    asn = 65100 + index
    device = DeviceIntent(name=name, vendor="quagga")
    device.bgp = BgpIntent(
        asn=asn,
        router_id="192.0.2.%d" % (index + 1),
        networks=list(prefixes or [external_prefix(index)]),
    )
    lab.devices[name] = device
    core = core_name(attach_to)
    subnet, core_address, external_address = _link(lab, link_index, core, name)
    if in_igp:
        lab.devices[core].ospf.networks.append((subnet, 0))
    lab.devices[core].bgp.neighbors.append(
        BgpNeighborIntent(peer_ip=external_address, remote_asn=asn, **(core_flags or {}))
    )
    device.bgp.neighbors.append(
        BgpNeighborIntent(
            peer_ip=core_address, remote_asn=CORE_ASN, **(external_flags or {})
        )
    )
    return name
