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


def core_lab(
    n_core: int, vendors=None, domain_of=None, platform="netkit", ring=False
) -> LabIntent:
    """``n_core`` routers of one AS on an OSPF chain, no sessions yet.

    ``domain_of(index)`` splits the chain: consecutive routers are only
    linked when it maps them to the same value (disjoint IGP domains).
    ``ring`` closes the chain with link ``n_core - 1`` from the last
    router to the first; in an odd ring some router sees both ends of
    the opposite link at the same cost.
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
    for index in range(n_core if ring else n_core - 1):
        ends = (index, (index + 1) % n_core)
        if domain_of is not None and domain_of(ends[0]) != domain_of(ends[1]):
            continue
        subnet, _, _ = _link(lab, index, *map(core_name, ends))
        for end in ends:
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
    device = _external_device(lab, index, "quagga")
    if prefixes:
        device.bgp.networks = list(prefixes)
    home_external(lab, device.name, attach_to, link_index, core_flags, external_flags, in_igp)
    return device.name


def home_external(
    lab: LabIntent,
    name: str,
    attach_to: int,
    link_index: int,
    core_flags: dict | None = None,
    external_flags: dict | None = None,
    in_igp: bool = False,
    peer_loopback: bool = False,
) -> None:
    """Link external router ``name`` to a core router over a /30 (segment
    ``cd<link_index>``) and peer across it.  With
    ``peer_loopback`` the external side peers with the core router's
    loopback, so the session outlives the core end of the link."""
    core = core_name(attach_to)
    subnet, core_address, external_address = _link(lab, link_index, core, name)
    if in_igp:
        lab.devices[core].ospf.networks.append((subnet, 0))
    lab.devices[core].bgp.neighbors.append(
        BgpNeighborIntent(
            peer_ip=external_address,
            remote_asn=lab.devices[name].bgp.asn,
            **(core_flags or {}),
        )
    )
    lab.devices[name].bgp.neighbors.append(
        BgpNeighborIntent(
            peer_ip=loopback(attach_to) if peer_loopback else core_address,
            remote_asn=CORE_ASN,
            **(external_flags or {}),
        )
    )


def _peer_pair(lab: LabIntent, name: str, other: str, address, other_address) -> None:
    """eBGP between ``name`` at ``address`` and ``other`` at ``other_address``."""
    for local, remote, peer_ip in ((other, name, address), (name, other, other_address)):
        lab.devices[local].bgp.neighbors.append(
            BgpNeighborIntent(peer_ip=peer_ip, remote_asn=lab.devices[remote].bgp.asn)
        )


def _external_device(lab: LabIntent, index: int, vendor: str) -> DeviceIntent:
    name = "x%02d" % index
    device = lab.devices[name] = DeviceIntent(name=name, vendor=vendor)
    device.bgp = BgpIntent(
        asn=65100 + index,
        router_id="192.0.2.%d" % (index + 1),
        networks=[external_prefix(index)],
    )
    return device


def add_unnumbered_external(lab: LabIntent, index: int, attach_to: int) -> str:
    """A C-BGP style external router: a loopback, an unnumbered link to a
    core router (no addresses on it), and a loopback-to-loopback
    session whose next hops resolve only as direct fabric neighbours."""
    device = _external_device(lab, index, "cbgp")
    address = ipaddress.ip_address("10.254.0.%d" % (index + 1))
    device.interfaces.append(
        InterfaceIntent(name="lo", ip_address=address, prefixlen=32, is_loopback=True)
    )
    core = core_name(attach_to)
    key = "unnumbered%d" % index
    for member in (lab.devices[core], device):
        member.interfaces.append(
            InterfaceIntent(name="eth%d" % len(member.interfaces), collision_domain=key)
        )
    _peer_pair(lab, device.name, core, address, loopback(attach_to))
    return key


def add_ipv6_external(lab: LabIntent, index: int, attach_to: str, shadows: tuple) -> str:
    """An external router on an IPv6 /126 to router ``attach_to`` (with
    or without an IGP), peering across it, whose two addresses (its own
    first) have the integer values of the IPv4 addresses ``shadows``:
    an address key that forgets the family collides."""
    device = _external_device(lab, index, "quagga")
    key = "v6link%d" % index
    addresses = [ipaddress.IPv6Address(int(address)) for address in shadows]
    for member, address in zip((device, lab.devices[attach_to]), addresses):
        member.interfaces.append(
            InterfaceIntent(
                name="eth%d" % len(member.interfaces),
                ip_address=address,
                prefixlen=126,
                collision_domain=key,
            )
        )
    _peer_pair(lab, device.name, attach_to, addresses[0], addresses[1])
    return key
