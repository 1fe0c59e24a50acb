"""Device intent: the parsed form of generated configurations.

The emulation substrate never reads the NIDB — it *boots from the
rendered configuration text*, exactly as a real emulation platform
would.  Each platform parser (netkit/dynagen/junosphere/cbgp) produces
the same intermediate representation defined here, so the protocol
engines are vendor-neutral while the *parsing* exercises each vendor's
concrete syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import ipaddress
from typing import Optional


def _as_address(address):
    """``address`` as an address object; only other types are parsed."""
    if isinstance(address, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
        return address
    return ipaddress.ip_address(str(address))


@dataclass(slots=True)
class InterfaceIntent:
    """One configured interface: name, address, and attached segment."""

    name: str
    ip_address: Optional[ipaddress.IPv4Address] = None
    prefixlen: Optional[int] = None
    collision_domain: Optional[str] = None
    is_loopback: bool = False
    is_management: bool = False
    ospf_cost: int = 1
    ipv6_address: Optional[ipaddress.IPv6Address] = None
    ipv6_prefixlen: Optional[int] = None
    #: ``((ip_address, prefixlen), network)`` of the last ``network`` call
    _network_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def network(self) -> Optional[ipaddress.IPv4Network]:
        if self.ip_address is None or self.prefixlen is None:
            return None
        # Memoised: the protocol engines resolve interface subnets on
        # every next-hop check, and IPv4Network construction dominated
        # the boot profile before this cache.  Keyed on the address pair
        # so parsers that patch an interface in place stay correct.
        key = (self.ip_address, self.prefixlen)
        cached = self._network_cache
        if cached is None or cached[0] != key:
            cached = self._network_cache = (
                key,
                ipaddress.ip_network("%s/%d" % key, strict=False),
            )
        return cached[1]


@dataclass(slots=True)
class OspfIntent:
    """Parsed OSPF configuration: advertised networks and costs."""

    process_id: int = 1
    router_id: Optional[str] = None
    networks: list[tuple[ipaddress.IPv4Network, int]] = field(default_factory=list)
    interface_costs: dict[str, int] = field(default_factory=dict)

    def advertises(self, network: ipaddress.IPv4Network) -> bool:
        return any(network == advertised or advertised.supernet_of(network)
                   for advertised, _ in self.networks)


@dataclass(slots=True)
class IsisIntent:
    """Parsed IS-IS configuration."""

    process_id: int = 1
    net: Optional[str] = None
    interface_metrics: dict[str, int] = field(default_factory=dict)


@dataclass(slots=True)
class BgpNeighborIntent:
    """One configured BGP session endpoint."""

    peer_ip: ipaddress.IPv4Address
    remote_asn: int
    update_source: Optional[str] = None
    next_hop_self: bool = False
    rr_client: bool = False
    local_pref_in: Optional[int] = None
    med_out: Optional[int] = None
    prepend_out: int = 0
    communities_out: tuple = ()
    deny_out: tuple = ()
    deny_in: tuple = ()
    description: str = ""


@dataclass(slots=True)
class BgpIntent:
    """Parsed BGP configuration for one router."""

    asn: int
    router_id: Optional[str] = None
    networks: list[ipaddress.IPv4Network] = field(default_factory=list)
    neighbors: list[BgpNeighborIntent] = field(default_factory=list)

    def neighbor_for(self, peer_ip) -> Optional[BgpNeighborIntent]:
        peer_ip = _as_address(peer_ip)
        for neighbor in self.neighbors:
            if neighbor.peer_ip == peer_ip:
                return neighbor
        return None


@dataclass(slots=True)
class DnsZoneIntent:
    """Parsed zone data from a rendered bind file."""

    origin: str
    records: dict[str, str] = field(default_factory=dict)  # name -> address
    ptr_records: dict[str, str] = field(default_factory=dict)  # reverse name -> fqdn


@dataclass(slots=True)
class DnsIntent:
    """Parsed DNS server/client configuration."""

    is_server: bool = False
    zones: list[DnsZoneIntent] = field(default_factory=list)
    resolver: Optional[str] = None
    domain: Optional[str] = None


@dataclass(slots=True)
class DeviceIntent:
    """Everything one machine's configuration files declared."""

    name: str
    vendor: str = "quagga"
    hostname: Optional[str] = None
    interfaces: list[InterfaceIntent] = field(default_factory=list)
    ospf: Optional[OspfIntent] = None
    isis: Optional[IsisIntent] = None
    bgp: Optional[BgpIntent] = None
    dns: Optional[DnsIntent] = None
    rpki_role: Optional[str] = None
    rpki_config: dict = field(default_factory=dict)
    #: Explicit IGP domain id (C-BGP style); other vendors derive IGP
    #: adjacency from mutually advertised subnets instead.
    igp_domain: Optional[int] = None
    #: Configuration errors collected while parsing this device.  A
    #: non-empty list marks the device un-bootable: strict labs raise
    #: the first error, non-strict labs quarantine the machine.
    boot_errors: list = field(default_factory=list)

    @property
    def loopback(self) -> Optional[ipaddress.IPv4Address]:
        for interface in self.interfaces:
            if interface.is_loopback and interface.ip_address is not None:
                return interface.ip_address
        return None

    def interface(self, name: str) -> Optional[InterfaceIntent]:
        for interface in self.interfaces:
            if interface.name == name:
                return interface
        return None

    def addresses(self) -> list[ipaddress.IPv4Address]:
        return [
            interface.ip_address
            for interface in self.interfaces
            if interface.ip_address is not None and not interface.is_management
        ]

    def owns_address(self, address) -> bool:
        address = _as_address(address)
        return any(
            interface.ip_address == address and not interface.is_management
            for interface in self.interfaces
        )


@dataclass(slots=True)
class LabIntent:
    """A whole lab: all machines plus platform metadata."""

    platform: str
    devices: dict[str, DeviceIntent] = field(default_factory=dict)
    description: str = ""

    def routers(self) -> list[DeviceIntent]:
        return [device for device in self.devices.values()
                if device.ospf or device.bgp or device.isis]
