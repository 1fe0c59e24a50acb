"""The emulated network fabric: machines, segments, and address lookup.

An :class:`EmulatedNetwork` is built from a parsed :class:`LabIntent`.
It groups interfaces into layer-2 segments (by collision-domain label
when the platform declares one, by shared subnet otherwise), and builds
the address-to-machine map the dataplane and measurement layers use.
"""

from __future__ import annotations

import ipaddress
from typing import Iterator, Optional

from repro.emulation.intent import DeviceIntent, InterfaceIntent, LabIntent
from repro.exceptions import EmulationError


def address_key(address):
    """An address as a dict key that hashes natively: its integer for
    IPv4, the address itself for IPv6, so the families never share a key."""
    return int(address) if isinstance(address, ipaddress.IPv4Address) else address


class Segment:
    """One layer-2 segment: the interfaces attached to it."""

    def __init__(self, key: str):
        self.key = key
        self.members: list[tuple[DeviceIntent, InterfaceIntent]] = []

    @property
    def network(self) -> Optional[ipaddress.IPv4Network]:
        for _, interface in self.members:
            if interface.network is not None:
                return interface.network
        return None

    def machines(self) -> list[str]:
        return [device.name for device, _ in self.members]

    def interface_of(self, machine: str) -> Optional[InterfaceIntent]:
        for device, interface in self.members:
            if device.name == machine:
                return interface
        return None

    def __repr__(self) -> str:
        return "Segment(%s: %s)" % (self.key, ", ".join(self.machines()))


class EmulatedNetwork:
    """Machines plus the segments and address map connecting them.

    ``disabled_machines`` and ``disabled_attachments`` model topology
    faults without touching the intent: a disabled machine is excluded
    from the fabric entirely (powered off or quarantined), a disabled
    ``(machine, segment key)`` attachment takes that machine's interface
    off one segment (a failed link end) while the segment survives for
    its other members.  The full parsed topology stays available as
    :attr:`all_machines` so faults can later be reverted.
    """

    def __init__(
        self,
        lab: LabIntent,
        disabled_machines=(),
        disabled_attachments=(),
    ):
        self.lab = lab
        self.all_machines: dict[str, DeviceIntent] = dict(lab.devices)
        if not self.all_machines:
            raise EmulationError("lab has no machines to boot")
        self.disabled_machines: set[str] = set(disabled_machines)
        self.disabled_attachments: set[tuple[str, str]] = set(disabled_attachments)
        self._rebuild()

    def _rebuild(self) -> None:
        self.machines: dict[str, DeviceIntent] = {
            name: device
            for name, device in self.all_machines.items()
            if name not in self.disabled_machines
        }
        if not self.machines:
            raise EmulationError("lab has no machines to boot")
        self.segments: dict[str, Segment] = {}
        #: address_key(address) -> owning machine.
        self._owners: dict = {}
        self._segments_of: dict[str, list[Segment]] = {name: [] for name in self.machines}
        #: machine -> frozenset of its fabric neighbours, filled on first ask.
        self._neighbor_sets: dict[str, frozenset] = {}
        self._build()

    @staticmethod
    def _interface_key(interface: InterfaceIntent) -> Optional[str]:
        """The layer-2 segment key an interface attaches to, if any."""
        if interface.collision_domain is not None:
            return interface.collision_domain
        if interface.network is not None:
            return "net_%s" % interface.network
        return None

    def _build(self) -> None:
        for name in sorted(self.machines):
            device = self.machines[name]
            for interface in device.interfaces:
                if interface.is_management:
                    continue
                key = None
                if not interface.is_loopback:
                    key = self._interface_key(interface)
                    if key is not None and (name, key) in self.disabled_attachments:
                        continue  # failed link end: interface is down
                if interface.ip_address is not None:
                    owner_key = address_key(interface.ip_address)
                    existing = self._owners.get(owner_key)
                    if existing is not None and not interface.is_loopback:
                        raise EmulationError(
                            "duplicate address %s on %s and %s"
                            % (interface.ip_address, existing, name)
                        )
                    self._owners[owner_key] = name
                if interface.is_loopback or key is None:
                    continue
                segment = self.segments.setdefault(key, Segment(key))
                segment.members.append((device, interface))
                self._segments_of[name].append(segment)

    def segment_keys_between(self, left: str, right: str) -> list[str]:
        """Segment keys joining two machines in the *full* topology.

        Computed from ``all_machines`` so a downed link is still
        addressable (for restoration) even while its attachments are
        disabled.
        """

        def keys(machine: str) -> set[str]:
            device = self.all_machines.get(machine)
            if device is None:
                return set()
            return {
                key
                for key in (
                    self._interface_key(interface)
                    for interface in device.interfaces
                    if not interface.is_management and not interface.is_loopback
                )
                if key is not None
            }

        return sorted(keys(left) & keys(right))

    # -- lookups --------------------------------------------------------------
    def device(self, name: str) -> DeviceIntent:
        try:
            return self.machines[name]
        except KeyError:
            raise EmulationError("no machine named %r in the lab" % (name,)) from None

    def owner_of(self, address) -> Optional[str]:
        """Machine name owning an address, or None."""
        if not isinstance(
            address, (ipaddress.IPv4Address, ipaddress.IPv6Address)
        ):
            address = ipaddress.ip_address(str(address))
        return self._owners.get(address_key(address))

    def segments_of(self, machine: str) -> list[Segment]:
        return list(self._segments_of.get(machine, []))

    def neighbors_of(self, machine: str) -> list[str]:
        found = []
        for segment in self._segments_of.get(machine, []):
            for name in segment.machines():
                if name != machine and name not in found:
                    found.append(name)
        return found

    def neighbor_set(self, machine: str) -> frozenset:
        """``neighbors_of`` as a set, built once per machine and fabric."""
        found = self._neighbor_sets.get(machine)
        if found is None:
            found = self._neighbor_sets[machine] = frozenset(self.neighbors_of(machine))
        return found

    def shared_segments(self, left: str, right: str) -> list[Segment]:
        return [
            segment
            for segment in self._segments_of.get(left, [])
            if right in segment.machines()
        ]

    def connected_networks(self, machine: str) -> list[ipaddress.IPv4Network]:
        device = self.device(machine)
        return [
            interface.network
            for interface in device.interfaces
            if interface.network is not None and not interface.is_management
        ]

    def address_on_segment_with(self, machine: str, other: str) -> Optional[ipaddress.IPv4Address]:
        """The machine's address on a segment it shares with ``other``."""
        for segment in self.shared_segments(machine, other):
            interface = segment.interface_of(machine)
            if interface is not None and interface.ip_address is not None:
                return interface.ip_address
        device = self.device(machine)
        return device.loopback

    def __iter__(self) -> Iterator[DeviceIntent]:
        return iter(self.machines.values())

    def __len__(self) -> int:
        return len(self.machines)

    def __repr__(self) -> str:
        return "EmulatedNetwork(%d machines, %d segments)" % (
            len(self.machines),
            len(self.segments),
        )
