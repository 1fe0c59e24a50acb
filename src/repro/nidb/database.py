"""The Network Information / Resource Database (NIDB) (§5.4, §5.5).

The compiler condenses the overlay graphs into a single device-level
graph whose nodes carry everything the templates need: nested,
vendor-independent attribute stanzas such as ``node.zebra.hostname``
and ``node.ospf.ospf_links`` (see the ``as100r1`` dump in §5.4), plus a
``render`` stanza naming the template and output folder for the device
(§5.5).

:class:`ConfigStanza` is the nested attribute namespace; missing
attributes read as ``None`` (matching the accessor convention), so
templates can probe for optional features with plain truth tests.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Iterator

import networkx as nx

from repro.exceptions import CompilerError, NodeNotFoundError


def stable_hash(value: Any) -> str:
    """A stable content hash of any JSON-representable value or stanza tree.

    Canonical JSON (sorted keys, compact separators, a
    :class:`ConfigStanza` encoded as its fields, other non-JSON leaves
    stringified) hashed with SHA-256 — the same value always produces
    the same digest across processes and runs, which is what the build
    engine's content-addressed cache keys require.  A stanza tree hashes
    exactly as its ``to_dict()`` would, without building that copy.
    """
    payload = json.dumps(
        value, sort_keys=True, default=_encode, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _encode(value: Any) -> Any:
    if isinstance(value, ConfigStanza):
        return value.__dict__
    return str(value)


class ConfigStanza:
    """A nested attribute namespace; its fields are the instance ``__dict__``.

    Reading a set field is a plain attribute lookup (the templates read
    millions of them per paper-scale render); ``__getattr__`` only runs
    for names that were never set.  A field may not take a name the
    class already defines (``get``, ``to_dict``, ``interface``, ...):
    it would be shadowed on one side or shadow a method on the other.
    """

    #: Names a field may not take: everything the class defines.
    _RESERVED: frozenset = frozenset()

    def __init_subclass__(cls, **kwargs: Any):
        super().__init_subclass__(**kwargs)
        cls._RESERVED = frozenset(dir(cls))

    def __init__(self, **attrs: Any):
        _refuse_reserved(type(self), attrs)
        data = self.__dict__
        for name, value in attrs.items():
            data[name] = _stanzify(value)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        return None

    def __setattr__(self, name: str, value: Any) -> None:
        if name in self._RESERVED:
            _refuse_reserved(type(self), (name,))
        self.__dict__[name] = _stanzify(value)

    def __setstate__(self, state: Any) -> None:
        # pickle and copy restore fields (and DeviceModel's slot) here
        fields, slots = state if isinstance(state, tuple) else (state, None)
        self.__dict__.update(fields or ())
        for name, value in (slots or {}).items():
            object.__setattr__(self, name, value)

    def __contains__(self, name: str) -> bool:
        return name in self.__dict__

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, ConfigStanza):
            return self.to_dict() == other.to_dict()
        return NotImplemented

    def get(self, name: str, default: Any = None) -> Any:
        return self.__dict__.get(name, default)

    def require(self, name: str) -> Any:
        """Like ``get`` but raises when the compiler forgot to set it."""
        if name not in self.__dict__:
            raise CompilerError("required attribute %r was never compiled" % name)
        return self.__dict__[name]

    def setdefault(self, name: str, value: Any) -> Any:
        if name not in self.__dict__:
            setattr(self, name, value)
        return self.__dict__[name]

    def to_dict(self) -> dict:
        """Recursively convert to plain dicts/lists (the §5.4 dump)."""
        return _plain(self.__dict__)

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), default=str, **kwargs)

    def __repr__(self) -> str:
        return "ConfigStanza(%s)" % ", ".join(sorted(self.__dict__))


ConfigStanza._RESERVED = frozenset(dir(ConfigStanza))


def _refuse_reserved(cls: type, names: Iterable) -> None:
    if not cls._RESERVED.isdisjoint(names):
        clash = sorted(map(str, cls._RESERVED.intersection(names)))
        raise CompilerError(
            "field name %r would shadow %s.%s" % (clash[0], cls.__name__, clash[0])
        )


#: Leaf types stored as they are; almost every compiled value is one.
_SCALARS = frozenset({str, int, bool, float, type(None)})


def _stanzify(value: Any) -> Any:
    if type(value) in _SCALARS:
        return value
    if isinstance(value, dict):
        _refuse_reserved(ConfigStanza, value)
        stanza = ConfigStanza()
        data = stanza.__dict__
        for name, inner in value.items():
            data[name] = _stanzify(inner)
        return stanza
    if isinstance(value, (list, tuple)):
        return [_stanzify(item) for item in value]
    return value


def _plain(value: Any) -> Any:
    if isinstance(value, ConfigStanza):
        return _plain(value.__dict__)
    if isinstance(value, dict):
        return {name: _plain(inner) for name, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class DeviceModel(ConfigStanza):
    """One device's compiled state: a stanza with an id and interfaces.

    ``node_id`` is a slot, not a field: it is not part of ``to_dict()``
    and enters ``fingerprint()`` only as the explicit ``id``.
    """

    __slots__ = ("node_id",)

    def __init__(self, node_id, **attrs: Any):
        super().__init__(**attrs)
        object.__setattr__(self, "node_id", node_id)
        self.setdefault("interfaces", [])

    def add_interface(self, **attrs: Any) -> ConfigStanza:
        interface = ConfigStanza(**attrs)
        self.interfaces.append(interface)
        return interface

    def interface(self, interface_id: str) -> ConfigStanza:
        for interface in self.interfaces:
            if interface.id == interface_id:
                return interface
        raise CompilerError(
            "device %s has no interface %r" % (self.node_id, interface_id)
        )

    def physical_interfaces(self) -> list[ConfigStanza]:
        return [i for i in self.interfaces if i.category != "loopback"]

    def loopback_interface(self) -> ConfigStanza | None:
        for interface in self.interfaces:
            if interface.category == "loopback":
                return interface
        return None

    def fingerprint(self) -> str:
        """Stable hash of the device's entire compiled subtree.

        Two devices with identical compiled state (attributes,
        interfaces, render entries) produce identical fingerprints, so
        the build engine can decide from fingerprints alone whether a
        device's configuration needs re-rendering.
        """
        return stable_hash({"id": str(self.node_id), "state": self.__dict__})

    def is_router(self) -> bool:
        return self.device_type == "router"

    def is_server(self) -> bool:
        return self.device_type == "server"

    def __repr__(self) -> str:
        return "DeviceModel(%s)" % (self.node_id,)


class Nidb:
    """Device-level graph: compiled devices plus their links."""

    def __init__(self):
        self._graph = nx.Graph()
        #: Topology-level compiled state: platform, emulation host,
        #: platform-wide render entries (lab.conf and friends).
        self.topology = ConfigStanza()

    # -- devices ------------------------------------------------------------
    def add_device(self, node_id, **attrs: Any) -> DeviceModel:
        device = DeviceModel(node_id, **attrs)
        self._graph.add_node(node_id, device=device)
        return device

    def node(self, node) -> DeviceModel:
        node_id = getattr(node, "node_id", node)
        try:
            return self._graph.nodes[node_id]["device"]
        except KeyError:
            raise NodeNotFoundError(node_id, "nidb") from None

    def has_node(self, node) -> bool:
        return self._graph.has_node(getattr(node, "node_id", node))

    def replace_device(self, device: DeviceModel) -> DeviceModel:
        """Swap in a freshly compiled model for an existing device.

        The incremental build path recompiles only dirty devices and
        grafts them back into the previous run's database.
        """
        if not self._graph.has_node(device.node_id):
            raise NodeNotFoundError(device.node_id, "nidb")
        self._graph.nodes[device.node_id]["device"] = device
        return device

    def remove_device(self, node) -> None:
        node_id = getattr(node, "node_id", node)
        if not self._graph.has_node(node_id):
            raise NodeNotFoundError(node_id, "nidb")
        self._graph.remove_node(node_id)

    def fingerprints(self) -> dict[str, str]:
        """``{device id: fingerprint}`` over the whole database."""
        return {str(device.node_id): device.fingerprint() for device in self.nodes()}

    def nodes(self, **filters: Any) -> list[DeviceModel]:
        found = []
        for _, data in self._graph.nodes(data=True):
            device = data["device"]
            if all(device.get(name) == value for name, value in filters.items()):
                found.append(device)
        return found

    def routers(self, **filters: Any) -> list[DeviceModel]:
        return self.nodes(device_type="router", **filters)

    def servers(self, **filters: Any) -> list[DeviceModel]:
        return self.nodes(device_type="server", **filters)

    def __iter__(self) -> Iterator[DeviceModel]:
        return iter(self.nodes())

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    # -- links --------------------------------------------------------------
    def add_link(self, src, dst, **attrs: Any) -> None:
        src_id = getattr(src, "node_id", src)
        dst_id = getattr(dst, "node_id", dst)
        self._graph.add_edge(src_id, dst_id, **attrs)

    def links(self) -> list[tuple]:
        """(src_device, dst_device, data) triples for all links."""
        return [
            (self.node(src), self.node(dst), data)
            for src, dst, data in self._graph.edges(data=True)
        ]

    def neighbors(self, node) -> list[DeviceModel]:
        node_id = getattr(node, "node_id", node)
        return [self.node(n) for n in self._graph.neighbors(node_id)]

    # -- export ---------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "devices": {
                str(device.node_id): device.to_dict() for device in self.nodes()
            },
            "links": [
                {
                    "src": str(src),
                    "dst": str(dst),
                    **{k: str(v) for k, v in data.items()},
                }
                for src, dst, data in self._graph.edges(data=True)
            ],
        }

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), default=str, **kwargs)

    def __repr__(self) -> str:
        return "Nidb(%d devices, %d links)" % (
            self._graph.number_of_nodes(),
            self._graph.number_of_edges(),
        )


def changed_devices(
    before: dict[str, str], after: dict[str, str]
) -> tuple[set[str], list[str]]:
    """``(dirty, removed)`` between two :meth:`Nidb.fingerprints` maps.

    ``dirty`` holds the devices of ``after`` that are new or whose
    fingerprint moved; ``removed`` the devices only ``before`` has,
    sorted.  A device's rendered files are a function of its
    fingerprint, so every other device renders the same bytes on both
    sides.
    """
    dirty = {
        device_id
        for device_id, fingerprint in after.items()
        if before.get(device_id) != fingerprint
    }
    removed = sorted(device_id for device_id in before if device_id not in after)
    return dirty, removed


def subnet_items(nidb: Nidb) -> Iterable[tuple]:
    """(subnet, device, interface) triples across the whole NIDB.

    The measurement system uses this to map observed IP addresses back
    to the devices they belong to (§5.7).
    """
    for device in nidb:
        for interface in device.interfaces:
            if interface.ip_address is not None:
                yield (interface.ip_address, interface.prefixlen, device, interface)
