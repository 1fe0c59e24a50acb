"""Lightweight node and edge accessor objects.

The paper (§5.2) wraps every NetworkX graph, node and edge in a small
accessor object so that network design code reads like ``node.asn`` and
``edge.src.asn != edge.dst.asn`` instead of dictionary indexing.  The
accessors hold no state of their own: every attribute read or write goes
straight to the underlying NetworkX data dictionary, so two accessors
for the same node always observe the same values.

Unset attributes read as ``None``.  This deliberate choice (matching the
original system) lets design rules use the common pattern::

    if node.rr:          # False for both rr=False and "never set"
        ...

Accessors compare and hash by node id alone, *not* by overlay, so a node
accessor from one overlay can be used to look up "the same" node in
another overlay — the cross-layer access pattern of §5.2.3::

    loopback = G_ip.node(ibgp_node).loopback
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Iterator

from repro.exceptions import NodeNotFoundError

#: Attribute names that live on the accessor instances themselves rather
#: than in the underlying graph data.  Everything else round-trips to the
#: NetworkX node/edge dictionary.
_NODE_SLOTS = frozenset({"overlay", "node_id"})
_EDGE_SLOTS = frozenset({"overlay", "src_id", "dst_id", "ekey"})


@functools.total_ordering
class NodeAccessor:
    """A view of one node inside one overlay graph.

    Attribute access is proxied to the node's data dictionary in the
    underlying NetworkX graph; missing attributes read as ``None``.
    """

    def __init__(self, overlay, node_id):
        object.__setattr__(self, "overlay", overlay)
        object.__setattr__(self, "node_id", node_id)

    # -- attribute proxying -------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        return self._data().get(name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in _NODE_SLOTS:
            object.__setattr__(self, name, value)
        else:
            self._data()[name] = value

    def get(self, name: str, default: Any = None) -> Any:
        """Return attribute ``name``, or ``default`` when unset."""
        return self._data().get(name, default)

    def set(self, name: str, value: Any) -> None:
        """Set attribute ``name`` (useful when the name is computed)."""
        self._data()[name] = value

    def update(self, **attrs: Any) -> None:
        """Set several attributes at once."""
        self._data().update(attrs)

    def attributes(self) -> dict:
        """A copy of this node's attribute dictionary."""
        return dict(self._data())

    def _data(self) -> dict:
        graph = self.overlay._graph
        try:
            return graph.nodes[self.node_id]
        except KeyError:
            raise NodeNotFoundError(self.node_id, self.overlay.overlay_id) from None

    # -- topology -----------------------------------------------------------
    def edges(self, **filters: Any) -> list:
        """Edges incident to this node, optionally attribute-filtered."""
        return self.overlay.edges(node=self, **filters)

    def neighbors(self, **filters: Any) -> list:
        """Neighbouring nodes, optionally attribute-filtered.

        Walks the adjacency directly, in the order of :meth:`edges`
        (successors then predecessors on a directed overlay); no edge
        accessor is built.
        """
        overlay = self.overlay
        graph = overlay._graph
        node_id = self.node_id
        if node_id not in graph:
            raise NodeNotFoundError(node_id, overlay.overlay_id)
        if graph.is_directed():
            others = itertools.chain(graph.successors(node_id), graph.predecessors(node_id))
        else:
            others = graph.neighbors(node_id)
        data = graph.nodes
        return [
            NodeAccessor(overlay, other)
            for other in others
            if other != node_id
            and all(data[other].get(key) == value for key, value in filters.items())
        ]

    @property
    def degree(self) -> int:
        return self.overlay._graph.degree(self.node_id)

    @property
    def label(self) -> str:
        """Human-readable label: the ``label`` attribute or the node id."""
        return str(self._data().get("label") or self.node_id)

    # -- device-type predicates (§5.2.2) --------------------------------------
    def is_router(self) -> bool:
        return self.get("device_type") == "router"

    def is_switch(self) -> bool:
        return self.get("device_type") == "switch"

    def is_server(self) -> bool:
        return self.get("device_type") == "server"

    def is_device(self, device_type: str) -> bool:
        return self.get("device_type") == device_type

    # -- identity -----------------------------------------------------------
    def __eq__(self, other: Any) -> bool:
        if isinstance(other, NodeAccessor):
            return self.node_id == other.node_id
        return self.node_id == other

    def __lt__(self, other: Any) -> bool:
        other_id = other.node_id if isinstance(other, NodeAccessor) else other
        return str(self.node_id) < str(other_id)

    def __hash__(self) -> int:
        return hash(self.node_id)

    def __repr__(self) -> str:
        return "%s(%s)" % (self.overlay.overlay_id, self.node_id)


class EdgeAccessor:
    """A view of one edge inside one overlay graph.

    ``src`` and ``dst`` are :class:`NodeAccessor` objects in the same
    overlay.  For undirected overlays the (src, dst) order is the order
    the edge was stored or queried with; the accessor compares equal to
    its reversal.
    """

    def __init__(self, overlay, src_id, dst_id, ekey=None):
        object.__setattr__(self, "overlay", overlay)
        object.__setattr__(self, "src_id", src_id)
        object.__setattr__(self, "dst_id", dst_id)
        object.__setattr__(self, "ekey", ekey)

    # -- attribute proxying -------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        return self._data().get(name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in _EDGE_SLOTS:
            object.__setattr__(self, name, value)
        else:
            self._data()[name] = value

    def get(self, name: str, default: Any = None) -> Any:
        return self._data().get(name, default)

    def set(self, name: str, value: Any) -> None:
        self._data()[name] = value

    def attributes(self) -> dict:
        return dict(self._data())

    def _data(self) -> dict:
        graph = self.overlay._graph
        if graph.is_multigraph():
            return graph.edges[self.src_id, self.dst_id, self.ekey]
        return graph.edges[self.src_id, self.dst_id]

    # -- endpoints ----------------------------------------------------------
    @property
    def src(self) -> NodeAccessor:
        return NodeAccessor(self.overlay, self.src_id)

    @property
    def dst(self) -> NodeAccessor:
        return NodeAccessor(self.overlay, self.dst_id)

    def other_end(self, node) -> NodeAccessor:
        """The endpoint that is not ``node``."""
        node_id = node.node_id if isinstance(node, NodeAccessor) else node
        if node_id == self.src_id:
            return self.dst
        if node_id == self.dst_id:
            return self.src
        raise NodeNotFoundError(node_id, self.overlay.overlay_id)

    def endpoints(self) -> tuple[NodeAccessor, NodeAccessor]:
        return (self.src, self.dst)

    # -- identity -----------------------------------------------------------
    def _key(self) -> tuple:
        if self.overlay.is_directed():
            ends: tuple = (self.src_id, self.dst_id)
        else:
            ends = tuple(sorted((self.src_id, self.dst_id), key=str))
        return (self.overlay.overlay_id, ends, self.ekey)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, EdgeAccessor) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __iter__(self) -> Iterator[NodeAccessor]:
        return iter((self.src, self.dst))

    def __repr__(self) -> str:
        arrow = "->" if self.overlay.is_directed() else "--"
        return "%s(%s %s %s)" % (self.overlay.overlay_id, self.src_id, arrow, self.dst_id)
