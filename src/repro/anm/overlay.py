"""Overlay graph wrapper: the high-level API of the ANM (§5.2).

An :class:`OverlayGraph` wraps one NetworkX graph inside the Abstract
Network Model and exposes the network-design API used throughout the
paper: attribute-filtered node/edge queries, device-type shortcuts,
``add_nodes_from(..., retain=...)`` to copy attributes across layers,
``bidirected`` edge addition for directed session graphs, and a
``data`` namespace for overlay-level attributes such as the per-AS
infrastructure address blocks.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator

import networkx as nx

from repro.anm.accessors import EdgeAccessor, NodeAccessor
from repro.exceptions import NodeNotFoundError


class OverlayData:
    """Attribute namespace for overlay-level data (§5.2.1).

    Storing group-level facts (for example the infrastructure subnet
    blocks allocated to each AS) once on the overlay avoids duplicating
    them on every node::

        G_ip.data.infra_blocks = {1: [IPv4Network("10.0.0.0/16")]}
    """

    def __init__(self, data: dict):
        object.__setattr__(self, "_data", data)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        return self._data.get(name)

    def __setattr__(self, name: str, value: Any) -> None:
        self._data[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def get(self, name: str, default: Any = None) -> Any:
        return self._data.get(name, default)

    def as_dict(self) -> dict:
        return dict(self._data)

    def __repr__(self) -> str:
        return "OverlayData(%r)" % (self._data,)


def _node_id(node: Any):
    """Accept either a raw node id or any accessor carrying ``node_id``."""
    return getattr(node, "node_id", node)


def _matches(data: dict, filters: dict) -> bool:
    return all(data.get(key) == value for key, value in filters.items())


class OverlayGraph:
    """High-level wrapper around one NetworkX graph in the ANM."""

    def __init__(self, anm, overlay_id: str, graph: nx.Graph):
        self._anm = anm
        self.overlay_id = overlay_id
        self._graph = graph

    # -- basics ---------------------------------------------------------------
    def is_directed(self) -> bool:
        return self._graph.is_directed()

    def is_multigraph(self) -> bool:
        return self._graph.is_multigraph()

    @property
    def anm(self):
        """The Abstract Network Model this overlay belongs to."""
        return self._anm

    @property
    def data(self) -> OverlayData:
        """Overlay-level attribute namespace."""
        return OverlayData(self._graph.graph)

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def __iter__(self) -> Iterator[NodeAccessor]:
        return iter(self.nodes())

    def __contains__(self, node: Any) -> bool:
        return self._graph.has_node(_node_id(node))

    def __repr__(self) -> str:
        return "OverlayGraph(%s: %d nodes, %d edges)" % (
            self.overlay_id,
            self._graph.number_of_nodes(),
            self._graph.number_of_edges(),
        )

    # -- node API ---------------------------------------------------------------
    def node(self, node: Any) -> NodeAccessor:
        """Accessor for ``node`` (id or accessor from any overlay)."""
        node_id = _node_id(node)
        if not self._graph.has_node(node_id):
            raise NodeNotFoundError(node_id, self.overlay_id)
        return NodeAccessor(self, node_id)

    def has_node(self, node: Any) -> bool:
        return self._graph.has_node(_node_id(node))

    def nodes(self, **filters: Any) -> list[NodeAccessor]:
        """All nodes, optionally filtered by attribute equality.

        ``G.nodes(device_type="router", asn=100)`` returns only nodes
        whose attributes match every filter, mirroring the selector
        syntax of §5.2.2.
        """
        return [
            NodeAccessor(self, node_id)
            for node_id, data in self._graph.nodes(data=True)
            if _matches(data, filters)
        ]

    def routers(self, **filters: Any) -> list[NodeAccessor]:
        """Shortcut for ``nodes(device_type="router")``."""
        return self.nodes(device_type="router", **filters)

    def switches(self, **filters: Any) -> list[NodeAccessor]:
        return self.nodes(device_type="switch", **filters)

    def servers(self, **filters: Any) -> list[NodeAccessor]:
        return self.nodes(device_type="server", **filters)

    def add_node(self, node: Any, retain: Iterable[str] = (), **attrs: Any) -> NodeAccessor:
        """Add a single node, copying ``retain`` attributes if it is an accessor."""
        node_id = _node_id(node)
        data = dict(attrs)
        if isinstance(node, NodeAccessor):
            source = node.attributes()
            for name in retain:
                if name in source:
                    data.setdefault(name, source[name])
        self._graph.add_node(node_id, **data)
        return NodeAccessor(self, node_id)

    def add_nodes_from(
        self, nodes: Iterable[Any], retain: Iterable[str] = (), **attrs: Any
    ) -> list[NodeAccessor]:
        """Add nodes (ids, accessors, or an overlay), copying ``retain`` attributes.

        Node ids are copied automatically, which is what makes a node in
        one overlay addressable from any other (§5.2.3).
        """
        retain = list(retain)
        return [self.add_node(node, retain=retain, **attrs) for node in nodes]

    def remove_node(self, node: Any) -> None:
        node_id = _node_id(node)
        if not self._graph.has_node(node_id):
            raise NodeNotFoundError(node_id, self.overlay_id)
        self._graph.remove_node(node_id)

    def remove_nodes_from(self, nodes: Iterable[Any]) -> None:
        for node in list(nodes):
            self.remove_node(node)

    # -- edge API ---------------------------------------------------------------
    def _edge_endpoints(self, edge: Any) -> tuple:
        """Normalise an edge spec: EdgeAccessor, (u, v) pair, or (u, v, dict).

        Returns (src, dst, retainable_data, inline_data): attributes of
        an accessor are only copied via ``retain``, while an explicit
        inline dict is applied verbatim.
        """
        if isinstance(edge, EdgeAccessor):
            return (_node_id(edge.src_id), _node_id(edge.dst_id), edge.attributes(), {})
        edge = tuple(edge)
        if len(edge) == 2:
            return (_node_id(edge[0]), _node_id(edge[1]), {}, {})
        if len(edge) == 3 and isinstance(edge[2], dict):
            return (_node_id(edge[0]), _node_id(edge[1]), {}, dict(edge[2]))
        raise ValueError("cannot interpret %r as an edge" % (edge,))

    def add_edge(
        self,
        src: Any,
        dst: Any,
        retain: Iterable[str] = (),
        bidirected: bool = False,
        **attrs: Any,
    ) -> EdgeAccessor:
        """Add one edge; both endpoints are created if absent."""
        src_id, dst_id = _node_id(src), _node_id(dst)
        data = dict(attrs)
        if isinstance(src, EdgeAccessor):
            raise ValueError("pass edges to add_edges_from, not add_edge")
        for node_id in (src_id, dst_id):
            if not self._graph.has_node(node_id):
                self._graph.add_node(node_id)
        key = self._graph.add_edge(src_id, dst_id, **data)
        if bidirected and self.is_directed():
            self._graph.add_edge(dst_id, src_id, **data)
        return EdgeAccessor(self, src_id, dst_id, ekey=key)

    def add_edges_from(
        self,
        edges: Iterable[Any],
        retain: Iterable[str] = (),
        bidirected: bool = False,
        **attrs: Any,
    ) -> list[EdgeAccessor]:
        """Add edges from accessors or (u, v[, data]) tuples.

        ``retain`` copies the named attributes from source accessors;
        ``bidirected`` adds the reverse edge too on directed overlays,
        the idiom used for BGP session graphs in §6.1.
        """
        retain = list(retain)
        added = []
        for edge in edges:
            src_id, dst_id, source_data, inline_data = self._edge_endpoints(edge)
            data = dict(attrs)
            data.update(inline_data)
            for name in retain:
                if name in source_data:
                    data.setdefault(name, source_data[name])
            for node_id in (src_id, dst_id):
                if not self._graph.has_node(node_id):
                    self._graph.add_node(node_id)
            key = self._graph.add_edge(src_id, dst_id, **data)
            if bidirected and self.is_directed():
                self._graph.add_edge(dst_id, src_id, **data)
            added.append(EdgeAccessor(self, src_id, dst_id, ekey=key))
        return added

    def edge(self, src: Any, dst: Any, ekey: Any = None) -> EdgeAccessor:
        src_id, dst_id = _node_id(src), _node_id(dst)
        if not self._graph.has_edge(src_id, dst_id):
            raise NodeNotFoundError((src_id, dst_id), self.overlay_id)
        return EdgeAccessor(self, src_id, dst_id, ekey=ekey)

    def has_edge(self, src: Any, dst: Any) -> bool:
        return self._graph.has_edge(_node_id(src), _node_id(dst))

    def edges(self, node: Any = None, **filters: Any) -> list[EdgeAccessor]:
        """All edges, optionally restricted to one node and/or filtered.

        For directed overlays with ``node`` given, both in- and out-edges
        are returned (a router's BGP sessions regardless of direction).
        With ``node`` the cost is that node's degree, not the overlay's size.
        """
        graph = self._graph
        if node is None:
            raw = graph.edges(data=True)
        elif graph.is_directed():
            node_id = _node_id(node)
            raw = itertools.chain(
                graph.out_edges(node_id, data=True), graph.in_edges(node_id, data=True)
            )
        else:
            raw = graph.edges(_node_id(node), data=True)
        return [
            EdgeAccessor(self, src, dst)
            for src, dst, data in raw
            if _matches(data, filters)
        ]

    def remove_edge(self, src: Any, dst: Any) -> None:
        self._graph.remove_edge(_node_id(src), _node_id(dst))

    def remove_edges_from(self, edges: Iterable[Any]) -> None:
        for edge in list(edges):
            src_id, dst_id, _, _ = self._edge_endpoints(edge)
            if self._graph.has_edge(src_id, dst_id):
                self._graph.remove_edge(src_id, dst_id)

    def number_of_edges(self) -> int:
        return self._graph.number_of_edges()

    # -- degree / misc ------------------------------------------------------
    def degree(self, node: Any) -> int:
        return self._graph.degree(_node_id(node))

    def subgraph(self, nodes: Iterable[Any]) -> nx.Graph:
        """A NetworkX subgraph copy induced by ``nodes`` (unwrapped)."""
        return self._graph.subgraph([_node_id(node) for node in nodes]).copy()
