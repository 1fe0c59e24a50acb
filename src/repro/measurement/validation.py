"""Design-vs-measured validation (§5.7, §8).

"The OSPF neighbors command could be run on each router, used to
construct the OSPF graph of the running network, and compared against
the OSPF overlay constructed at design-time ...  This provides a
powerful framework for automated validation that the experimental
topology is indeed correct — an essential step in the scientific
method."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.anm import OverlayGraph
from repro.emulation import EmulatedLab
from repro.measurement.client import MeasurementClient
from repro.measurement.mapping import IpMapper
from repro.nidb import Nidb


@dataclass
class ValidationReport:
    """Difference between a designed overlay and the measured topology."""

    overlay_id: str
    designed_edges: set = field(default_factory=set)
    measured_edges: set = field(default_factory=set)

    @property
    def missing(self) -> set:
        """Designed adjacencies the running network did not exhibit."""
        return self.designed_edges - self.measured_edges

    @property
    def unexpected(self) -> set:
        """Running adjacencies the design never asked for."""
        return self.measured_edges - self.designed_edges

    @property
    def ok(self) -> bool:
        return not self.missing and not self.unexpected

    def summary(self) -> str:
        if self.ok:
            return "%s: measured topology matches design (%d edges)" % (
                self.overlay_id,
                len(self.designed_edges),
            )
        return "%s: %d missing, %d unexpected adjacencies" % (
            self.overlay_id,
            len(self.missing),
            len(self.unexpected),
        )


def measured_ospf_graph(lab: EmulatedLab, nidb: Nidb) -> nx.Graph:
    """Build the OSPF adjacency graph of the *running* network.

    Runs ``show ip ospf neighbor`` on every router, parses the text
    output, and maps neighbor router-ids back to device names.  The
    fan-out is consumed as a stream: one router's output is held at a
    time.
    """
    client = MeasurementClient(lab, nidb)
    mapper = IpMapper(nidb)
    graph = nx.Graph()
    routers = [str(device.node_id) for device in nidb.routers() if device.ospf]

    def neighbors(result) -> tuple[str, dict]:
        found = {}  # ordered, so the graph's node order follows the text
        for row in result.parsed:
            neighbor = mapper.device_for(row["NEIGHBOR_ID"]) or mapper.device_for(
                row["ADDRESS"]
            )
            if neighbor is not None:
                found[neighbor] = None
        return result.machine, found

    # map() lets each result go before the next one is measured
    for machine, found in map(
        neighbors, client.iter_results("show ip ospf neighbor", routers)
    ):
        graph.add_node(machine)
        graph.add_edges_from((machine, neighbor) for neighbor in found)
    return graph


def validate_ospf(lab: EmulatedLab, nidb: Nidb, g_ospf: OverlayGraph) -> ValidationReport:
    """Compare the measured OSPF adjacency against the design overlay."""
    measured = measured_ospf_graph(lab, nidb)
    designed = {
        tuple(sorted((str(edge.src_id), str(edge.dst_id))))
        for edge in g_ospf.edges()
    }
    observed = {tuple(sorted((str(u), str(v)))) for u, v in measured.edges()}
    return ValidationReport(
        overlay_id="ospf", designed_edges=designed, measured_edges=observed
    )


def validate_bgp_sessions(lab: EmulatedLab, nidb: Nidb) -> ValidationReport:
    """Compare configured BGP sessions against established ones.

    Uses ``show ip bgp summary`` output (text) per router; a session is
    "measured" when both ends report each other.  The fan-out is
    consumed as a stream: what is kept per router is the set of peers it
    reported, never its output or parsed rows.
    """
    client = MeasurementClient(lab, nidb)
    mapper = IpMapper(nidb)
    routers = [device for device in nidb.routers() if device.bgp]

    def peers(result) -> tuple[str, frozenset]:
        found = set()
        for row in result.parsed:
            peer = mapper.device_for(row["NEIGHBOR"])
            if peer is not None:
                found.add(peer)
        # kept until every router has reported: the copy is sized for its
        # contents, half the table of a set grown one add at a time
        return result.machine, frozenset(found)

    hosts = [str(device.node_id) for device in routers]
    # map() lets each result go before the next one is measured
    reported = dict(map(peers, client.iter_results("show ip bgp summary", hosts)))
    measured = {
        (machine, peer) if machine < peer else (peer, machine)
        for machine, found in reported.items()
        for peer in found
        if machine in reported.get(peer, ())
    }
    designed = set()
    for device in routers:
        for neighbor in list(device.bgp.ebgp_neighbors or []) + list(
            device.bgp.ibgp_neighbors or []
        ):
            designed.add(tuple(sorted((str(device.node_id), neighbor.neighbor))))
    return ValidationReport(
        overlay_id="bgp_sessions", designed_edges=designed, measured_edges=measured
    )
