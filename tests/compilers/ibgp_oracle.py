"""The per-session iBGP neighbour records, kept as the compiler's oracle.

:func:`ibgp_neighbors` is ``RouterCompiler._ibgp_neighbors`` as it was
before records were shared: one fresh 11-key dict per (device, peer)
pair, which the NIDB turns into one stanza each.  The compiler now
builds one read-only record per distinct (peer, ASN, next-hop-self,
session type, cluster id) and hands the same object to every device
with that key; compiling under :func:`per_session_records` must give
the same fingerprints, ``to_dict()`` and rendered bytes.
"""

from __future__ import annotations

import contextlib
import sys

from repro.compilers.base import RouterCompiler
from repro.exceptions import CompilerError


def ibgp_neighbors(self, phy_node, device, g_ibgp, g_ip) -> list[dict]:
    if g_ibgp is None or g_ip is None or not g_ibgp.has_node(phy_node):
        return []
    node = g_ibgp.node(phy_node)
    neighbors = []
    raw = g_ibgp._graph
    for _, neighbor_id, data in sorted(
        raw.out_edges(phy_node.node_id, data=True), key=lambda item: str(item[1])
    ):
        neighbor_loopback = g_ip.node(neighbor_id).loopback
        if neighbor_loopback is None:
            raise CompilerError(
                "iBGP neighbor %s has no loopback allocated" % (neighbor_id,)
            )
        # interned: a full mesh names every router once per other router
        loopback = sys.intern(str(neighbor_loopback))
        neighbors.append(
            {
                "neighbor": str(neighbor_id),
                "neighbor_ip": loopback,
                "neighbor_loopback": loopback,
                "remote_asn": device.asn,
                "description": sys.intern("iBGP to %s" % (neighbor_id,)),
                "is_ebgp": False,
                "update_source": "lo0",
                # next-hop-self defaults on: iBGP-learned external
                # routes must have an IGP-resolvable next hop, and
                # inter-AS link subnets are not in the IGP.
                "next_hop_self": (
                    True
                    if phy_node.bgp_next_hop_self is None
                    else bool(phy_node.bgp_next_hop_self)
                ),
                "rr_client": data.get("session_type") == "down",
                "session_type": data.get("session_type", "peer"),
                "cluster_id": phy_node.rr_cluster if phy_node.rr else None,
            }
        )
    return neighbors


@contextlib.contextmanager
def per_session_records():
    """Compile with one fresh record per session inside the block."""
    shared = RouterCompiler._ibgp_neighbors
    RouterCompiler._ibgp_neighbors = ibgp_neighbors
    try:
        yield
    finally:
        RouterCompiler._ibgp_neighbors = shared
