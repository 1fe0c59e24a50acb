"""Differential test: shared iBGP neighbour records vs one per session.

The compiler builds one read-only record per distinct (peer, ASN,
next-hop-self, session type, cluster id) and gives the same object to
every device with that key.  Compiled under the per-session oracle of
``tests/compilers/ibgp_oracle.py`` instead, every design below must give
the same fingerprints, the same ``to_dict()`` per device and the same
rendered bytes, on every platform.  The designs reach each key field
that can vary at one peer: Bad-Gadget's reflectors of two clusters peer
with the third, and ``reflected_mixed`` has a reflector and a client
peering with one reflector, and two routers that differ only in
next-hop-self peering with a third.
"""

from __future__ import annotations

import os

import pytest

from repro.compilers import platform_compiler
from repro.design import design_network
from repro.loader import bad_gadget_topology, european_nren_model, rpki_topology, small_internet
from repro.render import render_nidb

from tests.compilers.ibgp_oracle import per_session_records

PLATFORMS = ("netkit", "dynagen", "junosphere", "cbgp")
RPKI_RULES = ("phy", "ipv4", "ospf", "ebgp", "ibgp", "rpki")


def reflected_mixed():
    """small_internet with two cluster-less reflectors in AS 100, whose
    client and other reflector hold an "up" and a "peer" record for
    each, and next-hop-self off, on and unset across AS 20's mesh."""
    graph = small_internet()
    for name in ("as100r1", "as100r2"):
        graph.nodes[name]["rr"] = True
    graph.nodes["as20r1"]["bgp_next_hop_self"] = False
    graph.nodes["as20r2"]["bgp_next_hop_self"] = True
    return graph


DESIGNS = {
    "small_internet": lambda: design_network(small_internet()),
    "nren_0.25": lambda: design_network(european_nren_model(scale=0.25)),
    "bad_gadget": lambda: design_network(bad_gadget_topology()),
    "reflected_mixed": lambda: design_network(reflected_mixed()),
    # RPKI's servers compile to "linux", which only netkit supports
    "rpki": lambda: design_network(
        rpki_topology(n_child_cas=2, n_caches=6, n_routers=8), rules=RPKI_RULES
    ),
}
CASES = [
    (design, platform)
    for design in DESIGNS
    for platform in (("netkit",) if design == "rpki" else PLATFORMS)
]


def _rendered(nidb, directory) -> dict[str, bytes]:
    render_nidb(nidb, directory)
    files = {}
    for folder, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, directory)] = handle.read()
    return files


@pytest.fixture(scope="module")
def anms():
    return {}


@pytest.mark.parametrize("design,platform", CASES)
def test_shared_records_compile_and_render_like_per_session_ones(
    anms, design, platform, tmp_path
):
    if design not in anms:
        anms[design] = DESIGNS[design]()
    anm = anms[design]
    shared = platform_compiler(platform, anm).compile()
    with per_session_records():
        oracle = platform_compiler(platform, anm).compile()
    assert shared.fingerprints() == oracle.fingerprints()
    for device in oracle:
        assert shared.node(device.node_id).to_dict() == device.to_dict(), device.node_id
    assert shared.to_json() == oracle.to_json()
    assert _rendered(shared, tmp_path / "shared") == _rendered(oracle, tmp_path / "oracle")


def test_the_designs_reach_every_key_field():
    """For each key field, two devices hold records for one peer that
    differ in that field alone: a key that drops it would hand one of
    them the other's record."""
    fields = ("next_hop_self", "session_type", "cluster_id")
    reached = set()
    for design in ("bad_gadget", "reflected_mixed"):
        nidb = platform_compiler("netkit", DESIGNS[design]()).compile()
        records = {
            (record.neighbor,) + tuple(record.get(field) for field in fields)
            for device in nidb.routers()
            if device.bgp
            for record in device.bgp.ibgp_neighbors
        }
        for index, field in enumerate(fields, start=1):
            rest = [key[:index] + key[index + 1:] for key in records]
            if len(set(rest)) < len(rest):
                reached.add(field)
    assert reached == set(fields)
