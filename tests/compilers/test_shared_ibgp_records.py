"""Sharing guard: an iBGP mesh compiles to one record per peer, read-only.

Counts record objects, not bytes: every device of an n-router full mesh
holds n - 1 iBGP neighbour records, and the n(n - 1) of them must be
only n distinct objects, one per peer.  A shared record refuses writes
(a write would change every device holding it), survives pickle and
deepcopy with every fingerprint intact, and lives for one ``compile()``
call, so a recompile after an ANM edit sees the edit.
"""

import contextlib
import copy
import ipaddress
import os
import pickle

import networkx as nx
import pytest

from repro.compilers import platform_compiler
from repro.design import design_network
from repro.engine import BuildEngine
from repro.exceptions import CompilerError, NodeNotFoundError
from repro.loader import normalise, small_internet
from repro.nidb import SharedStanza

from tests.compilers.ibgp_oracle import per_session_records


def mesh_graph(n: int) -> nx.Graph:
    """n routers of one AS on a ring: the iBGP design meshes them."""
    graph = nx.cycle_graph(["r%02d" % index for index in range(n)])
    for node in graph:
        graph.nodes[node].update(device_type="router", asn=1)
    return normalise(graph)


def _records(nidb) -> list:
    return [
        record
        for device in nidb.routers()
        if device.bgp
        for record in device.bgp.ibgp_neighbors
    ]


@pytest.fixture(scope="module")
def mesh_anm():
    return design_network(mesh_graph(12))


def test_a_mesh_compiles_to_one_record_per_router(mesh_anm):
    records = _records(platform_compiler("netkit", mesh_anm).compile())
    assert len(records) == 12 * 11
    assert len({id(record) for record in records}) == 12
    assert all(isinstance(record, SharedStanza) for record in records)


def test_writing_a_shared_record_raises(mesh_anm):
    nidb = platform_compiler("netkit", mesh_anm).compile()
    before = nidb.fingerprints()
    record = nidb.node("r00").bgp.ibgp_neighbors[0]
    with pytest.raises(CompilerError, match="read-only"):
        record.next_hop_self = False
    with pytest.raises(CompilerError, match="read-only"):
        record.setdefault("weight", 100)
    with pytest.raises(CompilerError, match="read-only"):
        del record.neighbor_ip
    assert nidb.fingerprints() == before
    # a device's list is its own: replacing it leaves the others alone
    bgp = nidb.node("r00").bgp
    bgp.ibgp_neighbors = [dict(r.to_dict(), next_hop_self=False) for r in bgp.ibgp_neighbors]
    changed = nidb.fingerprints()
    assert {name for name in before if before[name] != changed[name]} == {"r00"}


def test_pickle_and_deepcopy_keep_every_fingerprint(mesh_anm):
    nidb = platform_compiler("netkit", mesh_anm).compile()
    for clone in (pickle.loads(pickle.dumps(nidb)), copy.deepcopy(nidb)):
        assert clone.fingerprints() == nidb.fingerprints()
        records = _records(clone)
        assert len({id(record) for record in records}) == 12
        with pytest.raises(CompilerError):
            records[0].neighbor = "elsewhere"


def _tree(root) -> dict[str, bytes]:
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


def test_parallel_render_equals_serial(tmp_path):
    graph = mesh_graph(8)
    for jobs in (1, 2):
        BuildEngine(jobs=jobs, use_cache=False).build(graph, output_dir=str(tmp_path / str(jobs)))
    serial = _tree(tmp_path / "1")
    assert serial and _tree(tmp_path / "2") == serial


def test_a_second_compile_sees_an_anm_edit():
    anm = design_network(small_internet())
    compiler = platform_compiler("netkit", anm)
    compiler.compile()
    anm["ipv4"].node("as100r2").loopback = ipaddress.ip_address("10.99.0.2")
    again = compiler.compile()
    assert again.fingerprints() == platform_compiler("netkit", anm).compile().fingerprints()
    peers = {record.neighbor: record for record in again.node("as100r1").bgp.ibgp_neighbors}
    assert peers["as100r2"].neighbor_ip == "10.99.0.2"


@pytest.mark.parametrize(
    "break_peer,error,message",
    [
        (
            lambda g_ip: setattr(g_ip.node("as100r2"), "loopback", None),
            CompilerError,
            "iBGP neighbor as100r2 has no loopback allocated",
        ),
        (
            lambda g_ip: g_ip.remove_node("as100r2"),
            NodeNotFoundError,
            "node 'as100r2' not present in overlay 'ipv4'",
        ),
    ],
    ids=["no-loopback", "not-in-ipv4"],
)
def test_a_broken_peer_fails_as_before(break_peer, error, message):
    for records in (per_session_records, contextlib.nullcontext):
        anm = design_network(small_internet())
        break_peer(anm["ipv4"])
        with records(), pytest.raises(error) as raised:
            platform_compiler("netkit", anm).compile()
        assert str(raised.value) == message
