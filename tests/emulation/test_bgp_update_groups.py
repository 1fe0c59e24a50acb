"""Update groups of the event BGP schedule, and how its work grows.

The counts are pipeline calls, not seconds: an iBGP full mesh builds
each router's advert once per update group (one group: every session
has the same flags), so quadrupling the mesh quadruples ``_export``
calls; the per-session loop this guards against multiplied them by
sixteen.  ``bgp.messages`` still counts one message per session.
"""

from repro.emulation.bgp_engine import BgpSimulation
from repro.emulation.intent import BgpNeighborIntent
from repro.emulation.network import EmulatedNetwork
from repro.emulation.ospf_engine import IgpState

from tests.emulation.control_plane_oracle import simulate_rounds
from tests.emulation.synthetic_bgp import (
    CORE_ASN,
    add_external,
    add_ibgp_session,
    core_lab,
    core_name,
    external_prefix,
    full_mesh,
    loopback,
)


def _simulate(lab, schedule=BgpSimulation.run):
    network = EmulatedNetwork(lab)
    simulation = BgpSimulation(network, IgpState(network), keep_history=False)
    return simulation, schedule(simulation, max_rounds=16)


def _count_calls(monkeypatch, owner, method: str) -> list:
    calls = [0]
    original = getattr(owner, method)

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, method, counting)
    return calls


def _full_mesh_exports(monkeypatch, n_core: int) -> int:
    lab = core_lab(n_core)
    full_mesh(lab, n_core)
    with monkeypatch.context() as patch:
        exports = _count_calls(patch, BgpSimulation, "_export")
        simulation, result = _simulate(lab)
    assert result.converged
    assert all(len(groups) == 1 for groups in simulation._update_groups.values())
    # one update message per session and prefix, whatever the grouping
    assert result.messages == n_core * (n_core - 1)
    assert all(len(table) == n_core for table in result.selected.values())
    return exports[0]


def test_full_mesh_exports_grow_with_routers_not_sessions(monkeypatch):
    small = _full_mesh_exports(monkeypatch, 20)
    large = _full_mesh_exports(monkeypatch, 80)
    assert small > 0
    assert large <= 5 * small, (small, large)


def _machine_path_calls(monkeypatch, lab) -> int:
    network = EmulatedNetwork(lab)
    igp = IgpState(network)
    with monkeypatch.context() as patch:
        calls = _count_calls(patch, IgpState, "_machine_paths")
        for name in network.machines:
            igp.routes(name)
    return calls[0]


def test_route_scan_stays_inside_the_igp_domain(monkeypatch):
    """Two disjoint 20-router OSPF domains in one lab cost what the two
    cost alone: no source looks at the other domain's machines."""
    alone = _machine_path_calls(monkeypatch, core_lab(20))
    assert alone == 20 * 19
    together = _machine_path_calls(
        monkeypatch, core_lab(40, domain_of=lambda index: index // 20)
    )
    assert together == 2 * alone


def test_sessions_group_by_what_the_pipeline_reads():
    lab = core_lab(5)
    # c00 reflects for c01 and c02, peers plainly with c03 and c04;
    # next-hop-self towards c04 only.
    add_ibgp_session(lab, 0, 1, {"rr_client": True})
    add_ibgp_session(lab, 0, 2, {"rr_client": True})
    add_ibgp_session(lab, 0, 3)
    add_ibgp_session(lab, 0, 4, {"next_hop_self": True})
    add_external(lab, 0, attach_to=0, link_index=10)
    simulation, _ = _simulate(lab)
    groups = [
        (group.session.is_ebgp, group.peers)
        for group in simulation._update_groups[core_name(0)]
    ]
    assert groups == [
        (False, ["c01", "c02"]),
        (False, ["c03"]),
        (False, ["c04"]),
        (True, ["x00"]),
    ]
    # c01 sees one kind of peer only
    assert [group.peers for group in simulation._update_groups["c01"]] == [["c00"]]


def test_last_parallel_session_wins_across_groups():
    """c00 peers with c02 twice; the second session shares its flags
    with the earlier session to c01.  Grouping must not let the first
    c02 session, in the later-built group, overwrite the second."""
    lab = core_lab(3)
    external = add_external(lab, 0, attach_to=0, link_index=10, in_igp=True)
    c2_link = lab.devices["c02"].interfaces[1].ip_address
    c0_link = lab.devices["c00"].interfaces[1].ip_address
    lab.devices["c00"].bgp.neighbors += [
        BgpNeighborIntent(peer_ip=loopback(1), remote_asn=CORE_ASN, next_hop_self=True),
        BgpNeighborIntent(peer_ip=loopback(2), remote_asn=CORE_ASN),
        BgpNeighborIntent(peer_ip=c2_link, remote_asn=CORE_ASN, next_hop_self=True),
    ]
    lab.devices["c01"].bgp.neighbors.append(
        BgpNeighborIntent(peer_ip=loopback(0), remote_asn=CORE_ASN)
    )
    lab.devices["c02"].bgp.neighbors += [
        BgpNeighborIntent(peer_ip=c0_link, remote_asn=CORE_ASN),
        BgpNeighborIntent(peer_ip=loopback(0), remote_asn=CORE_ASN),
    ]
    simulation, events = _simulate(lab)
    _, rounds = _simulate(lab, schedule=simulate_rounds)
    assert events.selected == rounds.selected
    learned = events.selected["c02"][external_prefix(0)]
    assert learned.learned_from == "c00"
    assert learned.next_hop == loopback(0)  # the next-hop-self session, sent last
    assert [group.peers for group in simulation._update_groups["c00"]] == [
        [external],
        ["c01"],
        ["c02"],
        ["c02"],
    ]
