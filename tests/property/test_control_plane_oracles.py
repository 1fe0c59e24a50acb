"""Differential property test: the control plane's integer-keyed steps
vs their oracles in ``tests/emulation/control_plane_oracle.py``.

The engine resolves next-hop costs, address owners, neighbour sets,
eBGP session addresses and IGP tables by integer, builds routes without
``dataclasses.replace``, skips the ranking key for a lone valid
candidate and the MED pass when fewer than two candidates carry a MED,
and reads its selections prefix first.  The labs below are drawn to
reach each of those: an OSPF chain or ring of mixed vendors (an odd
ring ties two IGP advertisers of one link), plain and reflected iBGP
sessions with ``next-hop-self`` per side, a parallel session, one
external AS homed on up to two core routers with MEDs (one home may
peer with the core loopback, so its session outlives the core end of
the link), a C-BGP unnumbered neighbour, and an IPv6 neighbour whose
addresses have the integer values of two IPv4 link addresses the lab
resolves as next hops, hung off the external AS or off an OSPF core
router.  After the cold run one link
(or one end of it) fails and the schedule resumes.  Three control
planes must agree:

* the engine;
* the same event schedule on the oracle steps (``oracle_steps``), also
  on ``bgp.messages``, ``bgp.routes_interned`` and every IGP table;
* the rounds oracle (``simulate_rounds``), on every selection, verdict,
  period and per-round snapshot.

Then every machine's next-hop cost, IGP cost, owner and neighbour set
is compared with the oracles address by address, IPv4 first, so a memo
that mixes the families answers an IPv6 query with an IPv4 answer.
"""

from __future__ import annotations

import contextlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.emulation.bgp_engine import BgpSimulation
from repro.emulation.intent import BgpNeighborIntent
from repro.emulation.network import EmulatedNetwork
from repro.emulation.ospf_engine import IgpState
from repro.observability import Telemetry

from tests.emulation import control_plane_oracle as oracle
from tests.emulation.synthetic_bgp import (
    CORE_ASN,
    add_external,
    add_ibgp_session,
    add_ipv6_external,
    add_unnumbered_external,
    core_lab,
    core_name,
    home_external,
)

MAX_ROUNDS = 24
VENDORS = ("quagga", "ios", "junos", "cbgp")


def build_case(
    vendors,
    ibgp,
    homes,
    peer_loopback=False,
    parallel=False,
    unnumbered=None,
    ipv6=False,
    fault=(0, "both"),
    ring=False,
    ipv6_at_core=False,
):
    """A lab and the attachments its fault takes down.

    ``ibgp`` holds ``(left, right, left reflects right, left
    next-hop-self, right next-hop-self)``; ``homes`` holds ``(core
    index, MED sent to it, link in the IGP)`` for external ``x00``;
    ``fault`` is ``(link number, "both" | "core" | "far")``; ``ring``
    closes the core chain (odd rings tie IGP advertisers);
    ``ipv6_at_core`` hangs the IPv6 neighbour off the first home's core
    router, which runs OSPF, instead of off ``x00``.
    """
    n_core = len(vendors)
    lab = core_lab(n_core, vendors=dict(enumerate(vendors)), ring=ring)
    links = [
        ("cd%d" % index, core_name(index), core_name((index + 1) % n_core))
        for index in range(n_core if ring else n_core - 1)
    ]
    for left, right, reflects, left_self, right_self in ibgp:
        add_ibgp_session(
            lab,
            left,
            right,
            {"next_hop_self": left_self, "rr_client": reflects},
            {"next_hop_self": right_self},
        )
    if parallel:
        # c00 and c01 also peer between their chain-link addresses.
        for local, remote in ((0, 1), (1, 0)):
            lab.devices[core_name(local)].bgp.neighbors.append(
                BgpNeighborIntent(
                    peer_ip=lab.devices[core_name(remote)].interfaces[1].ip_address,
                    remote_asn=CORE_ASN,
                    next_hop_self=True,
                )
            )
    for number, (core, med, in_igp) in enumerate(homes):
        link_index = 10 + number
        if number == 0:
            add_external(
                lab, 0, core, link_index, external_flags={"med_out": med}, in_igp=in_igp
            )
        else:
            home_external(
                lab,
                "x00",
                core,
                link_index,
                external_flags={"med_out": med},
                in_igp=in_igp,
                peer_loopback=peer_loopback,
            )
        links.append(("cd%d" % link_index, core_name(core), "x00"))
    if unnumbered is not None:
        key = add_unnumbered_external(lab, 1, unnumbered)
        links.append((key, core_name(unnumbered), "x01"))
    if ipv6:
        # x02 hangs off x00 (or its first home), its addresses shadowing
        # x00's first home link.
        shadows = [
            interface.ip_address
            for name in (core_name(homes[0][0]), "x00")
            for interface in lab.devices[name].interfaces
            if interface.collision_domain == "cd10"
        ]
        attach = core_name(homes[0][0]) if ipv6_at_core else "x00"
        links.append((add_ipv6_external(lab, 2, attach, shadows), attach, "x02"))
    link, ends = fault
    key, core_end, far_end = links[link % len(links)]
    down = {
        (machine, key)
        for machine, end in ((core_end, "core"), (far_end, "far"))
        if ends in ("both", end)
    }
    return lab, down


@st.composite
def cases(draw):
    n_core = draw(st.integers(3, 5))
    vendors = draw(st.lists(st.sampled_from(VENDORS), min_size=n_core, max_size=n_core))
    pairs = [(left, right) for left in range(n_core) for right in range(left + 1, n_core)]
    ibgp = [
        (left, right, draw(st.booleans()), draw(st.booleans()), draw(st.booleans()))
        for left, right in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    ]
    homes = [
        (
            draw(st.integers(0, n_core - 1)),
            draw(st.sampled_from([None, 0, 10, 20])),
            draw(st.booleans()),
        )
        for _ in range(draw(st.integers(1, 2)))
    ]
    return build_case(
        vendors,
        ibgp,
        homes,
        peer_loopback=draw(st.booleans()),
        parallel=draw(st.booleans()),
        unnumbered=draw(st.none() | st.integers(0, n_core - 1)),
        ipv6=draw(st.booleans()),
        fault=(draw(st.integers(0, 20)), draw(st.sampled_from(["both", "core", "far"]))),
        ring=draw(st.booleans()),
        ipv6_at_core=draw(st.booleans()),
    )


_DUAL_HOMED_CASE = build_case(
    ["quagga"] * 3, [(0, 1, False, False, False)], [(0, None, False), (0, None, False)],
    fault=(3, "both"),
)
_FULL_MESH = [(0, 1, False, False, False), (0, 2, False, False, False), (1, 2, False, False, False)]


def _converge(lab, down, schedule=BgpSimulation.run, steps=contextlib.nullcontext):
    """Cold run, fault, resume; returns the results, the IGP tables
    after each, the simulation and its metrics."""
    telemetry = Telemetry()
    results, tables = [], []
    with steps(), telemetry.activate():
        network = EmulatedNetwork(lab)
        simulation = BgpSimulation(network, IgpState(network), keep_history=True)
        for disabled in (set(), down):
            if disabled:
                network = EmulatedNetwork(lab, disabled_attachments=disabled)
                simulation.igp.rebuild(network)
                simulation.rebuild(network)
            resume = results[-1].selected if results else None
            results.append(schedule(simulation, max_rounds=MAX_ROUNDS, resume_from=resume))
            tables.append(
                {name: list(simulation.igp.routes(name).items()) for name in network.machines}
            )
    return results, tables, simulation, telemetry.metrics


def _assert_same(left, right) -> None:
    assert left.selected == right.selected
    assert left.converged == right.converged
    assert left.oscillating == right.oscillating
    assert left.period == right.period
    assert left.detected_period == right.detected_period
    assert left.rounds == right.rounds
    assert left.history == right.history


def _assert_steps_agree(simulation) -> None:
    network, igp = simulation.network, simulation.igp
    addresses = {
        interface.ip_address
        for device in network.all_machines.values()
        for interface in device.interfaces
        if interface.ip_address is not None
    }
    ordered = sorted(addresses, key=lambda address: (address.version, int(address)))
    for address in ordered:
        assert network.owner_of(address) == oracle.owner_of(network, address), address
    for machine in network.machines:
        assert network.neighbor_set(machine) == frozenset(oracle.neighbors_of(network, machine))
        for address in ordered:
            expected = oracle.next_hop_cost(simulation, machine, address)
            assert simulation._next_hop_cost(machine, address) == expected, (machine, address)
            expected = oracle.cost_to_address(igp, machine, address)
            assert igp.cost_to_address(machine, address) == expected, (machine, address)


@settings(max_examples=50, deadline=None)
@given(case=cases())
# x00 sends MED 20 to c00 and MED 10 to c02: at c00 the MED pass must
# drop its own eBGP route (two candidates carry a MED).
@example(case=build_case(["quagga"] * 3, _FULL_MESH, [(0, 20, False), (2, 10, True)]))
# x00 peers with c01's loopback; c01's end of that link fails, so c01's
# address towards x00 moves to its loopback, which x00 cannot resolve.
@example(
    case=build_case(
        ["quagga"] * 3,
        _FULL_MESH,
        [(2, None, False), (1, None, False)],
        peer_loopback=True,
        fault=(3, "core"),
    )
)
@example(
    case=build_case(
        ["ios", "cbgp", "junos"], _FULL_MESH, [(1, 0, True)], unnumbered=0, ipv6=True, fault=(0, "both")
    )
)
# x02 peers over IPv6 with c01, an OSPF router whose IPv4 link to x00
# is in the IGP; the fault takes that link down at both ends.
@example(
    case=build_case(
        ["quagga", "ios", "junos"], _FULL_MESH, [(1, 10, True)], ipv6=True,
        fault=(2, "both"), ipv6_at_core=True,
    )
)
# x00 is dual-homed to c00 over cd10 and cd11; cd11 fails at both ends,
# so each side's last parallel session to the other is now the cd10 one.
@example(case=_DUAL_HOMED_CASE)
def test_engine_equals_its_oracles(case):
    lab, down = case
    engine, engine_tables, simulation, engine_metrics = _converge(lab, down)
    steps, steps_tables, _, steps_metrics = _converge(lab, down, steps=oracle.oracle_steps)
    rounds, _, _, _ = _converge(lab, down, schedule=oracle.simulate_rounds)
    for mine, theirs in zip(engine, steps):
        _assert_same(mine, theirs)
        assert mine.messages == theirs.messages
    for name in ("bgp.messages", "bgp.routes_interned", "bgp.route_pool_hits"):
        assert engine_metrics.value(name) == steps_metrics.value(name), name
    assert engine_tables == steps_tables
    for mine, theirs in zip(engine, rounds):
        _assert_same(mine, theirs)
    _assert_steps_agree(simulation)


def test_resume_after_parallel_session_dies_equals_fresh_boot():
    """The advert memo survives the fault; the routes it hands out must
    carry the surviving session's peer address, as a fresh boot does."""
    lab, down = _DUAL_HOMED_CASE
    engine, _, _, _ = _converge(lab, down)
    network = EmulatedNetwork(lab, disabled_attachments=down)
    fresh = BgpSimulation(network, IgpState(network)).run(max_rounds=MAX_ROUNDS)
    assert engine[-1].selected == fresh.selected
    assert {
        str(route.peer_address)
        for name in ("c00", "x00")
        for route in engine[-1].selected[name].values()
        if route.learned_via == "ebgp"
    } == {"10.0.0.41", "10.0.0.42"}
