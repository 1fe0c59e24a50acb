"""Differential property test: the event BGP schedule vs the rounds oracle
over *synthetic* BGP intents.

The designed topologies (Small Internet, Bad Gadget) give the event
schedule's update groups almost nothing to get wrong: uniform session
flags, no parallel sessions, no per-neighbour policy.  These labs are
drawn to do the opposite — route-reflector clusters with clients homed
on several reflectors (so a reflected route comes back to its
originator), plain sessions beside the clusters, ``next-hop-self`` set
per session side, a second parallel session with other flags to a peer
that already has one, neighbour statements in any order, and eBGP
neighbours with ``deny_in``/``deny_out``/``prepend_out``/
``communities_out``/``local_pref_in``/``med_out`` — and both schedules
must agree on every selection, the verdict, the period and every
per-round snapshot, on the cold run and on a resume after a link fault.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulation.bgp_engine import BgpSimulation
from repro.emulation.intent import BgpNeighborIntent
from repro.emulation.network import EmulatedNetwork
from repro.emulation.ospf_engine import IgpState

from tests.emulation.control_plane_oracle import (
    can_export,
    import_route,
    simulate_rounds,
)
from tests.emulation.synthetic_bgp import (
    CORE_ASN,
    add_external,
    add_ibgp_session,
    core_lab,
    core_name,
    core_prefix,
    external_prefix,
)

MAX_ROUNDS = 24


@st.composite
def _ibgp_flags(draw, rr_client: bool = False) -> dict:
    return {"next_hop_self": draw(st.booleans()), "rr_client": rr_client}


@st.composite
def _ebgp_flags(draw, own_prefixes: list, foreign_prefixes: list) -> dict:
    flags = {
        "local_pref_in": draw(st.sampled_from([None, 50, 200])),
        "med_out": draw(st.sampled_from([None, 0, 10])),
        "prepend_out": draw(st.integers(0, 2)),
        "communities_out": draw(st.sampled_from([(), ("65000:1",), ("65000:1", "65000:2")])),
    }
    if draw(st.booleans()):
        flags["deny_out"] = (draw(st.sampled_from(own_prefixes)),)
    if draw(st.booleans()):
        flags["deny_in"] = (draw(st.sampled_from(foreign_prefixes)),)
    return flags


@st.composite
def synthetic_labs(draw):
    n_core = draw(st.integers(3, 6))
    vendors = {
        index: draw(st.sampled_from(["quagga", "ios"])) for index in range(n_core)
    }
    lab = core_lab(n_core, vendors=vendors)
    indices = list(range(n_core))
    reflectors = draw(
        st.lists(st.sampled_from(indices), min_size=1, max_size=2, unique=True)
    )
    sessions = set()
    for position, left in enumerate(reflectors):
        for right in reflectors[position + 1:]:
            add_ibgp_session(lab, left, right, draw(_ibgp_flags()), draw(_ibgp_flags()))
            sessions.add((left, right))
    for client in indices:
        if client in reflectors:
            continue
        homes = draw(
            st.lists(st.sampled_from(reflectors), min_size=1, unique=True)
        )
        for reflector in homes:
            add_ibgp_session(
                lab,
                reflector,
                client,
                draw(_ibgp_flags(rr_client=True)),
                draw(_ibgp_flags()),
            )
            sessions.add((reflector, client))
    unpeered = [
        (left, right)
        for left in indices
        for right in indices[left + 1:]
        if (left, right) not in sessions and (right, left) not in sessions
    ]
    if unpeered:
        # Plain sessions beside the clusters: one sender then faces
        # receivers that do and do not treat it as a client.
        for left, right in draw(
            st.lists(st.sampled_from(unpeered), max_size=2, unique=True)
        ):
            add_ibgp_session(lab, left, right, draw(_ibgp_flags()), draw(_ibgp_flags()))
            sessions.add((left, right))
    if draw(st.booleans()):
        # A second session between two routers that already peer, to
        # the link address instead of the loopback and with flags of
        # its own: "the last parallel session wins" must hold.
        left, right = draw(st.sampled_from(sorted(sessions)))
        for local, remote in ((left, right), (right, left)):
            remote_link = lab.devices[core_name(remote)].interfaces[1].ip_address
            lab.devices[core_name(local)].bgp.neighbors.append(
                BgpNeighborIntent(
                    peer_ip=remote_link,
                    remote_asn=CORE_ASN,
                    **draw(_ibgp_flags(rr_client=draw(st.booleans()))),
                )
            )
    n_external = draw(st.integers(0, 3))
    shared_origin = draw(st.booleans())
    core_prefixes = [core_prefix(index) for index in indices]
    external_prefixes = [external_prefix(index) for index in range(max(n_external, 1))]
    for index in range(n_external):
        prefixes = [external_prefix(index)]
        if shared_origin:
            prefixes.append(external_prefix(0))
        add_external(
            lab,
            index,
            attach_to=draw(st.sampled_from(indices)),
            link_index=n_core + index,
            core_flags=draw(_ebgp_flags(core_prefixes, external_prefixes)),
            external_flags=draw(_ebgp_flags(external_prefixes, core_prefixes)),
            in_igp=draw(st.booleans()),
            prefixes=sorted(set(prefixes)),
        )
    for index in indices:
        # Session order is neighbour-statement order.
        bgp = lab.devices[core_name(index)].bgp
        bgp.neighbors = draw(st.permutations(bgp.neighbors))
    fault = draw(st.integers(0, n_core - 2))
    return lab, fault


def _assert_same(events, rounds) -> None:
    assert events.selected == rounds.selected
    assert events.converged == rounds.converged
    assert events.oscillating == rounds.oscillating
    assert events.period == rounds.period
    assert events.detected_period == rounds.detected_period
    assert events.rounds == rounds.rounds
    assert events.history == rounds.history


def _assert_rib_is_what_the_oracle_would_rebuild(simulation, result) -> None:
    """The event schedule's invariant, checked at a fixpoint: its
    persistent Adj-RIB-In equals a per-session sweep over ``selected``
    — also for entries that never win a decision."""
    state = simulation._event_state
    if not result.converged or state["pending_exports"]:
        return
    expected: dict = {}
    for sender, session_list in simulation.sessions.items():
        for session in session_list:
            for prefix, route in result.selected.get(sender, {}).items():
                if not can_export(simulation, route, session):
                    continue
                advert = simulation._export(sender, route, session)
                imported = import_route(simulation, session.peer, sender, advert, session)
                if imported is not None:
                    expected.setdefault(prefix, {}).setdefault(session.peer, {})[
                        sender
                    ] = imported
    stored = {
        prefix: {peer: routes for peer, routes in by_receiver.items() if routes}
        for prefix, by_receiver in state["rib_in"].items()
    }
    assert {prefix: ribs for prefix, ribs in stored.items() if ribs} == expected


@settings(max_examples=60, deadline=None)
@given(case=synthetic_labs())
def test_events_equal_rounds_on_synthetic_policy(case):
    lab, fault = case
    schedules = {
        "events": BgpSimulation.run,
        "rounds": simulate_rounds,
    }
    results = {}
    simulations = {}
    for mode, schedule in schedules.items():
        network = EmulatedNetwork(lab)
        simulations[mode] = BgpSimulation(network, IgpState(network), keep_history=True)
        results[mode] = schedule(simulations[mode], max_rounds=MAX_ROUNDS)
    _assert_same(results["events"], results["rounds"])
    _assert_rib_is_what_the_oracle_would_rebuild(simulations["events"], results["events"])

    # One chain link fails: the event schedule resumes from persistent
    # state through its rebuilt update groups, the oracle from scratch.
    key = "cd%d" % fault
    down = {(core_name(fault), key), (core_name(fault + 1), key)}
    for mode, simulation in simulations.items():
        network = EmulatedNetwork(lab, disabled_attachments=down)
        simulation.igp.rebuild(network)
        simulation.rebuild(network)
        results[mode] = schedules[mode](
            simulation, max_rounds=MAX_ROUNDS, resume_from=results[mode].selected
        )
    _assert_same(results["events"], results["rounds"])
    _assert_rib_is_what_the_oracle_would_rebuild(simulations["events"], results["events"])
