"""Differential property tests: the control plane vs its oracles.

The emulation layer runs incremental SPF invalidation and an
event-driven BGP schedule, and both are only admissible because they
are *bit-identical* to the naive reference engines kept in
``tests/emulation/control_plane_oracle.py`` (a from-scratch
``IgpState``, synchronous global rounds).  These tests pin that
equivalence down:

* random synthetic topologies + random link toggles: the incremental
  IGP produces the same routing table as a fresh ``IgpState`` after
  every topology delta;
* random fault schedules against the Small Internet: a lab and a
  reference lab (booted and driven inside ``reference_control_plane()``)
  walked through the same schedule report the same per-incident
  convergence verdicts, final BGP state, IGP routes, and reachability;
* the §7.2 Bad-Gadget oscillator under a fixed fault schedule: both
  agree on every verdict, on the detected oscillation period, and on
  every per-round history snapshot.
"""

from __future__ import annotations

import ipaddress

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compilers import platform_compiler
from repro.design import design_network
from repro.emulation import EmulatedLab, reachability_summary
from repro.emulation.intent import DeviceIntent, InterfaceIntent, LabIntent, OspfIntent
from repro.emulation.network import EmulatedNetwork
from repro.emulation.ospf_engine import IgpState
from repro.loader import bad_gadget_topology
from repro.render import render_nidb
from repro.resilience import FaultEvent, FaultSchedule, apply_schedule

from tests.emulation.control_plane_oracle import reference_control_plane

_lab_settings = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# ---------------------------------------------------------------------------
# Random topologies: incremental SPF vs a fresh IgpState
# ---------------------------------------------------------------------------

def _mesh_intent(n_routers: int, chords: list[tuple[int, int]],
                 second_area: frozenset[int]) -> tuple[LabIntent, list[tuple[str, str, str]]]:
    """A synthetic OSPF lab: a ring of routers plus chord links.

    Returns the intent and the edge list as (left, right, segment key)
    triples so tests can toggle individual links.  Edges whose index is
    in ``second_area`` are advertised in area 1 (their endpoints become
    ABRs), exercising the inter-area invalidation paths.
    """
    names = ["r%d" % i for i in range(n_routers)]
    edges = [(i, (i + 1) % n_routers) for i in range(n_routers)]
    for chord in chords:
        if chord not in edges and (chord[1], chord[0]) not in edges:
            edges.append(chord)
    lab = LabIntent(platform="netkit")
    for index, name in enumerate(names):
        device = DeviceIntent(name=name, vendor="quagga")
        device.ospf = OspfIntent(router_id="10.255.0.%d" % (index + 1))
        lab.devices[name] = device
    edge_keys = []
    for edge_index, (left, right) in enumerate(edges):
        subnet = ipaddress.ip_network("10.0.%d.0/30" % edge_index)
        hosts = list(subnet.hosts())
        key = "cd%d" % edge_index
        area = 1 if edge_index in second_area else 0
        for position, router_index in enumerate((left, right)):
            device = lab.devices[names[router_index]]
            device.interfaces.append(
                InterfaceIntent(
                    name="eth%d" % len(device.interfaces),
                    ip_address=hosts[position],
                    prefixlen=30,
                    collision_domain=key,
                    ospf_cost=1 + (edge_index % 3),
                )
            )
            device.ospf.networks.append((subnet, area))
        edge_keys.append((names[left], names[right], key))
    return lab, edge_keys


class TestIncrementalSpfDifferential:
    """RIB equality between incremental invalidation and a fresh state."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_link_toggles_identical_ribs(self, data):
        n_routers = data.draw(st.integers(min_value=4, max_value=8), label="n")
        chords = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n_routers - 1), st.integers(0, n_routers - 1)
                ).filter(lambda pair: pair[0] < pair[1] - 1),
                max_size=3,
                unique=True,
            ),
            label="chords",
        )
        n_edges = n_routers + len(chords)  # upper bound; duplicates dropped
        second_area = frozenset(
            data.draw(
                st.sets(st.integers(0, n_edges - 1), max_size=2),
                label="second_area",
            )
        )
        intent, edges = _mesh_intent(n_routers, chords, second_area)
        toggles = data.draw(
            st.lists(st.integers(0, len(edges) - 1), min_size=1, max_size=6),
            label="toggles",
        )

        incremental = IgpState(EmulatedNetwork(intent))
        disabled: set[tuple[str, str]] = set()
        for edge_index in toggles:
            left, right, key = edges[edge_index]
            attachments = {(left, key), (right, key)}
            if attachments <= disabled:
                disabled -= attachments
            else:
                disabled |= attachments
            network = EmulatedNetwork(intent, disabled_attachments=disabled)
            incremental.rebuild(network)
            fresh = IgpState(EmulatedNetwork(intent, disabled_attachments=disabled))
            assert incremental.area_adjacency == fresh.area_adjacency
            for machine in sorted(network.machines):
                assert incremental.routes(machine) == fresh.routes(machine), (
                    "incremental SPF diverged from a fresh IgpState for %r "
                    "after toggling %s" % (machine, edges[edge_index])
                )

    @settings(max_examples=10, deadline=None)
    @given(
        n_routers=st.integers(min_value=4, max_value=7),
        down_edge=st.integers(min_value=0, max_value=6),
    )
    def test_warm_cache_survives_unrelated_queries(self, n_routers, down_edge):
        """Querying before and after a fault never changes the answer."""
        intent, edges = _mesh_intent(n_routers, [], frozenset())
        down_edge %= len(edges)
        incremental = IgpState(EmulatedNetwork(intent))
        for machine in sorted(incremental.network.machines):
            incremental.routes(machine)  # warm every cache entry
        left, right, key = edges[down_edge]
        network = EmulatedNetwork(
            intent, disabled_attachments={(left, key), (right, key)}
        )
        incremental.rebuild(network)
        cold = IgpState(
            EmulatedNetwork(
                intent, disabled_attachments={(left, key), (right, key)}
            )
        )
        for machine in sorted(network.machines):
            assert incremental.routes(machine) == cold.routes(machine)


# ---------------------------------------------------------------------------
# Small Internet: random fault schedules, lab vs reference lab
# ---------------------------------------------------------------------------

SI_LINKS = [
    ("as100r1", "as100r2"),
    ("as100r1", "as100r3"),
    ("as100r2", "as100r3"),
]
SI_STUBS = ["as1r1", "as20r1", "as30r1", "as40r1"]

_si_events = st.one_of(
    st.tuples(st.sampled_from(["link_down", "link_up"]), st.sampled_from(SI_LINKS)),
    st.tuples(
        st.sampled_from(["node_down", "node_up"]),
        st.sampled_from(SI_STUBS).map(lambda name: (name,)),
    ),
)


@pytest.fixture(scope="module")
def si_mode_labs(si_render):
    """The Small Internet booted twice: the lab and the reference oracles."""
    fast = EmulatedLab.boot(si_render.lab_dir)
    with reference_control_plane():
        reference = EmulatedLab.boot(si_render.lab_dir)
    assert fast.bgp_result.selected == reference.bgp_result.selected
    # the oracle re-sends every table every round: proof it ran
    assert reference.bgp_result.messages > fast.bgp_result.messages
    return fast, reference


class TestFaultScheduleDifferential:
    @_lab_settings
    @given(events=st.lists(_si_events, min_size=1, max_size=4))
    def test_random_schedules_identical_outcomes(self, si_mode_labs, events):
        schedule = FaultSchedule(
            FaultEvent(at_round=index, kind=kind, target=tuple(target))
            for index, (kind, target) in enumerate(events)
        )
        fast_parent, reference_parent = si_mode_labs
        fast = fast_parent.fork()
        fast_report = apply_schedule(fast, schedule)
        with reference_control_plane():
            reference = reference_parent.fork()
            reference_report = apply_schedule(reference, schedule)

        assert len(fast_report.steps) == len(reference_report.steps)
        for fast_step, reference_step in zip(
            fast_report.steps, reference_report.steps
        ):
            assert fast_step.report.to_dict() == reference_step.report.to_dict()
        assert fast.bgp_result.selected == reference.bgp_result.selected
        assert fast.bgp_result.converged == reference.bgp_result.converged
        assert fast.bgp_result.rounds == reference.bgp_result.rounds
        assert (
            fast.bgp_result.detected_period
            == reference.bgp_result.detected_period
        )
        for machine in sorted(fast.network.machines):
            assert fast.igp.routes(machine) == reference.igp.routes(machine)
        assert reachability_summary(fast) == reachability_summary(reference)

    @_lab_settings
    @given(link=st.sampled_from(SI_LINKS))
    def test_down_up_round_trip_restores_both_modes(self, si_mode_labs, link):
        schedule = FaultSchedule(
            [
                FaultEvent(at_round=0, kind="link_down", target=link),
                FaultEvent(at_round=1, kind="link_up", target=link),
            ]
        )
        fast_parent, reference_parent = si_mode_labs
        fast = fast_parent.fork()
        apply_schedule(fast, schedule)
        assert fast.bgp_result.selected == fast_parent.bgp_result.selected
        assert reachability_summary(fast) == reachability_summary(fast_parent)


# ---------------------------------------------------------------------------
# §7.2 Bad Gadget: the oscillator under a fixed fault schedule
# ---------------------------------------------------------------------------

GADGET_SCHEDULE = """
# perturb the oscillator: drop rr1's preferred exit, restore it,
# then bounce the origin that feeds every client.
at 1 link_down rr1 c2
at 3 link_up rr1 c2
at 5 node_down origin
at 7 node_up origin
"""


class TestBadGadgetDifferential:
    @pytest.fixture(scope="class")
    def gadget_dir(self, tmp_path_factory):
        anm = design_network(bad_gadget_topology())
        nidb = platform_compiler("dynagen", anm).compile()
        result = render_nidb(nidb, tmp_path_factory.mktemp("gadget_diff"))
        return result.lab_dir

    def test_fault_schedule_verdicts_and_period_match(self, gadget_dir):
        schedule = FaultSchedule.parse(GADGET_SCHEDULE)
        fast = EmulatedLab.boot(gadget_dir, max_rounds=40)
        with reference_control_plane():
            reference = EmulatedLab.boot(gadget_dir, max_rounds=40)
        # The gadget oscillates on IOS before any fault is injected,
        # and both engines must detect the same cycle length.
        assert fast.oscillating and reference.oscillating
        assert (
            fast.bgp_result.detected_period
            == reference.bgp_result.detected_period
            > 1
        )

        fast_report = apply_schedule(fast, schedule)
        with reference_control_plane():
            reference_report = apply_schedule(reference, schedule)
        for fast_step, reference_step in zip(
            fast_report.steps, reference_report.steps
        ):
            assert fast_step.report.to_dict() == reference_step.report.to_dict()
        assert fast.bgp_result.selected == reference.bgp_result.selected
        assert (
            fast.bgp_result.detected_period
            == reference.bgp_result.detected_period
        )
        # With the origin restored and the preferred exit back, the
        # gadget resumes oscillating in both engines.
        assert fast.oscillating == reference.oscillating

    def test_per_round_history_identical(self, gadget_dir):
        """Not just the endpoints: every intermediate round matches."""
        fast = EmulatedLab.boot(gadget_dir, max_rounds=40, keep_history=True)
        with reference_control_plane():
            reference = EmulatedLab.boot(
                gadget_dir, max_rounds=40, keep_history=True
            )
        assert fast.bgp_result.history == reference.bgp_result.history
