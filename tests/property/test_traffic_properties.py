"""Property tests for the traffic engine's conservation laws.

Whatever workload a profile describes:

* delivered flows/bytes never exceed offered flows/bytes;
* a network whose links dwarf the offered load delivers everything —
  loss only ever comes from congestion (or faults), never from the
  bookkeeping;
* the report is bit-identical when re-run with the same seed;
* under a random fault schedule, with or without a live cost change,
  every class still accounts for each offered flow as delivered,
  dropped or unroutable, and offers exactly the fault-free flows.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.emulation import EmulatedLab
from repro.resilience import FaultEvent, FaultSchedule
from repro.traffic import TrafficProfile, run_traffic

_class_strategy = st.one_of(
    st.fixed_dictionaries(
        {
            "kind": st.just("request_response"),
            "qps": st.floats(min_value=1.0, max_value=400.0),
            "request_bytes": st.integers(min_value=40, max_value=2000),
            "response_bytes": st.integers(min_value=100, max_value=40000),
            "pair_count": st.integers(min_value=1, max_value=32),
        }
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("bulk"),
            "flows": st.integers(min_value=1, max_value=60),
            "bytes": st.integers(min_value=1000, max_value=2_000_000),
            "pair_count": st.integers(min_value=1, max_value=16),
        }
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("ramp"),
            "users": st.integers(min_value=1, max_value=60),
            "qps": st.floats(min_value=0.5, max_value=8.0),
            "ramp_seconds": st.floats(min_value=0.0, max_value=2.0),
            "pair_count": st.integers(min_value=1, max_value=32),
        }
    ),
)

_profile_strategy = st.builds(
    lambda classes, duration: TrafficProfile.from_dict(
        {
            "name": "prop",
            "duration": duration,
            # far more capacity than any generated class can offer
            "default_capacity_mbps": 100000.0,
            "classes": [
                dict(entry, name="c%d" % index)
                for index, entry in enumerate(classes)
            ],
        }
    ),
    st.lists(_class_strategy, min_size=1, max_size=3),
    st.floats(min_value=0.5, max_value=4.0),
)

_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


SI_LINKS = [("as100r1", "as100r2"), ("as100r1", "as100r3"), ("as100r2", "as100r3")]
SI_STUBS = ["as1r1", "as20r1", "as30r1", "as40r1"]

_schedule_strategy = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["link_down", "link_up"]), st.sampled_from(SI_LINKS)),
        st.tuples(
            st.sampled_from(["node_down", "node_up"]),
            st.sampled_from(SI_STUBS).map(lambda name: (name,)),
        ),
    ),
    min_size=1,
    max_size=4,
).map(
    lambda events: FaultSchedule(
        FaultEvent(at_round=index, kind=kind, target=tuple(target))
        for index, (kind, target) in enumerate(events)
    )
)


@pytest.fixture(scope="module")
def lab(si_render):
    return EmulatedLab.boot(si_render.lab_dir)


@pytest.fixture(scope="module")
def cost_plan(tmp_path_factory):
    from repro.liveupdate import apply_edits, diff_designs
    from repro.loader import small_internet

    edits = [{"kind": "cost", "link": ["as100r1", "as100r2"], "value": 50}]
    return diff_designs(
        small_internet(), apply_edits(small_internet(), edits),
        "netkit", work_dir=str(tmp_path_factory.mktemp("traffic_cost_plan")),
    ).plan


@_settings
@given(profile=_profile_strategy, seed=st.integers(min_value=0, max_value=2**16))
def test_conservation_and_unsaturated_delivery(lab, profile, seed):
    report = run_traffic(lab, profile, seed=seed)

    # conservation: nothing delivered that was not offered
    assert report.delivered_flows <= report.offered_flows
    assert report.delivered_bytes <= report.offered_bytes
    for entry in report.classes:
        assert entry.delivered_flows <= entry.offered_flows
        assert (
            entry.delivered_flows + entry.dropped_flows + entry.unroutable_flows
            == entry.offered_flows
        )
        assert 0.0 <= entry.loss_rate <= 1.0

    # no link saturated (capacity dwarfs offered load) => no loss at all
    assert all(row["utilization"] < 0.5 for row in report.links)
    assert report.loss_rate == 0.0
    assert report.delivered_flows == report.offered_flows


@_settings
@given(profile=_profile_strategy, seed=st.integers(min_value=0, max_value=2**16))
def test_same_seed_reruns_bit_identical(lab, profile, seed):
    assert (
        run_traffic(lab, profile, seed=seed).to_json()
        == run_traffic(lab, profile, seed=seed).to_json()
    )


@_settings
@given(
    profile=_profile_strategy,
    seed=st.integers(min_value=0, max_value=2**16),
    schedule=_schedule_strategy,
    live_at=st.none() | st.floats(min_value=0.0, max_value=4.0),
)
def test_conservation_under_faults_and_live_change(lab, cost_plan, profile, seed, schedule, live_at):
    baseline = run_traffic(lab.fork(), profile, seed=seed)
    live_plans = [(live_at, cost_plan)] if live_at is not None else None
    changed = run_traffic(
        lab.fork(), profile, seed=seed, schedule=schedule, live_plans=live_plans,
    )

    for entry in changed.classes:
        assert (
            entry.delivered_flows + entry.dropped_flows + entry.unroutable_flows
            == entry.offered_flows
        ), entry.name
    assert [entry.offered_flows for entry in changed.classes] == [
        entry.offered_flows for entry in baseline.classes
    ]
