"""The compiled traffic loop ≡ the per-flow, per-hop loop it replaced.

``run_traffic`` compiles each path once, folds the link counters and
feeds the histograms in bucket chunks; ``tests/traffic/traffic_oracle.py``
keeps the original loop.  Their ``to_json()`` must be byte-equal for
random profiles and seeds at saturated and unsaturated capacities,
under a fault schedule that downs and restores a link and a node, and
across a live ``DiffPlan``.  ``Histogram.observe_many`` must leave every
field exactly as repeated ``observe`` does.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.emulation import EmulatedLab
from repro.observability.metrics import Histogram
from repro.resilience import FaultSchedule
from repro.traffic import TrafficProfile, run_traffic
from tests.traffic.traffic_oracle import run_oracle_traffic

_class_strategy = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("request_response"),
        "qps": st.floats(min_value=1.0, max_value=600.0),
        "request_bytes": st.integers(min_value=40, max_value=2000),
        "response_bytes": st.integers(min_value=100, max_value=400000),
        "pair_count": st.integers(min_value=1, max_value=32),
        "start": st.floats(min_value=0.0, max_value=1.5),
    }),
    st.fixed_dictionaries({
        "kind": st.just("bulk"),
        "flows": st.integers(min_value=1, max_value=80),
        "bytes": st.integers(min_value=1000, max_value=4_000_000),
        "pair_count": st.integers(min_value=1, max_value=16),
    }),
    st.fixed_dictionaries({
        "kind": st.just("ramp"),
        "users": st.integers(min_value=1, max_value=80),
        "qps": st.floats(min_value=0.5, max_value=8.0),
        "ramp_seconds": st.floats(min_value=0.0, max_value=2.0),
        "pair_count": st.integers(min_value=1, max_value=32),
    }),
)


def _profile(classes, duration, capacity, round_seconds=0.5, **extra):
    data = {
        "name": "diff",
        "duration": duration,
        "default_capacity_mbps": capacity,
        "round_seconds": round_seconds,
        "classes": [dict(entry, name="c%d" % index) for index, entry in enumerate(classes)],
    }
    data.update(extra)
    return TrafficProfile.from_dict(data)


_profiles = st.builds(
    _profile,
    st.lists(_class_strategy, min_size=1, max_size=4),
    st.floats(min_value=0.5, max_value=4.0),
    # saturated (loss and queueing) through unsaturated
    st.sampled_from([0.5, 5.0, 50.0, 100000.0]),
    st.sampled_from([0.25, 0.5, 1.0]),
)


@pytest.fixture(scope="module")
def lab(si_render):
    return EmulatedLab.boot(si_render.lab_dir)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(profile=_profiles, seed=st.integers(min_value=0, max_value=2**16))
def test_report_equals_the_oracle(lab, profile, seed):
    assert run_traffic(lab, profile, seed=seed).to_json() == \
        run_oracle_traffic(lab, profile, seed=seed).to_json()


_FAULTS = """
at 1 link_down as100r1 as100r2
at 2 node_down as20r2
at 3 link_up as100r1 as100r2
at 3 node_up as20r2
"""


@pytest.mark.parametrize("capacity", [2.0, 100000.0])
@pytest.mark.parametrize("seed", [0, 5])
def test_fault_schedule_report_equals_the_oracle(lab, capacity, seed):
    # the downed node only carries transit: a powered-off endpoint
    # cannot source a trace
    ends = sorted(set(lab.network.machines) - {"as20r2"})
    profile = _profile(
        [{"kind": "request_response", "qps": 500, "pair_count": 40,
          "sources": ends, "destinations": ends},
         {"kind": "bulk", "flows": 30, "bytes": 400000, "pair_count": 8,
          "sources": ends, "destinations": ends}],
        duration=4.5, capacity=capacity, round_seconds=0.5, reconvergence_seconds=0.4,
    )
    schedule = FaultSchedule.parse(_FAULTS)
    new = run_traffic(lab.fork(), profile, seed=seed, schedule=schedule)
    old = run_oracle_traffic(lab.fork(), profile, seed=seed, schedule=schedule)
    assert len(new.faults) == 4
    assert new.to_json() == old.to_json()


@pytest.mark.parametrize("seed", [1, 6])
def test_endpoint_fault_report_equals_the_oracle(lab, seed):
    # powered-off endpoints: their flows are unroutable in both engines
    profile = _profile(
        [{"kind": "request_response", "qps": 400, "pair_count": 60}],
        duration=4.0, capacity=20.0, round_seconds=0.5, reconvergence_seconds=0.4,
    )
    schedule = FaultSchedule.parse(
        "at 2 node_down as1r1\nat 3 node_down as300r2\nat 5 node_up as1r1"
    )
    new = run_traffic(lab.fork(), profile, seed=seed, schedule=schedule)
    old = run_oracle_traffic(lab.fork(), profile, seed=seed, schedule=schedule)
    assert new.classes[0].unroutable_flows > 0
    assert new.to_json() == old.to_json()


@pytest.fixture(scope="module")
def cost_plan(tmp_path_factory):
    from repro.liveupdate import apply_edits, diff_designs
    from repro.loader import small_internet

    edits = [{"kind": "cost", "link": ["as100r1", "as100r2"], "value": 50}]
    return diff_designs(
        small_internet(), apply_edits(small_internet(), edits),
        "netkit", work_dir=str(tmp_path_factory.mktemp("oracle_plan")),
    ).plan


@pytest.mark.parametrize("capacity", [5.0, 100000.0])
def test_live_plan_report_equals_the_oracle(lab, cost_plan, capacity):
    profile = _profile(
        [{"kind": "request_response", "qps": 600, "pair_count": 48}],
        duration=3.0, capacity=capacity, reconvergence_seconds=0.5,
    )
    plans = [(1.0, cost_plan), (2.0, cost_plan.inverse())]
    new = run_traffic(lab.fork(), profile, seed=2, live_plans=plans)
    old = run_oracle_traffic(lab.fork(), profile, seed=2, live_plans=plans)
    assert [fault["kind"] for fault in new.faults] == ["live_update", "live_update"]
    assert new.to_json() == old.to_json()


def _state(histogram: Histogram) -> str:
    return repr((
        histogram.count, histogram.total, histogram.minimum, histogram.maximum,
        histogram.samples, histogram.stride,
    ))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=0, max_value=6000),
    cuts=st.lists(st.integers(min_value=0, max_value=6000), max_size=12),
    scale=st.sampled_from([1e-6, 1.0, 1e9]),
)
def test_observe_many_equals_repeated_observe(seed, count, cuts, scale):
    rng = random.Random(seed)
    values = [(rng.random() - 0.1) * scale for _ in range(count)]
    one, many = Histogram(), Histogram()
    for value in values:
        one.observe(value)
    bounds = sorted({0, count, *(cut for cut in cuts if cut <= count)})
    for low, high in zip(bounds, bounds[1:]):
        many.observe_many(values[low:high])
    many.observe_many([])
    assert _state(many) == _state(one)


@given(values=st.lists(st.floats(allow_nan=False), max_size=40),
       split=st.integers(min_value=0, max_value=40))
def test_observe_many_equals_observe_on_arbitrary_floats(values, split):
    one, many = Histogram(), Histogram()
    for value in values:
        one.observe(value)
    many.observe_many(values[:split])
    many.observe_many(values[split:])
    assert _state(many) == _state(one)
