"""The traffic engine against a real booted lab.

Congestion, loss and fault disruption must *emerge* from the link model
— none of these quantities are scripted — and the whole report must be
bit-identical under a fixed seed, whatever executor booted the lab.
"""

import json

import pytest

from repro.emulation import EmulatedLab
from repro.exceptions import TrafficError
from repro.observability import Telemetry
from repro.resilience import FaultSchedule
from repro.traffic import TrafficProfile, run_traffic

WEB = {"name": "web", "kind": "request_response", "qps": 300, "pair_count": 24}


def make_profile(capacity=1000.0, **extra):
    data = {
        "name": "t",
        "duration": 3.0,
        "default_capacity_mbps": capacity,
        "classes": [WEB],
    }
    data.update(extra)
    return TrafficProfile.from_dict(data)


@pytest.fixture(scope="module")
def lab(si_render):
    return EmulatedLab.boot(si_render.lab_dir)


class TestDeterminism:
    def test_same_seed_is_bit_identical(self, lab):
        first = run_traffic(lab, make_profile(), seed=7)
        second = run_traffic(lab, make_profile(), seed=7)
        assert first.to_json() == second.to_json()

    def test_different_seed_differs(self, lab):
        first = run_traffic(lab, make_profile(), seed=7)
        second = run_traffic(lab, make_profile(), seed=8)
        assert first.to_json() != second.to_json()

    def test_identical_across_boot_executors(self, si_render):
        """jobs=1 and jobs=4 boots feed the same converged dataplane to
        the engine, so the report must not depend on boot fan-out."""
        serial_lab = EmulatedLab.boot(si_render.lab_dir, jobs=1)
        threaded_lab = EmulatedLab.boot(si_render.lab_dir, jobs=4)
        profile = make_profile()
        serial = run_traffic(serial_lab, profile, seed=11)
        threaded = run_traffic(threaded_lab, profile, seed=11)
        assert serial.to_json() == threaded.to_json()


class TestCongestion:
    def test_unsaturated_network_has_no_loss(self, lab):
        report = run_traffic(lab, make_profile(capacity=10000.0), seed=3)
        assert report.offered_flows > 0
        assert report.loss_rate == 0.0
        assert report.delivered_flows == report.offered_flows

    def test_saturation_produces_loss_and_latency(self, lab):
        calm = run_traffic(lab, make_profile(capacity=10000.0), seed=3)
        jammed = run_traffic(lab, make_profile(capacity=1.0), seed=3)
        assert jammed.loss_rate > 0.0
        assert jammed.delivered_flows < jammed.offered_flows
        calm_p99 = calm.classes[0].latency_ms()["p99"]
        jammed_p99 = jammed.classes[0].latency_ms()["p99"]
        assert jammed_p99 > calm_p99
        # drops show up on the links that carried the flows
        assert sum(row["drops"] for row in jammed.links) > 0

    def test_delivered_never_exceeds_offered(self, lab):
        for capacity in (0.5, 5.0, 500.0):
            report = run_traffic(lab, make_profile(capacity=capacity), seed=1)
            assert report.delivered_flows <= report.offered_flows
            assert report.delivered_bytes <= report.offered_bytes


class TestFaults:
    def test_mid_run_link_down_disrupts_then_recovers(self, lab):
        profile = make_profile(
            duration=6.0, capacity=100.0,
            reconvergence_seconds=0.5,
            classes=[dict(WEB, qps=600)],
        )
        schedule = FaultSchedule.parse("at 2 link_down as100r1 as100r2")
        baseline = run_traffic(lab.fork(), profile, seed=5)
        faulted = run_traffic(lab.fork(), profile, seed=5, schedule=schedule)

        assert faulted.faults and faulted.faults[0]["time"] == 2.0
        assert faulted.faults[0]["kind"] == "link_down"

        def bucket(report, start):
            return next(b for b in report.timeline if b["start"] == start)

        # the fault bucket's p99 spikes well above the same seed's
        # baseline bucket; later buckets recover to the same order
        assert bucket(faulted, 2.0)["p99_ms"] > 2 * bucket(baseline, 2.0)["p99_ms"]
        recovered = bucket(faulted, 5.0)["p99_ms"]
        assert recovered < bucket(faulted, 2.0)["p99_ms"] / 2

    def test_fault_run_is_still_deterministic(self, lab):
        profile = make_profile(duration=4.0, capacity=50.0)
        schedule = FaultSchedule.parse("at 1 link_down as100r1 as100r2")
        first = run_traffic(lab.fork(), profile, seed=9, schedule=schedule)
        second = run_traffic(lab.fork(), profile, seed=9, schedule=schedule)
        assert first.to_json() == second.to_json()

    def test_powered_off_endpoints_make_flows_unroutable(self, lab):
        """A source and a destination powered off mid-run: their flows
        are counted as unroutable, and every offered flow is accounted
        for as delivered, dropped or unroutable."""
        others = sorted(set(lab.network.machines) - {"as1r1", "as40r1"})
        profile = make_profile(
            duration=4.0, capacity=100.0, reconvergence_seconds=0.5,
            classes=[
                dict(WEB, name="from_down", qps=200, pair_count=8,
                     sources=["as1r1"], destinations=others),
                dict(WEB, name="to_down", qps=200, pair_count=8,
                     sources=others, destinations=["as40r1"]),
            ],
        )
        schedule = FaultSchedule.parse(
            "at 1 node_down as1r1\nat 2 node_down as40r1\nat 3 node_up as1r1"
        )
        baseline = run_traffic(lab.fork(), profile, seed=4)
        faulted = run_traffic(lab.fork(), profile, seed=4, schedule=schedule)
        assert [fault["kind"] for fault in faulted.faults] == [
            "node_down", "node_down", "node_up"
        ]
        assert all(entry.unroutable_flows == 0 for entry in baseline.classes)
        for entry in faulted.classes:
            assert entry.unroutable_flows > 0
            assert entry.delivered_flows > 0  # before the fault
            assert entry.offered_flows == (
                entry.delivered_flows + entry.dropped_flows + entry.unroutable_flows
            )
        assert faulted.offered_flows == baseline.offered_flows

    def test_schedule_naming_unknown_machine_rejected(self, lab):
        schedule = FaultSchedule.parse("at 1 node_down nosuch")
        with pytest.raises(Exception):
            run_traffic(lab.fork(), make_profile(), seed=0, schedule=schedule)


class TestLiveUpdates:
    """A mid-run DiffPlan reroutes flows like a fault, minus the loss:
    bounded p99 blip in the change bucket, recovery in the next."""

    @pytest.fixture(scope="class")
    def cost_plan(self, tmp_path_factory):
        from repro.liveupdate import apply_edits, diff_designs
        from repro.loader import small_internet

        edits = [{"kind": "cost", "link": ["as100r1", "as100r2"], "value": 50}]
        delta = diff_designs(
            small_internet(), apply_edits(small_internet(), edits),
            "netkit", work_dir=str(tmp_path_factory.mktemp("live_plan")),
        )
        return delta.plan

    def test_mid_run_cost_change_blips_then_recovers(self, lab, cost_plan):
        profile = make_profile(
            duration=6.0, capacity=100.0,
            reconvergence_seconds=0.5,
            classes=[dict(WEB, qps=600)],
        )
        baseline = run_traffic(lab.fork(), profile, seed=5)
        updated = run_traffic(
            lab.fork(), profile, seed=5, live_plans=[(2.0, cost_plan)]
        )

        assert updated.faults == [{
            "time": 2.0, "kind": "live_update", "target": "as100r1 as100r2",
        }]

        def bucket(report, start):
            return next(b for b in report.timeline if b["start"] == start)

        # flows in flight across the disturbed routers stall until the
        # reconvergence window closes, then retry over the new paths —
        # the same disruption shape a fault produces
        assert bucket(updated, 2.0)["p99_ms"] > 2 * bucket(baseline, 2.0)["p99_ms"]
        recovered = bucket(updated, 5.0)["p99_ms"]
        assert recovered < bucket(updated, 2.0)["p99_ms"] / 2

    def test_live_update_run_is_deterministic(self, lab, cost_plan):
        profile = make_profile(duration=4.0, capacity=50.0)
        first = run_traffic(
            lab.fork(), profile, seed=9, live_plans=[(1.0, cost_plan)]
        )
        second = run_traffic(
            lab.fork(), profile, seed=9, live_plans=[(1.0, cost_plan)]
        )
        assert first.to_json() == second.to_json()

    def test_plan_accepts_dict_form(self, lab, cost_plan):
        profile = make_profile(duration=2.0)
        report = run_traffic(
            lab.fork(), profile, seed=1,
            live_plans=[(1.0, cost_plan.to_dict())],
        )
        assert report.faults[0]["kind"] == "live_update"

    def test_platform_mismatch_rejected(self, lab, cost_plan):
        wrong = type(cost_plan).from_dict(
            dict(cost_plan.to_dict(), platform="cbgp")
        )
        with pytest.raises(TrafficError, match="platform"):
            run_traffic(
                lab.fork(), make_profile(), seed=0, live_plans=[(1.0, wrong)]
            )

    def test_negative_time_rejected(self, lab, cost_plan):
        with pytest.raises(TrafficError, match=">= 0"):
            run_traffic(
                lab.fork(), make_profile(), seed=0, live_plans=[(-1.0, cost_plan)]
            )


class TestReportShape:
    def test_metrics_exported_into_registry(self, si_render):
        telemetry = Telemetry()
        with telemetry.activate():
            lab = EmulatedLab.boot(si_render.lab_dir)
            report = run_traffic(lab, make_profile(), seed=2)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["traffic.flows_offered"] == report.offered_flows
        assert counters["traffic.flows_delivered"] == report.delivered_flows
        histograms = telemetry.metrics.snapshot()["histograms"]
        assert "traffic.latency_ms.web" in histograms

    def test_report_serialises_and_formats(self, lab):
        report = run_traffic(lab, make_profile(), seed=4)
        payload = json.loads(report.to_json(max_links=3))
        assert payload["totals"]["offered_flows"] == report.offered_flows
        assert len(payload["links"]) <= 3
        assert "web" in payload["classes"]
        lines = report.format_lines()
        assert any("web" in line for line in lines)
        assert any("flows offered" in line for line in lines)

    def test_timeline_covers_duration(self, lab):
        report = run_traffic(lab, make_profile(duration=3.0), seed=6)
        starts = [bucket["start"] for bucket in report.timeline]
        assert starts == sorted(starts)
        assert starts[0] == 0.0
        assert starts[-1] <= 3.0
        assert sum(b["offered"] for b in report.timeline) == report.offered_flows

    def test_sources_destinations_restrict_pairs(self, lab):
        profile = make_profile(
            classes=[dict(WEB, sources=["as100r1"], destinations=["as100r2"])]
        )
        report = run_traffic(lab, profile, seed=1)
        assert report.offered_flows > 0
        assert report.loss_rate == 0.0

    def test_unknown_machine_in_class_rejected(self, lab):
        profile = make_profile(classes=[dict(WEB, sources=["nosuch"])])
        with pytest.raises(TrafficError, match="unknown machine"):
            run_traffic(lab, profile, seed=0)
