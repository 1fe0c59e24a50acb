"""Integration: the whole pipeline records one coherent telemetry.

The acceptance surface of the observability subsystem: a Small-Internet
``run_experiment`` produces a span tree covering every phase with
per-rule and per-device children, nonzero protocol metrics, a
structured event log, and trace files both exporters can consume.
"""

import json

import pytest

from repro import run_experiment, small_internet
from repro.cli import main
from repro.observability import chrome_trace, read_jsonl


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    return run_experiment(
        small_internet(),
        output_dir=str(tmp_path_factory.mktemp("telemetry")),
        lab_name="si",
    )


class TestSpanTree:
    def test_phases_are_children_of_experiment(self, result):
        root = result.telemetry.root_span()
        assert root.name == "experiment"
        assert [child.name for child in root.children] == [
            "load_build",
            "compile",
            "render",
            "deploy",
        ]

    def test_per_rule_spans_under_load_build(self, result):
        load_build = result.telemetry.root_span().find("load_build")
        assert [child.name for child in load_build.children] == [
            "design.phy",
            "design.ipv4",
            "design.ospf",
            "design.ebgp",
            "design.ibgp",
            "design.dns",
        ]

    def test_per_device_spans_under_compile(self, result):
        compile_span = result.telemetry.root_span().find("compile")
        device_spans = [child.name for child in compile_span.children]
        assert len(device_spans) == 14
        assert "compile.as100r1" in device_spans

    def test_per_device_spans_under_render(self, result):
        render_span = result.telemetry.root_span().find("render")
        assert len(render_span.find_all("render.as100r1")) == 1

    def test_deploy_stages_and_emulation_under_deploy(self, result):
        deploy_span = result.telemetry.root_span().find("deploy")
        names = [span.name for span in deploy_span.walk()]
        for stage in ("deploy.archive", "deploy.transfer", "deploy.extract",
                      "deploy.lstart", "emulation.parse", "emulation.igp",
                      "emulation.bgp"):
            assert stage in names

    def test_bgp_span_carries_convergence_attributes(self, result):
        bgp_span = result.telemetry.root_span().find("emulation.bgp")
        assert bgp_span.attributes["converged"] is True
        assert bgp_span.attributes["rounds"] > 0

    def test_timings_view_derives_from_spans(self, result):
        root = result.telemetry.root_span()
        assert set(result.timings) == {"load_build", "compile", "render", "deploy"}
        for child in root.children:
            assert result.timings[child.name] == pytest.approx(child.duration)
        # phases are measured uniformly: they sum to (almost) the total
        assert sum(result.timings.values()) <= root.duration

    def test_timing_tree_renders(self, result):
        tree = result.timing_tree()
        assert "experiment" in tree
        assert "design.ipv4" in tree


class TestMetrics:
    def test_protocol_metrics_nonzero(self, result):
        metrics = result.telemetry.metrics
        assert metrics.value("ospf.spf_runs") > 0
        assert metrics.value("bgp.rounds") > 0
        assert metrics.value("bgp.messages") > 0
        assert metrics.value("bgp.state_hash_checks") > 0

    def test_pipeline_volume_metrics(self, result):
        metrics = result.telemetry.metrics
        assert metrics.value("design.rules_applied") == 6
        assert metrics.value("compile.devices_compiled") == 14
        assert metrics.value("deploy.configs_parsed") == 14
        assert metrics.value("render.templates_rendered") > 50
        assert metrics.value("render.files_written") == result.render_result.n_files
        assert metrics.value("render.bytes_written") == result.render_result.total_bytes
        assert metrics.value("alloc.subnets_assigned") > 0
        assert metrics.value("alloc.loopbacks_assigned") == 14

    def test_measurement_metrics_join_the_same_run(self, result):
        from repro.measurement import MeasurementClient

        client = MeasurementClient(result.lab, result.nidb)
        with result.telemetry.activate():
            client.send("show ip bgp summary", ["as100r1", "as20r1"])
        assert result.telemetry.metrics.value("measure.commands_sent") == 2
        assert result.telemetry.tracer.find("measure.send") is not None


class TestEvents:
    def test_deploy_progress_routed_to_event_log(self, result):
        stages = result.telemetry.events.stages()
        for stage in ("deploy.archive", "deploy.transfer", "deploy.extract",
                      "deploy.lstart", "deploy.ready"):
            assert stage in stages

    def test_bgp_convergence_event_present(self, result):
        emulation_events = result.telemetry.events.filter(stage="emulation")
        assert any("converged" in event.message for event in emulation_events)

    def test_progress_events_have_monotonic_stamps(self, result):
        events = result.deployment.monitor.events
        assert all(event.monotonic > 0 for event in events)
        stamps = [event.monotonic for event in events]
        assert stamps == sorted(stamps)


class TestOscillationDiagnosableFromTrace:
    def test_bad_gadget_metrics_show_period(self, tmp_path):
        from repro import bad_gadget_topology

        result = run_experiment(
            bad_gadget_topology(),
            platform="dynagen",
            output_dir=str(tmp_path),
            max_rounds=40,
        )
        metrics = result.telemetry.metrics
        assert result.lab.oscillating
        assert metrics.value("bgp.period") > 0
        assert metrics.value("bgp.converged") == 0
        assert (
            metrics.value("bgp.period")
            == result.lab.bgp_result.detected_period
            > 1
        )
        warnings = result.telemetry.events.filter(stage="emulation")
        assert any("oscillates" in event.message for event in warnings)

    def test_converged_lab_reports_period_one_not_zero(self, result):
        """Regression: ``bgp.period`` used to read 0 on converged labs,
        indistinguishable from "undetermined at the round budget".  A
        converged run is a fixpoint — detected period 1 — and the
        separate ``bgp.converged`` gauge makes the verdict explicit."""
        metrics = result.telemetry.metrics
        assert result.lab.converged
        assert metrics.value("bgp.period") == 1
        assert metrics.value("bgp.converged") == 1
        assert result.lab.bgp_result.detected_period == 1
        # the legacy field keeps its old meaning (0 unless oscillating)
        assert result.lab.bgp_result.period == 0


class TestCliTrace:
    def test_build_trace_is_valid_jsonl_and_chrome_loadable(self, tmp_path, capsys):
        trace_path = str(tmp_path / "out.jsonl")
        assert main(["build", "fig5", "-o", str(tmp_path / "lab"),
                     "--trace", trace_path]) == 0
        records = read_jsonl(trace_path)
        span_names = [r["name"] for r in records if r["type"] == "span"]
        assert "build" in span_names
        assert "design.ipv4" in span_names
        assert "compile.r1" in span_names
        document = chrome_trace(records)
        assert len(document["traceEvents"]) == len(span_names)
        assert any(r["type"] == "metric" for r in records)

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        assert main(["build", "fig5", "-o", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_json_mode_is_machine_readable(self, tmp_path, capsys):
        assert main(["build", "fig5", "-o", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "build"
        assert payload["exit_code"] == 0
        assert payload["devices"] == 5
        assert payload["metrics"]["counters"]["compile.devices_compiled"] == 5
        assert payload["timings"]["render"] > 0

    def test_json_mode_verify(self, capsys):
        assert main(["verify", "fig5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["static_ok"] is True
        assert payload["stable"] is True

    def test_metrics_and_timings_flags(self, tmp_path, capsys):
        assert main(["build", "fig5", "-o", str(tmp_path),
                     "--metrics", "--timings"]) == 0
        out = capsys.readouterr().out
        assert "render.templates_rendered" in out
        assert "design.ipv4" in out

    def test_chrome_trace_flag(self, tmp_path):
        path = str(tmp_path / "chrome.json")
        assert main(["build", "fig5", "-o", str(tmp_path / "lab"),
                     "--chrome-trace", path, "--quiet"]) == 0
        document = json.load(open(path))
        assert document["traceEvents"]
