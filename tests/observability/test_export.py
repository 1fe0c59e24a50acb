"""Unit tests for the JSON-lines, Chrome-trace and timing-tree exporters."""

import json
import time
from concurrent import futures

from repro.observability import (
    Telemetry,
    chrome_trace,
    read_jsonl,
    span,
    timing_tree,
    write_chrome_trace,
    write_jsonl,
)


def _sample_telemetry() -> Telemetry:
    telemetry = Telemetry()
    with telemetry.activate():
        with telemetry.span("experiment", platform="netkit"):
            with telemetry.span("load_build"):
                telemetry.metrics.inc("design.rules_applied", 6)
            with telemetry.span("compile"):
                telemetry.metrics.set_gauge("emulation.machines", 14)
        telemetry.events.info("deploy.lstart", "starting lab", lab_name="si")
    return telemetry


class TestJsonLines:
    def test_round_trip(self, tmp_path):
        telemetry = _sample_telemetry()
        path = write_jsonl(telemetry, str(tmp_path / "run.jsonl"))
        records = read_jsonl(path)
        kinds = {record["type"] for record in records}
        assert kinds == {"span", "metric", "event"}
        spans = [r for r in records if r["type"] == "span"]
        assert [s["name"] for s in spans] == ["experiment", "load_build", "compile"]
        metrics = {r["name"]: r for r in records if r["type"] == "metric"}
        assert metrics["design.rules_applied"]["value"] == 6
        assert metrics["emulation.machines"]["kind"] == "gauge"
        events = [r for r in records if r["type"] == "event"]
        assert events[0]["fields"] == {"lab_name": "si"}

    def test_each_line_is_valid_json(self, tmp_path):
        path = write_jsonl(_sample_telemetry(), str(tmp_path / "run.jsonl"))
        for line in open(path):
            json.loads(line)


class TestChromeTrace:
    def test_structure(self):
        document = chrome_trace(_sample_telemetry())
        events = document["traceEvents"]
        assert len(events) == 3
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert event["pid"] == 1
        names = [event["name"] for event in events]
        assert "experiment" in names

    def test_loadable_from_jsonl_records(self, tmp_path):
        """The JSON-lines file feeds the Chrome exporter directly."""
        path = write_jsonl(_sample_telemetry(), str(tmp_path / "run.jsonl"))
        document = chrome_trace(read_jsonl(path))
        assert len(document["traceEvents"]) == 3

    def test_write_file(self, tmp_path):
        path = write_chrome_trace(_sample_telemetry(), str(tmp_path / "trace.json"))
        document = json.load(open(path))
        assert "traceEvents" in document

    def test_empty(self):
        assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_round_trip_matches_direct_export(self, tmp_path):
        """jsonl -> read_jsonl -> chrome_trace equals the direct export."""
        telemetry = _sample_telemetry()
        direct = chrome_trace(telemetry)
        path = write_jsonl(telemetry, str(tmp_path / "run.jsonl"))
        assert chrome_trace(read_jsonl(path)) == direct


def _traced_square(value):
    """Module-level so a process pool can pickle it."""
    with span("proc.task"):
        return value * value


class TestExecutorSpanTrees:
    """Spans opened on executor workers must form correct trees."""

    def _run_on_threads(self, telemetry, jobs=4, tasks=8):
        def task(index):
            with span("render.device", device=index):
                time.sleep(0.002)
            return index

        with futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            with telemetry.span("engine.run"):
                return list(pool.map(task, range(tasks)))

    def test_thread_executor_parents_stay_on_thread(self):
        telemetry = Telemetry()
        with telemetry.activate():
            results = self._run_on_threads(telemetry)
        spans = telemetry.tracer.all_spans()
        device_spans = [s for s in spans if s.name == "render.device"]
        assert results == list(range(8))
        assert len(device_spans) == 8
        # a span's parent must live on the span's own thread — worker
        # spans never interleave into another thread's open span
        by_id = {s.span_id: s for s in spans}
        for record in device_spans:
            if record.parent_id is not None:
                assert by_id[record.parent_id].thread == record.thread

    def test_worker_spans_become_roots_not_children_of_main(self):
        telemetry = Telemetry()
        with telemetry.activate():
            self._run_on_threads(telemetry)
        outer = telemetry.tracer.find("engine.run")
        assert outer is not None
        assert [child.name for child in outer.children] == []
        root_names = [root.name for root in telemetry.tracer.roots]
        assert root_names.count("render.device") == 8

    def test_chrome_trace_gives_worker_threads_distinct_tids(self):
        telemetry = Telemetry()
        with telemetry.activate():
            self._run_on_threads(telemetry)
        document = chrome_trace(telemetry)
        tid_of = {event["name"]: event["tid"]
                  for event in document["traceEvents"]}
        main_tid = tid_of["engine.run"]
        worker_tids = {event["tid"] for event in document["traceEvents"]
                       if event["name"] == "render.device"}
        assert main_tid not in worker_tids

    def test_process_executor_spans_stay_in_child(self):
        telemetry = Telemetry()
        with telemetry.activate():
            with futures.ProcessPoolExecutor(max_workers=2) as pool:
                results = list(pool.map(_traced_square, range(4)))
        assert results == [0, 1, 4, 9]
        # child processes have their own (inactive) telemetry — their
        # spans never leak into the parent's tracer
        names = [s.name for s in telemetry.tracer.all_spans()]
        assert "proc.task" not in names


class TestTimingTree:
    def test_hierarchy_and_percentages(self):
        tree = timing_tree(_sample_telemetry())
        lines = tree.splitlines()
        assert lines[0].startswith("experiment")
        assert lines[1].startswith("  load_build")
        assert "%" in lines[1]

    def test_error_span_flagged(self):
        telemetry = Telemetry()
        try:
            with telemetry.span("fails"):
                raise ValueError("x")
        except ValueError:
            pass
        assert "[ERROR]" in timing_tree(telemetry)

    def test_wide_sibling_runs_fold(self):
        telemetry = Telemetry()
        with telemetry.span("compile"):
            for index in range(30):
                with telemetry.span("compile.r%d" % index):
                    pass
        tree = timing_tree(telemetry, max_children=20)
        assert "... 10 more spans" in tree
