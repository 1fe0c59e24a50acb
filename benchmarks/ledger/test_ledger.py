"""Smoke test of the ledger itself; not part of tier-1.

Run explicitly from the repo root::

    python3 -m pytest benchmarks/ledger/test_ledger.py

All four workloads run at the fig5-sized "smoke" cut (under 20 s
together); the numbers mean nothing, their shape is what is checked.
"""

import json
import math
import os

import pytest

from benchmarks.ledger import OUT_DIR, REPO_ROOT
from benchmarks.ledger.compare import child_run, spread, verdict
from benchmarks.ledger.spec import END_TO_END, PER_LAYER, SESSION, WORKLOADS, Metric

SEED = 5


def _check_metrics(ledger, expected):
    for metric in expected:
        reported = ledger["metrics"][metric.name]
        assert reported["unit"] == metric.unit, metric.name
        assert isinstance(reported["value"], (int, float)), metric.name
        assert math.isfinite(reported["value"]), metric.name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_plain_run_reports_every_end_to_end_metric(workload):
    ledger = child_run(workload, SEED, 20, 0, "smoke")
    assert ledger["correct"] and ledger["failed"] == 0, ledger["problems"]
    assert ledger["attempted"] >= 1
    _check_metrics(ledger, END_TO_END + SESSION.get(workload, ()))
    for metric in END_TO_END:
        assert ledger["metrics"][metric.name]["value"] > 0, metric.name


def test_traced_run_reports_every_layer_and_consistent_spans():
    # one traced run covers the trace code of all four workloads: the
    # three others run as fillers for the layers rpki_cold never touches
    ledger = child_run("rpki_cold", SEED, 20, 1, "smoke")
    assert ledger["correct"], ledger["problems"]
    _check_metrics(ledger, PER_LAYER)
    assert "design.rpki_s" in ledger["native"]
    assert "traffic.offered" not in ledger["native"]
    assert ledger["attributed_share"] > 0.9

    with open(os.path.join(OUT_DIR, "rpki_cold.trace.jsonl")) as handle:
        spans = [json.loads(line) for line in handle]
    by_id = {span["id"]: span for span in spans}
    covered = dict.fromkeys(by_id, 0.0)
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert span["op"] == parent["op"]
            covered[span["parent"]] += span["end"] - span["start"]
    for span in spans:
        duration = span["end"] - span["start"]
        assert span["self"] >= 0
        assert span["self"] + covered[span["id"]] == pytest.approx(duration, rel=0.01)


def test_benchmark_json_matches_spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert {w["name"]: w["why"] for w in declared["workloads"]} == WORKLOADS
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert all(len(why) <= 200 for why in WORKLOADS.values())


def test_compare_verdicts():
    lower = Metric("t", "s", "lower", 0.10)
    steady = {"values": [10.0, 10.1, 10.2, 10.3], "median": 10.15}
    steady["spread"] = spread(steady["values"])
    slower = {"values": [12.0, 12.1, 12.2, 12.3], "median": 12.15}
    slower["spread"] = spread(slower["values"])
    noisy = {"values": [8.0, 10.0, 12.0, 14.0], "median": 11.0}
    noisy["spread"] = spread(noisy["values"])
    assert verdict(lower, steady, steady)[1] == "ok"
    assert verdict(lower, steady, slower)[1] == "worse"
    assert verdict(lower, steady, noisy)[1] == "unresolved"
    assert verdict(lower, slower, steady)[1] == "ok"
