"""Many runs of the ledger: collect them, compare two collections, check repeats.

Every run is a child process started with the command BENCHMARK.json
names, so what is compared is what the driver measures.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from benchmarks.ledger import REPO_ROOT
from benchmarks.ledger.spec import (
    END_TO_END,
    NOMINAL_SECONDS,
    PER_LAYER,
    SESSION,
    WORKLOADS,
    repeats_exactly,
)

COMMAND = [sys.executable, "-m", "benchmarks.ledger"]


def child_run(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Run one workload in a fresh process; return its ledger record."""
    completed = subprocess.run(
        COMMAND + [
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size,
        ],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    contract = json.loads(lines[-1])
    ledger = json.loads(lines[-2])["ledger"]
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}, contract
    return ledger


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    first, _middle, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def _git_sha() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def collect(arguments) -> int:
    """``--collect OUT.json``: --runs runs per workload, one seed each."""
    workloads = [arguments.workload] if arguments.workload else list(WORKLOADS)
    collection = {
        "environment": {
            "nproc": os.cpu_count(), "python": platform.python_version(), "git_sha": _git_sha(),
        },
        "seconds": arguments.seconds,
        "runs": arguments.runs,
        "workloads": {},
    }
    status = 0
    for workload in workloads:
        values: dict[str, list] = {}
        failed = 0
        for run in range(arguments.runs):
            ledger = child_run(
                workload, arguments.seed + 1 + run, arguments.seconds, 0, arguments.size
            )
            failed += ledger["failed"]
            for name, metric in ledger["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s run %d/%d: %s" % (
                workload, run + 1, arguments.runs,
                "ok" if not ledger["failed"] else "; ".join(ledger["problems"]),
            ), file=sys.stderr)
        status |= int(failed > 0)
        collection["workloads"][workload] = {
            "ops_failed": failed,
            "metrics": {
                name: {
                    "values": samples,
                    "median": statistics.median(samples),
                    "spread": spread(samples) if len(samples) > 1 else None,
                }
                for name, samples in values.items()
            },
        }
    with open(arguments.collect, "w") as handle:
        json.dump(collection, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(format_collection(collection))
    return status


def _bounded_metrics(workload: str):
    return list(END_TO_END) + list(SESSION.get(workload, ()))


def format_collection(collection: dict) -> str:
    lines = ["%-18s %-26s %14s %9s %7s" % ("workload", "metric", "median", "spread", "bound")]
    for workload, entry in collection["workloads"].items():
        for metric in _bounded_metrics(workload):
            stats = entry["metrics"][metric.name]
            lines.append("%-18s %-26s %14.4f %8.1f%% %6.0f%%" % (
                workload, metric.name, stats["median"],
                100 * (stats["spread"] or 0.0), 100 * metric.bound,
            ))
    return "\n".join(lines)


def verdict(metric, base: dict, other: dict) -> tuple[float, str]:
    """Ratio B/A of the medians and ok / worse / unresolved.

    Where either side's spread is wider than the bound the medians
    decide nothing: unresolved, unless every run of B reads better than
    every run of A.
    """
    ratio = other["median"] / base["median"]
    lower = metric.better == "lower"
    if max(base["spread"] or 0.0, other["spread"] or 0.0) > metric.bound:
        if lower:
            separated = max(other["values"]) < min(base["values"])
        else:
            separated = min(other["values"]) > max(base["values"])
        return ratio, "ok" if separated else "unresolved"
    worsening = ratio - 1 if lower else 1 - ratio
    return ratio, "ok" if worsening <= metric.bound else "worse"


def compare_files(path_a: str, path_b: str) -> int:
    """``--compare A.json B.json``: B against base A, one row per workload x metric."""
    with open(path_a) as handle:
        base = json.load(handle)
    with open(path_b) as handle:
        other = json.load(handle)
    print("base A = %s (%s)\n     B = %s (%s)" % (
        path_a, base["environment"], path_b, other["environment"]))
    print("%-18s %-26s %14s %14s %9s %7s  %s" % (
        "workload", "metric", "median A", "median B", "B/A", "bound", "verdict"))
    status = 0
    for workload in base["workloads"]:
        if workload not in other["workloads"]:
            continue
        for metric in _bounded_metrics(workload):
            stats_a = base["workloads"][workload]["metrics"][metric.name]
            stats_b = other["workloads"][workload]["metrics"][metric.name]
            ratio, word = verdict(metric, stats_a, stats_b)
            status |= int(word == "worse")
            print("%-18s %-26s %14.4f %14.4f %9.3f %6.0f%%  %s" % (
                workload, metric.name, stats_a["median"], stats_b["median"],
                ratio, 100 * metric.bound, word))
    return status


def check_repeat(workload: str, seed: int, size: str) -> int:
    """Two traced runs with one seed must agree on every count and digest."""
    first, second = (child_run(workload, seed, NOMINAL_SECONDS, 1, size) for _ in range(2))
    exact = [metric.name for metric in PER_LAYER if repeats_exactly(metric)]
    differing = [
        name for name in exact
        if first["metrics"][name]["value"] != second["metrics"][name]["value"]
    ]
    differing += [
        name for name in first["digests"] if first["digests"][name] != second["digests"].get(name)
    ]
    if differing or first["failed"] or second["failed"]:
        print("%s seed %d does NOT repeat: %s %s %s" % (
            workload, seed, differing, first["problems"], second["problems"]))
        return 1
    print("%s seed %d repeats: %d counters and %d digests identical in two traced runs"
          % (workload, seed, len(exact), len(first["digests"])))
    return 0
