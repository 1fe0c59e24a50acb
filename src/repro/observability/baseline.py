"""The perf-baseline store: versioned benchmark records and gates.

Benchmark output (``BENCH_pipeline.json`` and friends) is only
evidence when runs are comparable across commits.  This module gives
every run a **schema-versioned record** — keyed by bench name +
topology + mode, stamped with the git SHA and an environment
fingerprint — appends it to ``benchmarks/results/history.jsonl``, and
diffs the current run against the last committed baseline with
configurable tolerances:

* wall-clock series (any name containing ``seconds``/``duration``) get
  the looser ``tolerance`` — they are noisy on shared runners;
* deterministic work counters (``ospf.spf_cache_hits``,
  ``bgp.messages``, cache hit rates...) get the tighter
  ``metric_tolerance`` — they should not move at all without a code
  change, which is what makes them first-class tracked series here and
  not just decoration;
* series whose name marks them higher-is-better (``speedup``,
  ``per_min``, ``hits``...) regress on *decreases*.

``repro perf record|compare|report`` is the CLI over this module; the
trend report renders the tracked series across history as markdown or
HTML with per-series sparklines.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "SCHEMA_VERSION",
    "BaselineRecord",
    "BaselineStore",
    "PerfComparison",
    "SeriesDelta",
    "compare_records",
    "environment_fingerprint",
    "flatten_series",
    "git_sha",
    "record_from_bench",
    "render_trend_report",
]

#: Bump when the record layout changes; readers skip newer schemas.
SCHEMA_VERSION = 1

#: Default history location, relative to a repo root / working dir.
DEFAULT_HISTORY = os.path.join("benchmarks", "results", "history.jsonl")

#: Top-level bench keys that are provenance, not measurements.
_NON_SERIES_KEYS = {
    "bench", "timestamp", "schema_version", "git_sha", "environment",
    "topology", "selection", "mode", "note",
}

#: A series whose *last* dotted segment contains one of these is
#: higher-is-better; everything else (seconds, counts, messages)
#: regresses on increases.
_HIGHER_IS_BETTER_MARKERS = (
    "speedup", "per_min", "hits", "retained", "saved", "converged",
    "trials_per_min",
)


def git_sha(root: str | None = None, short: bool = True) -> str:
    """The current commit, or ``"unknown"`` outside a git checkout."""
    command = ["git", "rev-parse", "--short" if short else "HEAD"]
    if short:
        command.append("HEAD")
    try:
        out = subprocess.run(
            command,
            cwd=root or os.getcwd(),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment_fingerprint() -> dict:
    """What produced the numbers: interpreter, platform, core count."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def flatten_series(data: dict, prefix: str = "") -> dict[str, float]:
    """Nested dicts of numbers -> flat ``{"a.b.c": value}`` series.

    Booleans flatten to 0/1 (``converged`` is a tracked series); other
    non-numeric leaves are dropped.  Provenance keys are skipped at the
    top level only — a nested ``phases.timestamp`` would be data.
    """
    series: dict[str, float] = {}
    for key, value in data.items():
        if not prefix and key in _NON_SERIES_KEYS:
            continue
        name = "%s.%s" % (prefix, key) if prefix else str(key)
        if isinstance(value, bool):
            series[name] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            series[name] = float(value)
        elif isinstance(value, dict):
            series.update(flatten_series(value, name))
    return series


@dataclass
class BaselineRecord:
    """One schema-versioned benchmark result."""

    key: str                      # "<bench>:<topology>:<mode>"
    bench: str
    topology: str
    mode: str
    git_sha: str
    timestamp: float
    series: dict[str, float] = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    note: str = ""
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "key": self.key,
            "bench": self.bench,
            "topology": self.topology,
            "mode": self.mode,
            "git_sha": self.git_sha,
            "timestamp": self.timestamp,
            "environment": dict(self.environment),
            "note": self.note,
            "series": dict(self.series),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BaselineRecord":
        return cls(
            key=data["key"],
            bench=data.get("bench", ""),
            topology=data.get("topology", ""),
            mode=data.get("mode", "default"),
            git_sha=data.get("git_sha", "unknown"),
            timestamp=float(data.get("timestamp", 0.0)),
            series={k: float(v) for k, v in (data.get("series") or {}).items()},
            environment=dict(data.get("environment") or {}),
            note=data.get("note", ""),
            schema_version=int(data.get("schema_version", 0)),
        )


def record_from_bench(
    bench_data: dict,
    mode: str | None = None,
    note: str = "",
    sha: str | None = None,
    timestamp: float | None = None,
    root: str | None = None,
) -> BaselineRecord:
    """Turn a ``BENCH_*.json`` document into one baseline record."""
    bench = str(bench_data.get("bench", "pipeline"))
    topology = str(bench_data.get("topology", "unknown"))
    mode = mode or str(bench_data.get("mode", "default"))
    return BaselineRecord(
        key="%s:%s:%s" % (bench, topology, mode),
        bench=bench,
        topology=topology,
        mode=mode,
        git_sha=sha if sha is not None else git_sha(root),
        timestamp=timestamp if timestamp is not None else time.time(),
        series=flatten_series(bench_data),
        environment=environment_fingerprint(),
        note=note,
    )


class BaselineStore:
    """Append-only JSONL history of baseline records.

    Torn tail lines (an interrupted append) and records with a *newer*
    schema than this reader are skipped, not fatal — the store must
    stay readable across versions in both directions.
    """

    def __init__(self, path: str | os.PathLike = DEFAULT_HISTORY):
        self.path = str(path)

    def append(self, record: BaselineRecord) -> BaselineRecord:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return record

    def records(self) -> list[BaselineRecord]:
        if not os.path.exists(self.path):
            return []
        records = []
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except ValueError:
                    continue  # torn tail line
                if int(data.get("schema_version", 0)) > SCHEMA_VERSION:
                    continue  # written by a newer repro
                records.append(BaselineRecord.from_dict(data))
        return records

    def keys(self) -> list[str]:
        return sorted({record.key for record in self.records()})

    def latest(self, key: str) -> Optional[BaselineRecord]:
        best = None
        for record in self.records():
            if record.key != key:
                continue
            if best is None or record.timestamp >= best.timestamp:
                best = record
        return best

    def series(self, key: str, metric: str) -> list[tuple[float, str, float]]:
        """``(timestamp, git_sha, value)`` of one metric across history."""
        points = []
        for record in self.records():
            if record.key == key and metric in record.series:
                points.append((record.timestamp, record.git_sha,
                               record.series[metric]))
        points.sort(key=lambda point: point[0])
        return points


# -- comparison ---------------------------------------------------------------
def higher_is_better(name: str) -> bool:
    leaf = name.rsplit(".", 1)[-1]
    return any(marker in leaf for marker in _HIGHER_IS_BETTER_MARKERS)


def is_timing_series(name: str) -> bool:
    # phase timings are wall-clock even though the name lacks "seconds"
    return ("seconds" in name or "duration" in name
            or name.startswith("phases."))


@dataclass
class SeriesDelta:
    """One tracked series compared between two records."""

    name: str
    baseline: Optional[float]
    current: Optional[float]
    delta_ratio: Optional[float]  # (current-base)/base, sign as measured
    tolerance: float
    status: str  # ok / regression / improvement / added / removed

    def format(self) -> str:
        if self.status == "added":
            return "%-44s       (new) -> %12g" % (self.name, self.current)
        if self.status == "removed":
            return "%-44s %12g -> (gone)" % (self.name, self.baseline)
        arrow = {"regression": "WORSE", "improvement": "better", "ok": ""}
        return "%-44s %12g -> %12g  %+7.1f%%  %s" % (
            self.name,
            self.baseline,
            self.current,
            100.0 * (self.delta_ratio or 0.0),
            arrow[self.status],
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "baseline": self.baseline,
            "current": self.current,
            "delta_ratio": self.delta_ratio,
            "tolerance": self.tolerance,
            "status": self.status,
        }


@dataclass
class PerfComparison:
    """Every series of one key diffed against its baseline."""

    key: str
    baseline_sha: str
    current_sha: str
    deltas: list[SeriesDelta] = field(default_factory=list)

    @property
    def regressions(self) -> list[SeriesDelta]:
        return [delta for delta in self.deltas if delta.status == "regression"]

    @property
    def improvements(self) -> list[SeriesDelta]:
        return [delta for delta in self.deltas if delta.status == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        return (
            "%s: %d series vs %s — %d regression(s), %d improvement(s)"
            % (
                self.key,
                len(self.deltas),
                self.baseline_sha,
                len(self.regressions),
                len(self.improvements),
            )
        )

    def format(self, show_ok: bool = False) -> str:
        lines = [self.summary()]
        for delta in self.deltas:
            if delta.status in ("regression", "improvement") or show_ok:
                lines.append("  " + delta.format())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "baseline_sha": self.baseline_sha,
            "current_sha": self.current_sha,
            "ok": self.ok,
            "regressions": [delta.to_dict() for delta in self.regressions],
            "improvements": [delta.to_dict() for delta in self.improvements],
            "series_compared": len(self.deltas),
        }


def compare_records(
    baseline: BaselineRecord,
    current: BaselineRecord,
    tolerance: float = 0.15,
    metric_tolerance: float = 0.05,
) -> PerfComparison:
    """Diff every shared series; flag moves beyond tolerance.

    ``tolerance`` gates wall-clock series, ``metric_tolerance`` gates
    deterministic counters.  An injected >=20% slowdown therefore
    always trips the default gate (0.15 < 0.20).
    """
    comparison = PerfComparison(
        key=current.key,
        baseline_sha=baseline.git_sha,
        current_sha=current.git_sha,
    )
    names = sorted(set(baseline.series) | set(current.series))
    for name in names:
        base = baseline.series.get(name)
        now = current.series.get(name)
        allowed = tolerance if is_timing_series(name) else metric_tolerance
        if base is None:
            comparison.deltas.append(SeriesDelta(name, None, now, None,
                                                 allowed, "added"))
            continue
        if now is None:
            comparison.deltas.append(SeriesDelta(name, base, None, None,
                                                 allowed, "removed"))
            continue
        if base == 0:
            status = "ok" if now == 0 else "added"
            comparison.deltas.append(SeriesDelta(name, base, now, None,
                                                 allowed, status))
            continue
        ratio = (now - base) / abs(base)
        worse = -ratio if higher_is_better(name) else ratio
        if worse > allowed:
            status = "regression"
        elif worse < -allowed:
            status = "improvement"
        else:
            status = "ok"
        comparison.deltas.append(
            SeriesDelta(name, base, now, ratio, allowed, status)
        )
    return comparison


# -- trend report -------------------------------------------------------------
#: Series name prefixes the trend report tracks by default.
DEFAULT_TRACKED = (
    "total_seconds",
    "phases.",
    "engine.serial_seconds",
    "engine.parallel_seconds",
    "engine.warm_cache_seconds",
    "campaign.speedup",
    "metrics.counters.ospf.spf_cache_hits",
    "metrics.counters.ospf.spf_runs",
    "metrics.counters.ospf.invalidations",
    "metrics.counters.bgp.messages",
    "metrics.counters.bgp.rounds",
)

_SPARK_TICKS = "▁▂▃▄▅▆▇█"


def _sparkline(values: list[float]) -> str:
    if not values:
        return ""
    low, high = min(values), max(values)
    if high == low:
        return _SPARK_TICKS[0] * len(values)
    scale = (len(_SPARK_TICKS) - 1) / (high - low)
    return "".join(
        _SPARK_TICKS[int((value - low) * scale)] for value in values
    )


def _tracked(names: Iterable[str], patterns: Iterable[str]) -> list[str]:
    return sorted(
        name
        for name in names
        if any(name == p or name.startswith(p) for p in patterns)
    )


def render_trend_report(
    store: BaselineStore,
    fmt: str = "markdown",
    keys: Iterable[str] | None = None,
    metrics: Iterable[str] | None = None,
    limit: int = 8,
    title: str = "Performance trend",
) -> str:
    """Tracked series across the last ``limit`` records of each key."""
    if fmt not in ("markdown", "html"):
        raise ValueError("unknown trend report format %r" % fmt)
    records = store.records()
    by_key: dict[str, list[BaselineRecord]] = {}
    for record in records:
        by_key.setdefault(record.key, []).append(record)
    keys = list(keys) if keys else sorted(by_key)
    sections: list[str] = []
    for key in keys:
        history = sorted(by_key.get(key, []), key=lambda r: r.timestamp)[-limit:]
        if not history:
            continue
        latest = history[-1]
        names = _tracked(latest.series, metrics or DEFAULT_TRACKED)
        shas = [record.git_sha for record in history]
        header = ["series"] + shas + ["trend"]
        rows = []
        for name in names:
            values = [record.series.get(name) for record in history]
            cells = ["%g" % v if v is not None else "-" for v in values]
            spark = _sparkline([v for v in values if v is not None])
            rows.append([name] + cells + [spark])
        sections.append(_format_table(key, header, rows, fmt))
    if fmt == "html":
        body = "\n".join(sections) or "<p>no history</p>"
        return (
            "<!doctype html>\n<html><head><meta charset='utf-8'>"
            "<title>%s</title>\n<style>body{font-family:monospace}"
            "table{border-collapse:collapse}td,th{border:1px solid #999;"
            "padding:2px 8px;text-align:right}th{background:#eee}"
            "td:first-child{text-align:left}</style></head>\n"
            "<body>\n<h1>%s</h1>\n%s\n</body></html>\n" % (title, title, body)
        )
    return ("# %s\n\n" % title) + ("\n".join(sections) or "(no history)\n")


def _format_table(key: str, header: list[str], rows: list[list[str]],
                  fmt: str) -> str:
    if fmt == "html":
        parts = ["<h2>%s</h2>" % key, "<table>"]
        parts.append(
            "<tr>%s</tr>" % "".join("<th>%s</th>" % cell for cell in header)
        )
        for row in rows:
            parts.append(
                "<tr>%s</tr>" % "".join("<td>%s</td>" % cell for cell in row)
            )
        parts.append("</table>")
        return "\n".join(parts)
    lines = ["## %s" % key, ""]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    return "\n".join(lines)
