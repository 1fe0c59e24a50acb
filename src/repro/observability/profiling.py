"""Profilers that attach to the tracer: hot functions and flamegraphs.

Two complementary collectors, both zero-dependency:

* a **deterministic** profiler (:mod:`cProfile`) on the calling thread —
  exact call counts and per-function self/cumulative time, the source
  of the hot-function table;
* a **sampling** profiler — a daemon thread walking
  ``sys._current_frames()`` at a fixed interval, capturing whole stacks
  across *every* thread (so work on a supervised worker thread is
  visible).  Its aggregate is the collapsed-stack output
  flamegraph tools consume (``frame;frame;frame count`` per line, the
  format of Brendan Gregg's ``flamegraph.pl`` and of speedscope).

:class:`Profiler` runs both around a ``with`` block; the CLI's
``--profile`` wraps any subcommand in one and the campaign runner
captures one per trial.  :func:`span_hotspots` is the tracer-level
complement: per-span-name cumulative/self time computed from the span
tree, so "which *phase* is hot" and "which *function* is hot" come from
the same run.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "FunctionStat",
    "ProfileReport",
    "Profiler",
    "format_span_table",
    "span_hotspots",
]

#: Leaf frames that mean "idle worker", filtered from collapsed stacks.
_IDLE_LEAVES = {"wait", "_wait_for_tstate_lock", "select", "poll", "_recv"}
_IDLE_FILES = ("threading.py", "selectors.py", "connection.py", "queue.py")


def _frame_label(frame) -> str:
    """``repro/render/renderer.py:render_device`` — repo-relative when
    the file is inside the package, basename otherwise."""
    filename = frame.f_code.co_filename.replace("\\", "/")
    parts = filename.split("/")
    if "repro" in parts:
        short = "/".join(parts[parts.index("repro"):])
    else:
        short = parts[-1]
    return "%s:%s" % (short, frame.f_code.co_name)


def _is_idle_leaf(frame) -> bool:
    name = frame.f_code.co_name
    filename = frame.f_code.co_filename
    return name in _IDLE_LEAVES and filename.endswith(_IDLE_FILES)


class _Sampler(threading.Thread):
    """Samples every live thread's stack at a fixed interval."""

    def __init__(self, interval: float):
        super().__init__(name="repro-profiler", daemon=True)
        self.interval = interval
        self._stop_event = threading.Event()
        #: (top..leaf frame labels) -> observation count
        self.stacks: dict[tuple, int] = {}
        self.sample_count = 0
        self.threads_seen: set[str] = set()

    def run(self) -> None:
        own_id = threading.get_ident()
        names = {}
        while not self._stop_event.wait(self.interval):
            self.sample_count += 1
            for thread_id, frame in list(sys._current_frames().items()):
                if thread_id == own_id:
                    continue
                if _is_idle_leaf(frame):
                    continue
                stack = []
                while frame is not None:
                    stack.append(_frame_label(frame))
                    frame = frame.f_back
                stack.reverse()
                key = tuple(stack)
                self.stacks[key] = self.stacks.get(key, 0) + 1
                if thread_id not in names:
                    for thread in threading.enumerate():
                        names[thread.ident] = thread.name
                self.threads_seen.add(names.get(thread_id, str(thread_id)))

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=2.0)


@dataclass
class FunctionStat:
    """One row of the hot-function table."""

    name: str          # "repro/render/renderer.py:render_device"
    calls: Optional[int]
    self_seconds: float
    cum_seconds: float
    source: str = "deterministic"  # or "sampling"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "self_seconds": self.self_seconds,
            "cum_seconds": self.cum_seconds,
            "source": self.source,
        }


@dataclass
class ProfileReport:
    """The combined output of one profiled region."""

    function_stats: list[FunctionStat] = field(default_factory=list)
    #: collapsed stacks: "a;b;c" -> sample count
    stacks: dict[str, int] = field(default_factory=dict)
    sample_count: int = 0
    interval: float = 0.0
    threads_seen: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    # -- hot functions -------------------------------------------------------
    def hot_functions(self, limit: int = 15, sort: str = "self") -> list[FunctionStat]:
        key = (
            (lambda stat: stat.self_seconds)
            if sort == "self"
            else (lambda stat: stat.cum_seconds)
        )
        return sorted(self.function_stats, key=key, reverse=True)[:limit]

    def format_table(self, limit: int = 15) -> str:
        """The hot-function table ``--profile`` prints."""
        lines = [
            "%9s %9s %9s  %s" % ("self(s)", "cum(s)", "calls", "function")
        ]
        for stat in self.hot_functions(limit=limit):
            lines.append(
                "%9.4f %9.4f %9s  %s"
                % (
                    stat.self_seconds,
                    stat.cum_seconds,
                    "-" if stat.calls is None else stat.calls,
                    stat.name,
                )
            )
        return "\n".join(lines)

    # -- collapsed stacks ----------------------------------------------------
    def collapsed(self) -> list[str]:
        """``frame;frame;frame count`` lines, most-sampled first."""
        return [
            "%s %d" % (stack, count)
            for stack, count in sorted(
                self.stacks.items(), key=lambda item: (-item[1], item[0])
            )
        ]

    def write_collapsed(self, path: str) -> str:
        with open(path, "w") as handle:
            for line in self.collapsed():
                handle.write(line + "\n")
        return path

    def top_frames(self, limit: int = 10) -> list[str]:
        """Leaf frames weighted by sample count — the flamegraph tips."""
        leaves: dict[str, int] = {}
        for stack, count in self.stacks.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        ordered = sorted(leaves.items(), key=lambda item: (-item[1], item[0]))
        return [frame for frame, _ in ordered[:limit]]

    def to_dict(self, limit: int = 15) -> dict:
        return {
            "hot_functions": [
                stat.to_dict() for stat in self.hot_functions(limit=limit)
            ],
            "top_frames": self.top_frames(limit),
            "sample_count": self.sample_count,
            "interval": self.interval,
            "threads_seen": list(self.threads_seen),
            "elapsed_seconds": self.elapsed_seconds,
            "unique_stacks": len(self.stacks),
        }


class Profiler:
    """Profile a region: deterministic on this thread, sampled on all.

    ::

        profiler = Profiler()
        with profiler:
            run_experiment(...)
        print(profiler.report().format_table())
        profiler.report().write_collapsed("run.collapsed")

    ``deterministic=False`` drops the :mod:`cProfile` layer (and its
    overhead); the hot-function table is then estimated from samples —
    the right trade-off inside campaign trials running many to a
    process.  Re-entrant use is not supported; one profiler measures
    one region.
    """

    def __init__(
        self,
        interval: float = 0.001,
        deterministic: bool = True,
        max_stacks: int = 10000,
    ):
        self.interval = interval
        self.deterministic = deterministic
        self.max_stacks = max_stacks
        self._sampler: Optional[_Sampler] = None
        self._profile: Optional[cProfile.Profile] = None
        self._started = 0.0
        self._elapsed = 0.0
        self._report: Optional[ProfileReport] = None

    def __enter__(self) -> "Profiler":
        self._report = None
        self._sampler = _Sampler(self.interval)
        self._sampler.start()
        self._started = time.perf_counter()
        if self.deterministic:
            self._profile = cProfile.Profile()
            self._profile.enable()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._profile is not None:
            self._profile.disable()
        self._elapsed = time.perf_counter() - self._started
        if self._sampler is not None:
            self._sampler.stop()
        return False

    # -- report construction -------------------------------------------------
    def report(self) -> ProfileReport:
        if self._report is None:
            self._report = self._build_report()
        return self._report

    def _build_report(self) -> ProfileReport:
        sampler = self._sampler
        stacks: dict[str, int] = {}
        if sampler is not None:
            ordered = sorted(
                sampler.stacks.items(), key=lambda item: -item[1]
            )[: self.max_stacks]
            stacks = {";".join(stack): count for stack, count in ordered}
        function_stats = (
            self._stats_from_cprofile()
            if self._profile is not None
            else self._stats_from_samples(sampler)
        )
        return ProfileReport(
            function_stats=function_stats,
            stacks=stacks,
            sample_count=sampler.sample_count if sampler else 0,
            interval=self.interval,
            threads_seen=sorted(sampler.threads_seen) if sampler else [],
            elapsed_seconds=self._elapsed,
        )

    def _stats_from_cprofile(self) -> list[FunctionStat]:
        stats = pstats.Stats(self._profile)
        rows = []
        for (filename, _, name), (
            _primitive_calls,
            n_calls,
            self_time,
            cum_time,
            _callers,
        ) in stats.stats.items():  # type: ignore[attr-defined]
            if filename == "~":
                label = name  # "<built-in method ...>"
            else:
                parts = filename.replace("\\", "/").split("/")
                if "repro" in parts:
                    short = "/".join(parts[parts.index("repro"):])
                else:
                    short = parts[-1]
                label = "%s:%s" % (short, name)
            rows.append(
                FunctionStat(
                    name=label,
                    calls=n_calls,
                    self_seconds=self_time,
                    cum_seconds=cum_time,
                    source="deterministic",
                )
            )
        return rows

    def _stats_from_samples(self, sampler: Optional[_Sampler]) -> list[FunctionStat]:
        if sampler is None:
            return []
        self_counts: dict[str, int] = {}
        cum_counts: dict[str, int] = {}
        for stack, count in sampler.stacks.items():
            self_counts[stack[-1]] = self_counts.get(stack[-1], 0) + count
            for frame in set(stack):
                cum_counts[frame] = cum_counts.get(frame, 0) + count
        return [
            FunctionStat(
                name=frame,
                calls=None,
                self_seconds=self_counts.get(frame, 0) * self.interval,
                cum_seconds=cum_counts[frame] * self.interval,
                source="sampling",
            )
            for frame in cum_counts
        ]


# -- span-level hotspots ------------------------------------------------------
def span_hotspots(source) -> list[dict]:
    """Per-span-name timing rollup from a Telemetry/Tracer/span list.

    ``self_seconds`` is a span's duration minus its direct children —
    the time attributable to the span's own code — so sorting by it
    answers "which phase/rule/device is hot" without double counting
    the tree.
    """
    from repro.observability.export import _spans_of

    rows: dict[str, dict] = {}
    for span in _spans_of(source):
        child_seconds = sum(child.duration for child in span.children)
        row = rows.setdefault(
            span.name,
            {"name": span.name, "count": 0, "total_seconds": 0.0,
             "self_seconds": 0.0},
        )
        row["count"] += 1
        row["total_seconds"] += span.duration
        row["self_seconds"] += max(span.duration - child_seconds, 0.0)
    return sorted(rows.values(), key=lambda row: -row["self_seconds"])


def format_span_table(source, limit: int = 15) -> str:
    """The per-span cumulative/self-time table ``--profile`` prints."""
    lines = ["%9s %9s %7s  %s" % ("self(s)", "total(s)", "count", "span")]
    for row in span_hotspots(source)[:limit]:
        lines.append(
            "%9.4f %9.4f %7d  %s"
            % (row["self_seconds"], row["total_seconds"], row["count"],
               row["name"])
        )
    return "\n".join(lines)
