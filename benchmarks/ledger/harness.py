"""What every workload shares: the run context, timing, and spans."""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from benchmarks.ledger.spec import NOMINAL_SECONDS

clock = time.perf_counter


def timed(function, *args, **kwargs):
    """Call once; return ``(result, seconds)``."""
    started = clock()
    result = function(*args, **kwargs)
    return result, clock() - started


def median(samples) -> float:
    return float(statistics.median(samples))


def percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    return float(ordered[min(len(ordered) - 1, int(fraction * len(ordered)))])


@dataclass
class Context:
    """One workload run: its seed, sizes, scratch space and op ledger."""

    workload: str
    seed: int
    seconds: float
    #: "paper" runs the sizes the paper reports; "smoke" a fig5-sized
    #: cut for test_ledger.py and for filling the layers a traced
    #: workload does not touch.  Never a way to make "paper" cheaper.
    size: str
    work_dir: str
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: sample counts behind each reported median
    samples: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    _dirs: int = 0

    @property
    def paper(self) -> bool:
        return self.size == "paper"

    def rng(self, purpose: str) -> random.Random:
        """An independent generator per purpose, fixed by the seed."""
        return random.Random("%d:%s" % (self.seed, purpose))

    def reps(self, nominal: int) -> int:
        """Scale a loop count written for NOMINAL_SECONDS to --seconds."""
        if not self.paper:
            return max(1, nominal // 10)
        return max(1, round(nominal * self.seconds / NOMINAL_SECONDS))

    def scratch(self, label: str) -> str:
        """A path for a fresh directory under the run's work dir (not created)."""
        self._dirs += 1
        return os.path.join(self.work_dir, "%s_%03d_%s" % (self.workload, self._dirs, label))

    def op(self, ok: bool = True, count: int = 1, what: str = "") -> bool:
        """Count operations; a false ``ok`` counts them failed and says why."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what or "operation failed")
        return ok

    def fail_all(self, what: str) -> None:
        """A broken oracle invalidates every number of the run."""
        self.failed = max(self.attempted, 1)
        self.problems.append(what)

    def note(self, name: str, samples) -> float:
        """Record the sample count of a timing and return its median."""
        self.samples[name] = len(samples)
        return median(samples)


class Stopwatch:
    """The plain run's counterpart of ``Spans.call``: seconds per call name."""

    def __init__(self):
        self.seconds: dict[str, list[float]] = {}

    def call(self, name: str, function, *args, **kwargs):
        result, elapsed = timed(function, *args, **kwargs)
        self.seconds.setdefault(name, []).append(elapsed)
        return result


class Spans:
    """The traced run's spans: name, start, end, parent, one op id per root.

    Kept in memory, written out when the run ends.  A span's self time
    is its duration minus the part its children cover.
    """

    def __init__(self):
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.records),
            "name": name,
            "parent": parent,
            "op": self.records[parent]["op"] if parent is not None else len(self.records),
            "start": clock(),
            "end": None,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = clock()
            self._open.pop()

    def call(self, name: str, function, *args, **kwargs):
        with self.span(name):
            return function(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median(self, name: str) -> float:
        return median(self.durations(name))

    def self_times(self) -> dict[int, float]:
        selfs = {r["id"]: r["end"] - r["start"] for r in self.records}
        for record in self.records:
            if record["parent"] is not None:
                selfs[record["parent"]] -= record["end"] - record["start"]
        return selfs

    def write(self, path: str) -> None:
        selfs = self.self_times()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps({**record, "self": selfs[record["id"]]}) + "\n")


def tree_bytes(root: str) -> tuple[int, int]:
    """(files, bytes) under a directory."""
    files = size = 0
    for directory, _dirs, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(directory, name))
    return files, size
