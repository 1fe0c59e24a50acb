"""A registry of named counters, gauges and histograms.

The pipeline's quantitative self-measurements live here: how many SPF
runs the IGP engine performed (``ospf.spf_runs``), how many BGP rounds
the simulation took (``bgp.rounds``), how many templates the renderer
expanded (``render.templates_rendered``), and so on.  Names are plain
dotted strings; there is no registration step — the first write creates
the instrument.

Thread-safe: every mutation takes the registry lock, so worker threads
can bump the same counter concurrently without losing increments.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, field
from functools import reduce


#: Retained-sample cap per histogram; beyond it, samples are decimated
#: deterministically (every 2nd kept, stride doubled) so memory stays
#: bounded while the distribution estimate keeps covering the run.
_SAMPLE_CAP = 512


@dataclass
class Histogram:
    """Summary statistics of observed values, with percentile estimates.

    Aggregates (count/sum/min/max) are exact.  Percentiles come from a
    bounded, deterministically decimated sample reservoir: once
    ``_SAMPLE_CAP`` samples are held, every second one is dropped and
    only every ``stride``-th future observation is kept.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    samples: list = field(default_factory=list)
    stride: int = 1

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if (self.count - 1) % self.stride == 0:
            self.samples.append(value)
            if len(self.samples) >= _SAMPLE_CAP:
                self.samples = self.samples[::2]
                self.stride *= 2

    def observe_many(self, values: list) -> None:
        """``observe`` each value in order, in one call.

        The end state equals that of repeated :meth:`observe` field for
        field: ``total`` is summed left to right (not with ``sum()``,
        which compensates floats on Python 3.12+), and the reservoir
        keeps the same indices and decimates at the same points.
        """
        if not values:
            return
        count = self.count
        self.count = count + len(values)
        self.total = reduce(operator.add, values, self.total)
        low = min(values)
        if low < self.minimum:
            self.minimum = low
        high = max(values)
        if high > self.maximum:
            self.maximum = high
        samples, stride = self.samples, self.stride
        # the next kept observation is the first index divisible by stride
        index = -count % stride
        while index < len(values):
            samples.append(values[index])
            if len(samples) >= _SAMPLE_CAP:
                samples = samples[::2]
                stride *= 2
            position = count + index + 1
            index += -position % stride + 1
        self.samples, self.stride = samples, stride

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Linear-interpolated percentile estimate (``q`` in 0..100)."""
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] + (ordered[high] - ordered[low]) * fraction

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


@dataclass
class MetricsRegistry:
    """Named counters / gauges / histograms, created on first use."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def __post_init__(self):
        self._lock = threading.Lock()

    # -- writes -------------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add to a counter (created at zero on first use)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Record a point-in-time value (last write wins)."""
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Feed one sample into a histogram."""
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.observe(value)

    # -- reads --------------------------------------------------------------
    def value(self, name: str, default: float = 0) -> float:
        """Current counter or gauge value (0 when never written)."""
        with self._lock:
            if name in self.counters:
                return self.counters[name]
            if name in self.gauges:
                return self.gauges[name]
        return default

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            return self.histograms.get(name, Histogram())

    def snapshot(self) -> dict:
        """One plain dict of everything, for export and assertions."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in self.histograms.items()
                },
            }

    def names(self) -> list[str]:
        with self._lock:
            return sorted(
                set(self.counters) | set(self.gauges) | set(self.histograms)
            )

    def format(self) -> str:
        """A human-readable table, one instrument per line."""
        snapshot = self.snapshot()
        lines = []
        for name in sorted(snapshot["counters"]):
            lines.append("%-40s %g" % (name, snapshot["counters"][name]))
        for name in sorted(snapshot["gauges"]):
            lines.append("%-40s %g (gauge)" % (name, snapshot["gauges"][name]))
        for name in sorted(snapshot["histograms"]):
            stats = snapshot["histograms"][name]
            lines.append(
                "%-40s n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g "
                "min=%.4g max=%.4g"
                % (name, stats["count"], stats["mean"],
                   stats["p50"] or 0, stats["p95"] or 0, stats["p99"] or 0,
                   stats["min"] or 0, stats["max"] or 0)
            )
        return "\n".join(lines)
