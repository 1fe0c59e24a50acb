"""Pipeline-wide observability: tracing spans, metrics, event log.

Every phase of the experiment pipeline — design, compile, render,
deploy, measure — records into one :class:`Telemetry` when it is
active, giving the per-phase evidence the paper's own evaluation is
built on (§3.2, §6.1) without plumbing arguments through every layer::

    from repro.observability import Telemetry

    telemetry = Telemetry()
    with telemetry.activate():
        result = run_experiment(small_internet())
    print(telemetry.timing_tree())
    telemetry.metrics.value("ospf.spf_runs")
    telemetry.write_trace("run.jsonl")

``run_experiment`` creates (or adopts) a telemetry automatically and
returns it on ``ExperimentResult.telemetry``.
"""

from repro.observability.events import (
    DEBUG,
    ERROR,
    INFO,
    WARNING,
    EventLog,
    LogEvent,
)
from repro.observability.export import (
    chrome_trace,
    read_jsonl,
    timing_tree,
    trace_records,
    write_chrome_trace,
    write_jsonl,
)
from repro.observability.metrics import Histogram, MetricsRegistry
from repro.observability.profiling import (
    ProfileReport,
    Profiler,
    format_span_table,
    span_hotspots,
)
from repro.observability.telemetry import (
    Telemetry,
    current_span,
    current_telemetry,
    gauge_set,
    log_event,
    metric_inc,
    metric_observe,
    span,
)
from repro.observability.tracer import NULL_SPAN, Span, Tracer

__all__ = [
    "DEBUG",
    "ERROR",
    "EventLog",
    "Histogram",
    "INFO",
    "LogEvent",
    "MetricsRegistry",
    "NULL_SPAN",
    "ProfileReport",
    "Profiler",
    "Span",
    "Telemetry",
    "Tracer",
    "WARNING",
    "chrome_trace",
    "format_span_table",
    "span_hotspots",
    "current_span",
    "current_telemetry",
    "gauge_set",
    "log_event",
    "metric_inc",
    "metric_observe",
    "read_jsonl",
    "span",
    "timing_tree",
    "trace_records",
    "write_chrome_trace",
    "write_jsonl",
]
