"""``nren_cold`` and ``rpki_cold``: topology file in, verified lab out."""

from __future__ import annotations

from repro.design import DEFAULT_RULES
from repro.loader import european_nren_model, rpki_topology

from benchmarks.ledger import oracle
from benchmarks.ledger.harness import clock, timed
from benchmarks.ledger.pipeline import (
    bare_pass,
    entry_metrics,
    entry_pass,
    measure,
    overhead,
    warm_up,
    write_topology,
)

RPKI_RULES = ("phy", "ipv4", "ospf", "ebgp", "ibgp", "rpki")

#: The RPKI routers hang off a star of servers, which do not forward:
#: by design no router reaches another one's loopback.
ALL_REACHABLE = {"nren_cold": True, "rpki_cold": False}

#: workload -> size -> (topology generator, design rules)
INPUTS = {
    "nren_cold": {
        "paper": (lambda: european_nren_model(scale=1.0), DEFAULT_RULES),
        "smoke": (lambda: european_nren_model(scale=0.02), DEFAULT_RULES),
    },
    "rpki_cold": {
        "paper": (
            lambda: rpki_topology(n_child_cas=20, n_caches=400, n_routers=400),
            RPKI_RULES,
        ),
        "smoke": (
            lambda: rpki_topology(n_child_cas=2, n_caches=4, n_routers=4),
            RPKI_RULES,
        ),
    },
}


def setup(ctx) -> dict:
    generate, rules = INPUTS[ctx.workload][ctx.size]
    path = write_topology(ctx, generate(), "input")
    warm_up(ctx)
    return {"path": path, "rules": rules}


def run(ctx, state) -> dict:
    started = clock()
    lab_seconds = []
    result = None
    for _ in range(ctx.reps(1)):
        result = None  # one lab in memory at a time
        result, seconds = timed(entry_pass, ctx, state["path"], state["rules"])
        lab_seconds.append(seconds)
    measure(ctx, result, ALL_REACHABLE[ctx.workload])
    session_s = clock() - started
    oracle.record_digests(ctx, result.render_result.lab_dir, result.lab)
    return {
        "time_to_lab_s": ctx.note("time_to_lab_s", lab_seconds),
        "session_s": session_s,
    }


def trace(ctx, state, spans) -> dict:
    result = spans.call("entry.run_experiment", entry_pass, ctx, state["path"], state["rules"])
    measure(ctx, result, ALL_REACHABLE[ctx.workload], spans.call)
    oracle.record_digests(ctx, result.render_result.lab_dir, result.lab)
    metrics = entry_metrics(result, spans)
    result = None  # one lab in memory at a time

    metrics.update(bare_pass(ctx, spans, state["path"], state["rules"]))
    metrics["observability.overhead_s"] = overhead(metrics)
    return metrics
