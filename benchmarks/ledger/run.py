"""One measured run of one workload: set up, measure, check, print."""

from __future__ import annotations

import json
import logging
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

from benchmarks.ledger import OUT_DIR, oracle
from benchmarks.ledger.harness import Context, Spans, clock, median, timed
from benchmarks.ledger.spec import (
    END_TO_END,
    PER_LAYER,
    SESSION,
    SETUP_REPEATS,
    WORKLOADS,
    units,
)


#: Below this much free disk a run first removes old work directories,
#: oldest first, for at most PURGE_SECONDS (8 GB take 140 s to delete).
MIN_FREE_BYTES = 2 << 30
PURGE_SECONDS = 30


def _modules() -> dict:
    """Workload name -> module; importing them imports the program."""
    from benchmarks.ledger import campaign, cold, operate

    return {
        "nren_cold": cold,
        "rpki_cold": cold,
        "nren_operate": operate,
        "campaign_service": campaign,
    }


def _traced(ctx, state, modules) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and which of them are this workload's own.

    The workload is repeated layer by layer at its own size.  The layers
    it never touches are filled from smoke-size traced runs of the other
    workloads, so that every per-layer metric is a measurement.
    """
    merged = {}
    for other in WORKLOADS:
        if other == ctx.workload:
            continue
        filler = Context(other, ctx.seed, ctx.seconds, "smoke", ctx.work_dir)
        module = modules[other]
        merged.update(module.trace(filler, module.setup(filler), Spans()))
        ctx.op(
            filler.failed == 0, count=filler.attempted,
            what="filler %s: %s" % (other, "; ".join(filler.problems)),
        )
    spans = Spans()
    native = modules[ctx.workload].trace(ctx, state, spans)
    merged.update(native)
    spans.write(os.path.join(OUT_DIR, "%s.trace.jsonl" % ctx.workload))
    return merged, native


def _fresh_work_dir(workload: str) -> str:
    """A new scratch directory under out/work/, which runs never clean up.

    Deleting a run's ~20 000 files makes the next runs slower: ext4 does
    not hand out an inode freed in the last minutes, and skips over each
    such inode on every allocation, so file creation after a mass delete
    was measured 10x slower (render 1.1 s -> 4.3 s on nren_cold).  A
    run therefore leaves its trees behind (60-100 MB; out/ is
    git-ignored).  Only when the disk runs low are the oldest ones
    removed, for a bounded time, at the price of a few disturbed runs.
    """
    root = os.path.join(OUT_DIR, "work")
    os.makedirs(root, exist_ok=True)
    if shutil.disk_usage(root).free < MIN_FREE_BYTES:
        deadline = time.monotonic() + PURGE_SECONDS
        kept = sorted((os.path.join(root, name) for name in os.listdir(root)), key=os.path.getmtime)
        for path in kept:
            shutil.rmtree(path, ignore_errors=True)
            if time.monotonic() > deadline:
                break
    work_dir = os.path.join(root, "%s-%d-%d" % (workload, int(time.time()), os.getpid()))
    os.makedirs(os.path.join(work_dir, "tmp"))
    return work_dir


def run_workload(arguments, process_started: float) -> int:
    modules = _modules()
    import_s = clock() - process_started
    module = modules[arguments.workload]

    work_dir = _fresh_work_dir(arguments.workload)
    # the program's own mkdtemp calls must land inside the checkout too
    tempfile.tempdir = os.path.join(work_dir, "tmp")
    logging.getLogger("repro").setLevel(logging.ERROR)
    trace = bool(arguments.trace) or arguments.update_expected
    try:
        ctx = Context(
            arguments.workload, arguments.seed, arguments.seconds, arguments.size, work_dir
        )
        setup_seconds = []
        for _ in range(SETUP_REPEATS):
            state, seconds = timed(module.setup, ctx)
            setup_seconds.append(seconds)

        if trace:
            values, native = _traced(ctx, state, modules)
            reported = units(PER_LAYER)
            if arguments.update_expected:
                oracle.update_expected(ctx, native)
            oracle.check_expected(ctx, native)
        else:
            values = module.run(ctx, state)
            native = values
            values["setup_s"] = import_s + median(setup_seconds)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            reported = units(END_TO_END)
            oracle.check_expected(ctx)
    finally:
        tempfile.tempdir = None

    known = {**units(END_TO_END), **units(PER_LAYER), **units(SESSION.get(ctx.workload, ()))}
    ledger = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "size": ctx.size,
        "trace": int(trace),
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "problems": ctx.problems,
        "metrics": {
            name: {"value": value, "unit": known[name]}
            for name, value in sorted(values.items()) if name in known
        },
        "native": sorted(name for name in native if name in known),
        "samples": ctx.samples,
        "digests": ctx.digests,
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version()},
    }
    if "pipeline_s" in native:
        # the gap between the entry point and the layers called by hand, reported not hidden
        ledger["attribution"] = {
            "entry_s": native["entry_s"],
            "bare_pipeline_s": native["pipeline_s"],
            "in_named_spans_s": native["attributed_s"],
        }
        ledger["attributed_share"] = native["attributed_s"] / native["pipeline_s"]
    suffix = ".trace.json" if trace else ".json"
    with open(os.path.join(OUT_DIR, ctx.workload + suffix), "w") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for problem in ctx.problems:
        print("FAILED: %s" % problem, file=sys.stderr)
    print(json.dumps({"ledger": ledger}, sort_keys=True))
    print(json.dumps({
        "correct": ledger["correct"],
        "attempted": ledger["attempted"],
        "failed": ledger["failed"],
        "metrics": {name: ledger["metrics"][name] for name in reported},
    }))
    return 0
