"""E3 — the European NREN interconnect model (§3.2).

Paper (2013 laptop): the 42-AS / 1158-router / 1470-link model took
15 s to load and build the topologies, 27 s to compile, 2 min to render
(20 MB of configurations, 16,144 items); the bottleneck is file-system
writes.

This harness regenerates those three phases over a scale sweep and — at
full scale (default here; set REPRO_FULL_SCALE=0 to skip) — reports the
same rows.  Absolute numbers differ (different hardware, Python, and a
leaner substrate); the shape to check is phase ordering
(render > compile >= load) and roughly-linear growth.
"""

import os
import tempfile
import time

import pytest

from repro.compilers import platform_compiler
from repro.design import design_network
from repro.engine import BuildEngine
from repro.loader import european_nren_model
from repro.render import render_nidb

from _util import record, update_pipeline_record


def _phases(scale):
    started = time.perf_counter()
    graph = european_nren_model(scale=scale)
    anm = design_network(graph)
    load_build = time.perf_counter() - started

    started = time.perf_counter()
    nidb = platform_compiler("netkit", anm).compile()
    compile_time = time.perf_counter() - started

    started = time.perf_counter()
    result = render_nidb(nidb, tempfile.mkdtemp(prefix="nren_"))
    render_time = time.perf_counter() - started
    return {
        "scale": scale,
        "routers": graph.number_of_nodes(),
        "links": graph.number_of_edges(),
        "load_build": load_build,
        "compile": compile_time,
        "render": render_time,
        "files": result.n_files,
        "bytes": result.total_bytes,
    }


def test_nren_scale_sweep(benchmark):
    scales = [0.05, 0.1, 0.25]
    if os.environ.get("REPRO_FULL_SCALE", "1") not in ("", "0", "false"):
        scales.append(1.0)
    rows = [_phases(scale) for scale in scales[:-1]]
    rows.append(benchmark.pedantic(lambda: _phases(scales[-1]), rounds=1, iterations=1))

    lines = [
        "scale  routers  links  load+build  compile   render    files   bytes",
    ]
    for row in rows:
        lines.append(
            "%5.2f  %7d  %5d  %9.2fs  %7.2fs  %7.2fs  %6d  %8d"
            % (
                row["scale"],
                row["routers"],
                row["links"],
                row["load_build"],
                row["compile"],
                row["render"],
                row["files"],
                row["bytes"],
            )
        )
    lines += [
        "paper @1.0: 42 ASes / 1158 routers / 1470 links ->",
        "  load+build 15s, compile 27s, render 2min, 20MB / 16,144 items",
        "  (2013 laptop; shape check: render dominates, growth ~linear)",
    ]
    record("E3_nren_scale", lines)

    full = rows[-1]
    if full["scale"] == 1.0:
        assert full["routers"] == 1158 and full["links"] == 1470
    # Shape: render is the most expensive phase, as the paper reports.
    assert full["render"] >= full["compile"] * 0.5
    # Roughly linear growth: 5x scale must not cost more than ~25x time.
    small, mid = rows[0], rows[1]
    assert mid["render"] < 25 * max(small["render"], 1e-3)


def test_nren_design_phase(benchmark):
    """The load+build phase alone, at benchmarkable scale."""
    graph = european_nren_model(scale=0.1)
    anm = benchmark(design_network, graph)
    assert anm["ibgp"].number_of_edges() > 0


def _corpus(root):
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


def test_nren_engine_serial_parallel_warm():
    """The build engine on the NREN model: serial vs parallel vs warm cache.

    The paper's §3.2 bottleneck is the render phase (2 of the ~3 total
    minutes); this measures how far the engine's thread fan-out and the
    content-addressed cache push it down, and checks both stay
    byte-identical to the serial baseline.
    """
    scale = 1.0 if os.environ.get("REPRO_FULL_SCALE", "1") not in ("", "0", "false") else 0.1
    graph = european_nren_model(scale=scale)
    jobs = os.cpu_count() or 1

    serial_dir = tempfile.mkdtemp(prefix="nren_serial_")
    serial_engine = BuildEngine(jobs=1)
    started = time.perf_counter()
    serial_report = serial_engine.build(graph, output_dir=serial_dir)
    serial_seconds = time.perf_counter() - started

    parallel_dir = tempfile.mkdtemp(prefix="nren_parallel_")
    parallel_engine = BuildEngine(jobs=jobs)
    started = time.perf_counter()
    parallel_report = parallel_engine.build(graph, output_dir=parallel_dir)
    parallel_seconds = time.perf_counter() - started
    assert _corpus(parallel_dir) == _corpus(serial_dir)

    started = time.perf_counter()
    warm_report = parallel_engine.build(graph, output_dir=parallel_dir)
    warm_seconds = time.perf_counter() - started
    assert warm_report.cache_hits == warm_report.devices_total
    assert not warm_report.rendered_devices
    assert _corpus(parallel_dir) == _corpus(serial_dir)
    parallel_engine.shutdown()

    rows = {
        "scale": scale,
        "routers": graph.number_of_nodes(),
        "jobs": jobs,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "warm_cache_seconds": warm_seconds,
        "devices": serial_report.devices_total,
        "files": serial_report.files_written,
        "warm_cache_hits": warm_report.cache_hits,
        "warm_rendered_devices": len(warm_report.rendered_devices),
    }
    record(
        "E3_nren_engine",
        [
            "NREN build engine @%.2f scale (%d routers, %d jobs):"
            % (scale, rows["routers"], jobs),
            "  serial     %7.2fs  (%d devices, %d files)"
            % (serial_seconds, rows["devices"], rows["files"]),
            "  parallel   %7.2fs  (byte-identical to serial)" % parallel_seconds,
            "  warm cache %7.2fs  (%d hits, 0 re-rendered)"
            % (warm_seconds, warm_report.cache_hits),
        ],
    )
    update_pipeline_record(engine=rows)
    assert parallel_report.devices_total == serial_report.devices_total
