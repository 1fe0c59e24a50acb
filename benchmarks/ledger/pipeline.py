"""The cold path, once through the entry point and once layer by layer.

Shared by the cold workloads and by ``nren_operate``, whose base lab is
the same pipeline at 290 routers.
"""

from __future__ import annotations

import os

import networkx as nx

from repro.compilers import platform_compiler
from repro.deployment import LocalEmulationHost
from repro.deployment.deploy import archive_lab
from repro.design import DEFAULT_RULES, DESIGN_RULES, build_anm
from repro.emulation.bgp_engine import BgpSimulation
from repro.emulation.network import EmulatedNetwork
from repro.emulation.ospf_engine import IgpState
from repro.emulation.parsing import LAB_PARSERS
from repro.emulation.whatif import reachability_matrix
from repro.loader import fig5_topology
from repro.measurement import validate_bgp_sessions, validate_ospf
from repro.render import render_nidb
from repro.workflow import load_topology, run_experiment

from benchmarks.ledger import oracle
from benchmarks.ledger.harness import tree_bytes

PLATFORM = "netkit"

#: Product counters (read from the Telemetry run_experiment creates by
#: itself) behind the machine-independent emulation metrics.
PRODUCT_COUNTERS = {
    "emulation.spf_runs": "ospf.spf_runs",
    "emulation.spf_cache_hits": "ospf.spf_cache_hits",
    "emulation.bgp_rounds": "bgp.rounds",
    "emulation.bgp_messages": "bgp.messages",
    "emulation.routes_interned": "bgp.routes_interned",
}


def write_topology(ctx, graph: nx.Graph, label: str) -> str:
    """The program only ever sees generated inputs: a GraphML file."""
    directory = ctx.scratch(label)
    os.makedirs(directory)
    path = os.path.join(directory, "topology.graphml")
    nx.write_graphml(graph, path)
    return path


def warm_up(ctx) -> None:
    """Fill lazy caches (templates, parsers) before anything is timed."""
    run_experiment(fig5_topology(), output_dir=ctx.scratch("warmup"))


def entry_pass(ctx, source, rules=DEFAULT_RULES):
    """One ``run_experiment`` call into a fresh directory: topology in, lab out."""
    return run_experiment(
        source, platform=PLATFORM, rules=rules, jobs=1, output_dir=ctx.scratch("entry")
    )


def measure(ctx, result, all_reachable: bool, call=None) -> None:
    """The paper's measured-equals-designed step (7.2) on a fresh lab.

    ``call(name, function, *args)`` is ``Spans.call`` in a traced run.
    """
    call = call or (lambda _name, function, *args: function(*args))
    lab, nidb = result.lab, result.nidb
    ctx.op(lab.converged, what="lab did not converge: %r" % lab)
    oracle.check_validation(
        ctx, call("measurement.validate_ospf", validate_ospf, lab, nidb, result.anm["ospf"])
    )
    oracle.check_validation(
        ctx, call("measurement.validate_bgp", validate_bgp_sessions, lab, nidb)
    )
    sample = oracle.reachability_sample(ctx, lab)
    oracle.check_reachability(
        ctx, lab, call("measurement.reachability", reachability_matrix, lab, sample),
        all_reachable,
    )


def entry_metrics(result, spans) -> dict:
    """What the traced entry-point pass and its measure step contribute."""
    counters = result.telemetry.metrics
    metrics = {name: int(counters.value(product)) for name, product in PRODUCT_COUNTERS.items()}
    metrics["observability.spans"] = len(result.telemetry.tracer)
    metrics["entry_s"] = spans.total("entry.run_experiment")
    metrics["measurement.validate_ospf_s"] = spans.total("measurement.validate_ospf")
    metrics["measurement.validate_bgp_s"] = spans.total("measurement.validate_bgp")
    return metrics


def bare_pass(ctx, spans, source, rules=DEFAULT_RULES) -> dict:
    """Every layer called by hand under one ``pipeline`` span, no Telemetry active.

    The boot is taken apart into its public stages (parse, fabric, IGP,
    BGP) rather than going through ``host.lstart``.
    """
    metrics = {}
    with spans.span("pipeline") as root:
        graph = spans.call("loader.load", load_topology, source)
        anm = spans.call("design.build_anm", build_anm, graph)
        for rule in rules:
            spans.call("design.%s" % rule, DESIGN_RULES[rule], anm)
        nidb = spans.call(
            "compilers.compile", lambda: platform_compiler(PLATFORM, anm).compile()
        )
        rendered = spans.call("render.render", render_nidb, nidb, ctx.scratch("render"))
        archive_dir = ctx.scratch("archive")
        os.makedirs(archive_dir)
        archive = spans.call(
            "deployment.archive", archive_lab, rendered.lab_dir, "lab", archive_dir
        )
        host = LocalEmulationHost(ctx.scratch("host"))
        remote = spans.call("deployment.transfer", host.receive, archive, "lab")
        lab_dir = spans.call("deployment.extract", host.extract, remote, "lab")
        intent = spans.call("emulation.parse", LAB_PARSERS[PLATFORM], lab_dir, jobs=1)
        network = spans.call("emulation.fabric", EmulatedNetwork, intent)
        igp = spans.call("emulation.igp", IgpState, network)
        spans.call(
            "emulation.bgp",
            lambda: BgpSimulation(network, igp, keep_history=False).run(max_rounds=64),
        )

    children = [record for record in spans.records if record["parent"] == root["id"]]
    for record in children:
        metrics[record["name"] + "_s"] = record["end"] - record["start"]
    metrics["emulation.boot_s"] = sum(
        metrics["emulation.%s_s" % stage] for stage in ("parse", "fabric", "igp", "bgp")
    )
    # not per-layer metrics: the share of the bare pipeline the named spans cover
    metrics["pipeline_s"] = root["end"] - root["start"]
    metrics["attributed_s"] = sum(record["end"] - record["start"] for record in children)

    metrics["loader.nodes"] = graph.number_of_nodes()
    metrics["loader.edges"] = graph.number_of_edges()
    metrics["design.ibgp_edges"] = anm["ibgp"].number_of_edges()
    metrics["design.overlay_edges"] = sum(
        anm[overlay].number_of_edges() for overlay in anm.overlays()
    )
    metrics["compilers.devices"] = len(nidb)
    metrics["compilers.us_per_device"] = metrics["compilers.compile_s"] * 1e6 / len(nidb)
    files, size = tree_bytes(rendered.lab_dir)
    metrics["render.files"] = files
    metrics["render.bytes"] = size
    metrics["render.mb_per_s"] = size / 1e6 / metrics["render.render_s"]
    metrics["deployment.archive_bytes"] = os.path.getsize(archive)
    metrics["emulation.configs_parsed"] = len(intent.devices)
    return metrics


def overhead(metrics: dict) -> float:
    """observability.overhead_s: the entry-point pass minus the bare pass."""
    return metrics["entry_s"] - metrics["pipeline_s"]
