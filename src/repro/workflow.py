"""The end-to-end experiment workflow (§6, Figure 2).

One call takes an annotated input topology through the whole system —
design rules, compilation, rendering, deployment into the emulation
substrate — and returns handles to every intermediate artefact plus a
:class:`~repro.observability.Telemetry` of the run: a span tree with
one span per phase (and per-rule / per-device children recorded by the
layers themselves), the metrics registry, and the structured event log.
``ExperimentResult.timings`` stays as a derived per-phase view — the
quantities the §3.2 scale experiment reports: load/build, compile,
render — now measured uniformly from the phase spans.

For *matrices* of runs — the same experiment across platforms, rule
sets, or fault scenarios — :func:`run_campaign` (re-exported from
:mod:`repro.campaign`) drives a whole sharded, resumable campaign and
aggregates its results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import networkx as nx

from repro.anm import AbstractNetworkModel
from repro.compilers import platform_compiler
from repro.deployment import DeploymentRecord, LocalEmulationHost
from repro.deployment import deploy as deploy_lab
from repro.design import DEFAULT_RULES, apply_design, build_anm
from repro.emulation import EmulatedLab
from repro.exceptions import LoaderError
from repro.loader import load_gml, load_graphml, load_json
from repro.nidb import Nidb
from repro.observability import Telemetry, current_telemetry
from repro.render import RenderResult, render_nidb

# The campaign orchestrator builds *on* the single-experiment workflow;
# re-exported here so `from repro.workflow import run_campaign` mirrors
# `run_experiment` for callers scripting whole evaluation matrices.
from repro.campaign import CampaignResult, CampaignSpec, run_campaign  # noqa: E402

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "ExperimentResult",
    "TOPOLOGY_LOADERS",
    "load_topology",
    "run_campaign",
    "run_experiment",
]


@dataclass
class ExperimentResult:
    """Every artefact of one experiment run."""

    anm: AbstractNetworkModel
    nidb: Nidb
    render_result: RenderResult
    deployment: Optional[DeploymentRecord] = None
    timings: dict = field(default_factory=dict)
    telemetry: Optional[Telemetry] = None
    #: TrafficReport when the run offered a traffic profile, else None.
    traffic: Optional[object] = None

    @property
    def lab(self) -> Optional[EmulatedLab]:
        return self.deployment.lab if self.deployment else None

    def timing_summary(self) -> str:
        return ", ".join(
            "%s %.2fs" % (phase, seconds) for phase, seconds in self.timings.items()
        )

    def timing_tree(self) -> str:
        """The full span hierarchy of the run, human formatted."""
        return self.telemetry.timing_tree() if self.telemetry else ""


#: File extensions ``load_topology`` understands, mapped to loaders.
TOPOLOGY_LOADERS = {
    ".graphml": load_graphml,
    ".gml": load_gml,
    ".json": load_json,
}


def load_topology(source) -> nx.Graph:
    """Accept a graph object or a GraphML/GML/JSON path.

    Extension matching is case-insensitive — ``TOPO.GraphML`` and
    ``topo.graphml`` load the same way.
    """
    if isinstance(source, nx.Graph):
        return source
    path = str(source)
    for extension, load in TOPOLOGY_LOADERS.items():
        if path.lower().endswith(extension):
            return load(path)
    raise LoaderError(
        "unsupported topology format %r: expected one of %s"
        % (path, ", ".join(sorted(TOPOLOGY_LOADERS)))
    )


def run_experiment(
    source,
    platform: str = "netkit",
    rules: Iterable[str] = DEFAULT_RULES,
    output_dir: Optional[str] = None,
    host: Optional[LocalEmulationHost] = None,
    deploy: bool = True,
    lab_name: str = "lab",
    max_rounds: int = 64,
    telemetry: Optional[Telemetry] = None,
    engine=None,
    strict: bool = True,
    retry_policy=None,
    jobs: int = 1,
    traffic_profile=None,
    traffic_seed: int = 0,
    traffic_schedule=None,
) -> ExperimentResult:
    """Input topology in, measured-ready emulated network out.

    All phases are timed the same way — one span per phase on the run's
    telemetry (an explicit argument, the ambient active one, or a fresh
    bundle) — so the phase durations sum to the experiment total.

    Passing a :class:`repro.engine.BuildEngine` routes the
    load/compile/render phases through the engine's task DAG — parallel
    executors and the content-addressed artifact cache — instead of the
    straight-line path; the engine's own platform and rules settings
    take precedence, and the phase spans (and therefore ``timings``)
    keep the same names either way.

    ``strict=False`` boots the lab with failed-parse devices
    quarantined instead of aborting, and ``retry_policy`` retries
    transient host errors during deployment.  ``jobs`` fans config
    parsing and per-VM bring-up over the engine executors; every width
    boots an identical lab.

    ``traffic_profile`` (a :class:`repro.traffic.TrafficProfile`, dict,
    JSON text, or file path) additionally offers that workload to the
    deployed lab and stores the :class:`repro.traffic.TrafficReport` on
    ``result.traffic``; ``traffic_schedule`` injects a FaultSchedule on
    the traffic clock mid-run.  Link capacity/delay attributes from the
    design layer's physical overlay shape the traffic link model.
    """
    import tempfile

    telemetry = telemetry or current_telemetry() or Telemetry()

    with telemetry.activate():
        with telemetry.span(
            "experiment", platform=platform, lab_name=lab_name
        ) as experiment_span:
            output_dir = output_dir or tempfile.mkdtemp(prefix="rendered_")
            if engine is not None:
                report = engine.build(
                    source, output_dir=output_dir, telemetry=telemetry
                )
                anm, nidb = engine.anm, engine.nidb
                render_result = report.render_result
            else:
                with telemetry.span("load_build"):
                    graph = load_topology(source)
                    anm = build_anm(graph)
                    apply_design(anm, rules)

                with telemetry.span("compile", platform=platform):
                    nidb = platform_compiler(platform, anm).compile()

                with telemetry.span("render"):
                    render_result = render_nidb(nidb, output_dir)

            deployment = None
            traffic_report = None
            if deploy:
                from repro.resilience import NO_RETRY

                with telemetry.span("deploy", lab_name=lab_name):
                    deployment = deploy_lab(
                        render_result.lab_dir,
                        host=host,
                        lab_name=lab_name,
                        max_rounds=max_rounds,
                        strict=strict,
                        retry_policy=retry_policy or NO_RETRY,
                        jobs=jobs,
                    )
                if traffic_profile is not None:
                    from repro.traffic import (
                        coerce_profile,
                        link_overrides_from_anm,
                        run_traffic,
                    )

                    with telemetry.span("traffic"):
                        traffic_report = run_traffic(
                            deployment.lab,
                            coerce_profile(traffic_profile),
                            seed=traffic_seed,
                            schedule=traffic_schedule,
                            link_overrides=link_overrides_from_anm(anm),
                        )

    timings = {phase.name: phase.duration for phase in experiment_span.children}
    return ExperimentResult(
        anm=anm,
        nidb=nidb,
        render_result=render_result,
        deployment=deployment,
        timings=timings,
        telemetry=telemetry,
        traffic=traffic_report,
    )
