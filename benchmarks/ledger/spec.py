"""Names, units, directions and bounds of everything the ledger reports.

``BENCHMARK.json`` at the repo root repeats the workloads, the
end-to-end metrics and the per-layer metrics for the driver;
``test_ledger.py`` fails when the two drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``--seconds`` the loop counts below are written for; another value
#: scales the repeatable loops, never a topology.
NOMINAL_SECONDS = 20

#: How often set-up is repeated in one run; ``setup_s`` is the median.
SETUP_REPEATS = 3

WORKLOADS = {
    "nren_cold": (
        "1158-router NREN (paper 3.2) through run_experiment: the routing-heavy "
        "cold path, dominated by BGP convergence, tar/untar of 7076 files and iBGP design"
    ),
    "rpki_cold": (
        "823-VM RPKI lab (paper 3.3): same layers, other mix - compile is a third of the "
        "run, 26 MB of configs, one-round full-mesh BGP; a compile or parser win shows here only"
    ),
    "nren_operate": (
        "seeded operator session on a running 290-router lab: fan-outs, fault cycles, "
        "plan/apply, incremental rebuilds, traffic - what a cold-boot shortcut that drops "
        "persistent state regresses"
    ),
    "campaign_service": (
        "192 tiny trials on 4 platforms through run_campaign, resume and the HTTP service: "
        "per-trial fixed cost dominates, SPF/BGP tuning should move nothing"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline median by which the metric may worsen;
    #: None for per-layer metrics, which carry no bound.
    bound: float | None = None
    #: For a per-layer metric: the end-to-end or session metric it should move.
    moves: str = ""


def _m(name, unit, better="lower", bound=None, moves=""):
    return Metric(name, unit, better, bound, moves)


#: Reported by every workload from the untraced run (BENCHMARK.json
#: ``end_to_end``).  ``time_to_lab_s`` is one topology-in to
#: converged-lab call through the workload's entry point
#: (``run_experiment``; the median trial of the cold campaign);
#: ``session_s`` is the wall-clock of the workload's whole seeded
#: operation list, lab bring-up and measurements included.
#:
#: The two timings carry the driver's widest bound, 25 %, not the 10 %
#: the issue asked for.  One 20-35 s pass per run is all the driver's
#: time cap allows; ten such runs on the 2-core sandbox spread by 3-8 %
#: of their median in a quiet hour and by up to 21 % when the host had
#: a slow few minutes, and the driver refuses a benchmark whose spread
#: exceeds its bound.
END_TO_END = (
    _m("setup_s", "s", bound=0.25),
    _m("time_to_lab_s", "s", bound=0.25),
    _m("session_s", "s", bound=0.25),
    _m("peak_rss_mb", "MiB", bound=0.10),
)

#: Medians of single operation kinds, from the untraced run, on the one
#: workload that performs them.  They are in the ledger files and in
#: ``--compare``; BENCHMARK.json cannot hold them because the driver
#: wants every end-to-end metric from every workload.
SESSION = {
    "nren_operate": (
        _m("measure_fanout_ms", "ms", bound=0.10),
        _m("fault_cycle_ms", "ms", bound=0.10),
        _m("plan_s", "s", bound=0.10),
        _m("apply_ms", "ms", bound=0.10),
        _m("rebuild_s", "s", bound=0.10),
        _m("traffic_flows_per_s", "flows/s", "higher", 0.10),
        _m("traffic_sat_flows_per_s", "flows/s", "higher", 0.10),
    ),
    "campaign_service": (
        _m("trials_per_s", "trials/s", "higher", 0.10),
        _m("service_trials_per_s", "trials/s", "higher", 0.10),
        _m("api_p50_ms", "ms", bound=0.10),
    ),
}

_COLD = "time_to_lab_s"

#: From the traced run only (BENCHMARK.json ``per_layer``); layer =
#: package name.  A workload that does not exercise a layer reports the
#: value a small filler run of the other workloads measured.
PER_LAYER = (
    _m("loader.load_s", "s", moves=_COLD),
    _m("loader.nodes", "count", "higher", moves=_COLD),
    _m("loader.edges", "count", "higher", moves=_COLD),
    _m("design.build_anm_s", "s", moves=_COLD),
    _m("design.phy_s", "s", moves=_COLD),
    _m("design.ipv4_s", "s", moves=_COLD),
    _m("design.ospf_s", "s", moves=_COLD),
    _m("design.ebgp_s", "s", moves=_COLD),
    _m("design.ibgp_s", "s", moves="time_to_lab_s, plan_s, rebuild_s"),
    _m("design.dns_s", "s", moves=_COLD),
    _m("design.rpki_s", "s", moves=_COLD),
    _m("design.ibgp_edges", "count", moves=_COLD),
    _m("design.overlay_edges", "count", moves=_COLD),
    _m("compilers.compile_s", "s", moves="time_to_lab_s (rpki_cold), trials_per_s"),
    _m("compilers.devices", "count", "higher", moves=_COLD),
    _m("compilers.us_per_device", "us", moves=_COLD),
    _m("nidb.hash_s", "s", moves="rebuild_s, trials_per_s"),
    _m("nidb.hash_bytes", "bytes", moves="rebuild_s"),
    _m("render.render_s", "s", moves="time_to_lab_s, rebuild_s"),
    _m("render.files", "count", moves=_COLD),
    _m("render.bytes", "bytes", moves=_COLD),
    _m("render.mb_per_s", "MB/s", "higher", moves=_COLD),
    _m("engine.warm_build_s", "s", moves="rebuild_s, trials_per_s"),
    _m("engine.incremental_s", "s", moves="rebuild_s"),
    _m("engine.cache_hits", "count", "higher", moves="rebuild_s, trials_per_s"),
    _m("engine.cache_misses", "count", moves="rebuild_s"),
    _m("engine.rendered_devices", "count", moves="rebuild_s"),
    _m("engine.useful_ratio", "ratio", "higher", moves="rebuild_s"),
    _m("deployment.archive_s", "s", moves=_COLD),
    _m("deployment.transfer_s", "s", moves=_COLD),
    _m("deployment.extract_s", "s", moves=_COLD),
    _m("deployment.archive_bytes", "bytes", moves=_COLD),
    _m("emulation.parse_s", "s", moves="time_to_lab_s (rpki_cold), plan_s"),
    _m("emulation.configs_parsed", "count", moves=_COLD),
    _m("emulation.fabric_s", "s", moves=_COLD),
    _m("emulation.igp_s", "s", moves=_COLD),
    _m("emulation.bgp_s", "s", moves=_COLD),
    _m("emulation.boot_s", "s", moves="time_to_lab_s, liveupdate.reboot_s"),
    _m("emulation.fork_s", "s", moves="session_s (nren_operate)"),
    _m("emulation.link_down_ms", "ms", moves="fault_cycle_ms"),
    _m("emulation.link_up_ms", "ms", moves="fault_cycle_ms"),
    _m("emulation.spf_runs", "count", moves=_COLD),
    _m("emulation.spf_cache_hits", "count", "higher", moves=_COLD),
    _m("emulation.bgp_rounds", "count", moves=_COLD),
    _m("emulation.bgp_messages", "count", moves=_COLD),
    _m("emulation.routes_interned", "count", moves=_COLD),
    _m("emulation.bgp_messages_per_fault", "count", moves="fault_cycle_ms, apply_ms"),
    _m("emulation.spf_runs_per_fault", "count", moves="fault_cycle_ms, apply_ms"),
    _m("measurement.vm_run_us", "us", moves="measure_fanout_ms"),
    _m("measurement.parse_us", "us", moves="measure_fanout_ms"),
    _m("measurement.map_us", "us", moves="measure_fanout_ms"),
    _m("measurement.validate_ospf_s", "s", moves="session_s (cold)"),
    _m("measurement.validate_bgp_s", "s", moves="session_s (cold)"),
    _m("measurement.failures", "count", moves="measure_fanout_ms"),
    _m("liveupdate.plan_ops", "count", moves="plan_s, apply_ms"),
    _m("liveupdate.devices_touched", "count", moves="apply_ms"),
    _m("liveupdate.apply_ms", "ms", moves="apply_ms"),
    _m("liveupdate.rollback_ms", "ms", moves="apply_ms"),
    _m("liveupdate.reboot_s", "s", moves="apply_ms"),
    _m("liveupdate.verify_s", "s", moves="plan_s"),
    _m("traffic.offered", "count", "higher", moves="traffic_flows_per_s"),
    _m("traffic.delivered", "count", "higher", moves="traffic_flows_per_s"),
    _m("traffic.loss_rate", "ratio", moves="traffic_flows_per_s"),
    _m("traffic.sat_loss_rate", "ratio", moves="traffic_sat_flows_per_s"),
    _m("traffic.run_s", "s", moves="traffic_flows_per_s"),
    _m("traffic.sat_run_s", "s", moves="traffic_sat_flows_per_s"),
    _m("traffic.sim_web_p50_ms", "ms", moves="traffic_flows_per_s"),
    _m("traffic.sim_web_p99_ms", "ms", moves="traffic_sat_flows_per_s"),
    _m("campaign.expand_s", "s", moves="trials_per_s"),
    _m("campaign.trial_ms_p50", "ms", moves="trials_per_s, service_trials_per_s"),
    _m("campaign.resume_s", "s", moves="session_s (campaign_service)"),
    _m("campaign.store_append_us", "us", moves="trials_per_s"),
    _m("campaign.cache_hits", "count", "higher", moves="trials_per_s"),
    _m("campaign.cache_misses", "count", moves="trials_per_s"),
    _m("supervision.journal_append_us", "us", moves="trials_per_s"),
    _m("supervision.open_intents", "count", moves="trials_per_s"),
    _m("service.submit_ms", "ms", moves="service_trials_per_s"),
    _m("service.index_lag_s", "s", moves="service_trials_per_s"),
    _m("service.api_job_ms_p50", "ms", moves="api_p50_ms"),
    _m("service.api_trials_ms_p50", "ms", moves="api_p50_ms"),
    _m("service.api_aggregate_ms_p50", "ms", moves="api_p50_ms"),
    _m("service.api_queue_ms_p50", "ms", moves="api_p50_ms"),
    _m("service.api_p99_ms", "ms", moves="api_p50_ms"),
    _m("observability.overhead_s", "s", moves=_COLD),
    _m("observability.spans", "count", moves=_COLD),
)

#: Counters (and digests) that must repeat exactly for one seed; pinned
#: in expected.json for the workload that measures them natively.
EXACT_COUNTERS = (
    "emulation.bgp_messages",
    "emulation.spf_runs",
    "emulation.bgp_rounds",
    "render.files",
    "render.bytes",
    "traffic.offered",
    "traffic.delivered",
    "campaign.cache_hits",
)


def repeats_exactly(metric: Metric) -> bool:
    """Whether two runs with one seed must report the identical value.

    Counts, sizes, ratios and simulated time do; wall-clock does not,
    nor does the gzip'd archive, whose tar headers carry mtimes.
    """
    if metric.name == "deployment.archive_bytes":
        return False
    return metric.unit in ("count", "bytes", "ratio") or metric.name.startswith("traffic.sim_")


def units(metrics) -> dict[str, str]:
    return {metric.name: metric.unit for metric in metrics}
