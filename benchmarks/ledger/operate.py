"""``nren_operate``: a seeded operator session on a running 290-router lab.

The session writes where the cold workloads read: it keeps one lab, one
build engine and one artifact cache alive and measures what is done to
them afterwards.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from repro.emulation import EmulatedLab
from repro.engine import BuildEngine, incremental_update
from repro.liveupdate import (
    apply_edits,
    apply_plan,
    diff_designs,
    parse_edits,
    verify_equivalence,
)
from repro.loader import european_nren_model, small_internet
from repro.measurement import IpMapper, MeasurementClient, parse_traceroute
from repro.observability import Telemetry
from repro.traffic import TrafficProfile, run_traffic
from repro.workflow import load_topology, run_experiment

from benchmarks.ledger import REPO_ROOT, oracle
from benchmarks.ledger.harness import Stopwatch, clock
from benchmarks.ledger.pipeline import (
    PLATFORM,
    bare_pass,
    entry_metrics,
    entry_pass,
    measure,
    overhead,
    warm_up,
    write_topology,
)

SCALE = {"paper": 0.25, "smoke": 0.02}
TRAFFIC_PROFILE = os.path.join(REPO_ROOT, "examples", "traffic_ramp.json")
#: Share of the profile's rates offered: 469 600 flows at "paper".
TRAFFIC_SCALE = {"paper": 0.5, "smoke": 0.002}
#: Link capacity at which the scaled profile loses nothing.
UNSATURATED_MBPS = 100000.0

# Loop counts for NOMINAL_SECONDS (ctx.reps scales them).
FANOUTS = 10
FAULT_CYCLES = 10
PLANS = 2
APPLY_PAIRS = 5
REBUILDS = 4


def setup(ctx) -> dict:
    path = write_topology(ctx, european_nren_model(scale=SCALE[ctx.size]), "input")
    warm_up(ctx)
    graph = load_topology(path)
    intra = sorted(
        tuple(sorted(edge)) for edge in graph.edges()
        if graph.nodes[edge[0]].get("asn") == graph.nodes[edge[1]].get("asn")
    )
    left, right = ctx.rng("edit").choice(intra)
    cost = int(graph.edges[left, right].get("ospf_cost") or 1) + 7
    edit = parse_edits([{"kind": "cost", "link": [left, right], "value": cost}])
    fault_rng = ctx.rng("faults")
    profile = TrafficProfile.load(TRAFFIC_PROFILE).scaled(TRAFFIC_SCALE[ctx.size])
    return {
        "path": path,
        "graph": graph,
        "edited": apply_edits(graph, edit),
        "faults": [fault_rng.choice(intra) for _ in range(ctx.reps(FAULT_CYCLES))],
        "saturated": profile,
        "unsaturated": replace(profile, default_capacity_mbps=UNSATURATED_MBPS),
    }


class Session:
    """The operations of the session, shared by the plain and the traced run.

    ``call(name, function, *args)`` runs one public call; the plain run
    times it with a clock, the traced run wraps it in a span.
    """

    def __init__(self, ctx, state, call):
        self.ctx, self.state, self.call = ctx, state, call
        self.result = None

    def bring_up(self):
        self.result = self.call("entry.run_experiment", entry_pass, self.ctx, self.state["path"])
        self.lab, self.nidb = self.result.lab, self.result.nidb
        self.routers = sorted(self.lab.network.machines)
        self.ctx.op(self.lab.converged, what="base lab did not converge")

    def traceroute_command(self, rng) -> str:
        target = self.lab.network.device(rng.choice(self.routers)).loopback
        return "traceroute -naU %s" % target

    def fanouts(self):
        client = MeasurementClient(self.lab, self.nidb)
        rng = self.ctx.rng("fanout")
        for _ in range(self.ctx.reps(FANOUTS)):
            run = self.call(
                "measurement.fanout", client.send, self.traceroute_command(rng), self.routers
            )
            answered = sum(1 for result in run.results if result.ok and result.parsed)
            self.ctx.op(
                answered == len(self.routers),
                what="fan-out answered on %d of %d routers" % (answered, len(self.routers)),
            )

    def fault_cycles(self):
        for left, right in self.state["faults"]:
            with_cycle = self.call("emulation.fault_cycle", self.fault_cycle, left, right)
            self.ctx.op(with_cycle, what="lab did not reconverge after %s-%s" % (left, right))

    def fault_cycle(self, left, right) -> bool:
        down = self.call("emulation.link_down", self.lab.link_down, left, right)
        up = self.call("emulation.link_up", self.lab.link_up, left, right)
        return down.status == "converged" and up.status == "converged"

    def plans(self):
        delta = None
        for _ in range(self.ctx.reps(PLANS)):
            delta = self.call(
                "liveupdate.diff_designs", diff_designs,
                self.state["graph"], self.state["edited"], PLATFORM,
                work_dir=self.ctx.scratch("plan"),
            )
            self.ctx.op(not delta.plan.is_empty, what="one-link cost edit gave an empty plan")
        return delta

    def applies(self, plan):
        """Plan and inverse alternate, so the lab ends where it began."""
        inverse = plan.inverse()
        for _ in range(self.ctx.reps(APPLY_PAIRS)):
            for name, step in (("liveupdate.apply", plan), ("liveupdate.rollback", inverse)):
                report = self.call(name, apply_plan, self.lab, step)
                self.ctx.op(
                    report.applied == len(step) and report.convergence["status"] == "converged",
                    what="%s applied %d of %d ops" % (name, report.applied, len(step)),
                )

    def rebuilds(self):
        engine = BuildEngine(
            platform=PLATFORM, jobs=1,
            output_dir=self.ctx.scratch("engine"), cache_dir=self.ctx.scratch("cache"),
        )
        try:
            reports = [self.call("engine.cold_build", engine.build, self.state["graph"])]
            reports.append(self.call("engine.warm_build", engine.build, self.state["graph"]))
            for index in range(self.ctx.reps(REBUILDS)):
                source = self.state["graph" if index % 2 else "edited"]
                reports.append(self.call("engine.incremental", incremental_update, engine, source))
        finally:
            engine.shutdown()
        self.ctx.op(all(report.ok for report in reports), count=len(reports),
                    what="a build engine task failed")
        return reports

    def traffic(self):
        reports = {}
        for phase in ("unsaturated", "saturated"):
            reports[phase] = self.call(
                "traffic.%s" % phase, run_traffic, self.lab, self.state[phase], seed=self.ctx.seed
            )
        loss = reports["unsaturated"].loss_rate
        self.ctx.op(loss == 0, what="unsaturated traffic lost %.6f of its flows" % loss)
        self.ctx.op(reports["saturated"].offered_flows == reports["unsaturated"].offered_flows,
                    what="the two traffic phases offered different flows")
        return reports

    def check_state(self):
        """After faults, applies and traffic the live lab must equal a fresh boot."""
        rendered = self.result.render_result.lab_dir
        oracle.record_digests(self.ctx, rendered, self.lab)
        fresh, _entries = oracle.state_digest(EmulatedLab.boot(rendered, jobs=1))
        self.ctx.op(
            fresh == self.ctx.digests["state_digest"],
            what="live lab state differs from a fresh boot of the same tree",
        )


def run(ctx, state) -> dict:
    watch = Stopwatch()
    seconds = watch.seconds
    started = clock()
    session = Session(ctx, state, watch.call)
    session.bring_up()
    session.fanouts()
    session.fault_cycles()
    delta = session.plans()
    session.applies(delta.plan)
    session.rebuilds()
    reports = session.traffic()
    session_s = clock() - started
    session.check_state()

    applies = seconds["liveupdate.apply"] + seconds["liveupdate.rollback"]
    offered = reports["unsaturated"].offered_flows
    return {
        "time_to_lab_s": ctx.note("time_to_lab_s", seconds["entry.run_experiment"]),
        "session_s": session_s,
        "measure_fanout_ms": ctx.note("measure_fanout_ms", seconds["measurement.fanout"]) * 1e3,
        "fault_cycle_ms": ctx.note("fault_cycle_ms", seconds["emulation.fault_cycle"]) * 1e3,
        "plan_s": ctx.note("plan_s", seconds["liveupdate.diff_designs"]),
        "apply_ms": ctx.note("apply_ms", applies) * 1e3,
        "rebuild_s": ctx.note("rebuild_s", seconds["engine.incremental"]),
        "traffic_flows_per_s": offered / seconds["traffic.unsaturated"][0],
        "traffic_sat_flows_per_s": offered / seconds["traffic.saturated"][0],
    }


def trace(ctx, state, spans) -> dict:
    session = Session(ctx, state, spans.call)
    session.bring_up()
    lab, nidb = session.lab, session.nidb
    measure(ctx, session.result, True, spans.call)
    metrics = entry_metrics(session.result, spans)

    # measurement: one traceroute taken apart, then whole fan-outs
    mapper = IpMapper(nidb)
    command = session.traceroute_command(ctx.rng("probe"))
    for router in session.routers[: 8 * ctx.reps(FANOUTS)]:
        output = spans.call("measurement.vm_run", lab.run, router, command)
        rows = spans.call("measurement.parse", parse_traceroute, output)
        addresses = [row["ADDRESS"] for row in rows if row.get("ADDRESS")]
        spans.call("measurement.map", mapper.map_path, addresses)
    failed_before = ctx.failed
    session.fanouts()
    metrics["measurement.failures"] = ctx.failed - failed_before
    for name in ("vm_run", "parse", "map"):
        metrics["measurement.%s_us" % name] = spans.median("measurement." + name) * 1e6

    # emulation: faults under a Telemetry of the benchmark's own, for the counters only
    telemetry = Telemetry()
    with telemetry.activate():
        session.fault_cycles()
    faults = 2 * len(state["faults"])
    metrics["emulation.bgp_messages_per_fault"] = telemetry.metrics.value("bgp.messages") / faults
    metrics["emulation.spf_runs_per_fault"] = telemetry.metrics.value("ospf.spf_runs") / faults
    metrics["emulation.link_down_ms"] = spans.median("emulation.link_down") * 1e3
    metrics["emulation.link_up_ms"] = spans.median("emulation.link_up") * 1e3
    spans.call("emulation.fork", lab.fork)
    metrics["emulation.fork_s"] = spans.total("emulation.fork")

    # liveupdate
    delta = session.plans()
    session.applies(delta.plan)
    metrics["liveupdate.plan_ops"] = len(delta.plan)
    metrics["liveupdate.devices_touched"] = len(delta.plan.devices())
    metrics["liveupdate.apply_ms"] = spans.median("liveupdate.apply") * 1e3
    metrics["liveupdate.rollback_ms"] = spans.median("liveupdate.rollback") * 1e3
    spans.call("liveupdate.reboot", EmulatedLab.boot, delta.new_dir, jobs=1)
    metrics["liveupdate.reboot_s"] = spans.total("liveupdate.reboot")
    small = [
        run_experiment(small_internet(), output_dir=ctx.scratch("verify")).lab for _ in range(2)
    ]
    ctx.op(spans.call("liveupdate.verify", verify_equivalence, *small).ok,
           what="two boots of small_internet are not equivalent")
    metrics["liveupdate.verify_s"] = spans.total("liveupdate.verify")

    # nidb + engine
    spans.call("nidb.hash", nidb.fingerprints)
    metrics["nidb.hash_s"] = spans.total("nidb.hash")
    metrics["nidb.hash_bytes"] = sum(
        len(json.dumps({"id": str(device.node_id), "state": device.to_dict()},
                       sort_keys=True, default=str, separators=(",", ":")))
        for device in nidb
    )
    reports = session.rebuilds()
    warm, incremental = reports[1], reports[2:]
    metrics["engine.warm_build_s"] = spans.total("engine.warm_build")
    metrics["engine.incremental_s"] = spans.median("engine.incremental")
    metrics["engine.cache_hits"] = sum(report.cache_hits for report in [warm] + incremental)
    metrics["engine.cache_misses"] = sum(report.cache_misses for report in [warm] + incremental)
    metrics["engine.rendered_devices"] = sum(len(r.rendered_devices) for r in incremental)
    written = sum(report.files_written for report in incremental)
    touched = written + sum(report.files_unchanged for report in incremental)
    metrics["engine.useful_ratio"] = written / touched if touched else 1.0

    # traffic
    reports = session.traffic()
    calm, busy = reports["unsaturated"], reports["saturated"]
    metrics["traffic.offered"] = calm.offered_flows
    metrics["traffic.delivered"] = calm.delivered_flows
    metrics["traffic.loss_rate"] = calm.loss_rate
    metrics["traffic.sat_loss_rate"] = busy.loss_rate
    metrics["traffic.run_s"] = spans.total("traffic.unsaturated")
    metrics["traffic.sat_run_s"] = spans.total("traffic.saturated")
    metrics["traffic.sim_web_p50_ms"] = calm.class_report("web").latency_ms()["p50"]
    metrics["traffic.sim_web_p99_ms"] = busy.class_report("web").latency_ms()["p99"]

    session.check_state()
    session.result = session.lab = session.nidb = lab = nidb = None
    metrics.update(bare_pass(ctx, spans, state["path"]))
    metrics["observability.overhead_s"] = overhead(metrics)
    return metrics
