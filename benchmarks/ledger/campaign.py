"""``campaign_service``: 192 tiny trials offline, resumed, and through the service."""

from __future__ import annotations

import hashlib
import threading

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    TrialRecord,
    outcome_table,
    run_campaign,
)
from repro.service import CampaignService, ServiceClient, make_server
from repro.supervision import TrialJournal

from benchmarks.ledger.harness import Stopwatch, clock, median, percentile
from benchmarks.ledger.pipeline import warm_up

TOPOLOGIES = ("small_internet", "bad_gadget", "fig5")
PLATFORMS = ("netkit", "dynagen", "junosphere", "cbgp")
#: max_rounds overrides per (topology, platform) cell: 16 -> 192 trials.
VARIANTS = {"paper": 16, "smoke": 1}
API_READS = 1200
APPEND_SAMPLES = 50
POLL_S = 0.02
ROUTES = ("job", "trials", "aggregate", "queue")


def setup(ctx) -> dict:
    warm_up(ctx)
    first = 24 + ctx.rng("overrides").randrange(16)
    return {
        "spec": {
            "name": "ledger",
            "topologies": list(TOPOLOGIES),
            "platforms": list(PLATFORMS),
            "deploy": True,
            "overrides": [
                {"max_rounds": first + index} for index in range(VARIANTS[ctx.size])
            ],
        },
        "trials": len(TOPOLOGIES) * len(PLATFORMS) * VARIANTS[ctx.size],
    }


def _outcomes(rows) -> list[tuple]:
    return [
        (row["topology"], row["platform"], row["trials"], row["ok"], row["failed"],
         row["outcome"], row["rounds"])
        for row in rows
    ]


class Session:
    """The campaign operations, shared by the plain and the traced run."""

    def __init__(self, ctx, state, call):
        self.ctx, self.spec, self.trials, self.call = ctx, state["spec"], state["trials"], call
        self.store_dir = ctx.scratch("store")

    def offline(self):
        """Cold run into an empty directory, then the same call again to resume."""
        cold = self.call("campaign.run", run_campaign, self.spec, directory=self.store_dir, jobs=1)
        self.ctx.op(
            cold.executed == self.trials and cold.ok, count=self.trials,
            what="cold campaign: %s" % cold.summary(),
        )
        resumed = self.call(
            "campaign.resume", run_campaign, self.spec, directory=self.store_dir, jobs=1
        )
        self.ctx.op(
            resumed.executed == 0 and len(resumed.skipped) == self.trials,
            what="resume: %s" % resumed.summary(),
        )
        self.records = list(ResultStore(self.store_dir).latest().values())
        table = outcome_table(self.records)
        self.ctx.digests["outcome_digest"] = hashlib.sha256(
            repr(_outcomes(table)).encode()
        ).hexdigest()
        verdicts = {(row["topology"], row["platform"]): row["outcome"] for row in table}
        for platform in PLATFORMS:
            want = "converged" if platform == "netkit" else "oscillating"
            self.ctx.op(
                verdicts["bad_gadget", platform].startswith(want),
                what="bad_gadget on %s: %s (paper 7.2 wants %s)"
                % (platform, verdicts["bad_gadget", platform], want),
            )
        return cold

    def service(self) -> dict:
        """Submit over HTTP, wait until every trial is indexed, then read."""
        service = CampaignService(
            self.ctx.scratch("service"), workers=1, poll_interval_s=POLL_S
        )
        service.start()
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        client = ServiceClient(
            "http://127.0.0.1:%d" % server.server_address[1], client_name="ledger"
        )
        marks = {}
        try:
            job = self.call("service.submit", client.submit, self.spec)
            marks["acknowledged"] = clock()
            view = client.wait(job["id"], timeout=150, poll_s=POLL_S)
            marks["done"] = clock()
            view = client.wait_indexed(job["id"], self.trials, timeout=30, poll_s=POLL_S)
            marks["indexed"] = clock()
            self.ctx.op(
                view["state"] == "done" and view["counts"].get("ok") == self.trials,
                count=self.trials, what="service job ended %s %s" % (view["state"], view["counts"]),
            )
            reads = {
                "job": lambda: client.job(job["id"]),
                "trials": lambda: client.trials(job["id"]),
                "aggregate": lambda: client.aggregate(group_by="platform"),
                "queue": client.queue,
            }
            for number in range(self.ctx.reps(API_READS)):
                route = ROUTES[number % len(ROUTES)]
                self.call("service.api_" + route, reads[route])
            self.ctx.op(count=self.ctx.reps(API_READS))
            rollup = client.aggregate(group_by="platform")["platform_rollup"]
            self.ctx.op(
                _outcomes(rollup) == _outcomes(outcome_table(self.records)),
                what="/aggregate differs from outcome_table of the offline store",
            )
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
            thread.join()
        return marks


def run(ctx, state) -> dict:
    watch = Stopwatch()
    seconds = watch.seconds
    started = clock()
    session = Session(ctx, state, watch.call)
    session.offline()
    marks = session.service()
    session_s = clock() - started

    cold_s = seconds["campaign.run"][0]
    reads = [sample for route in ROUTES for sample in seconds["service.api_" + route]]
    return {
        "time_to_lab_s": ctx.note(
            "time_to_lab_s", [record.duration_seconds for record in session.records]
        ),
        "session_s": session_s,
        "trials_per_s": state["trials"] / cold_s,
        "service_trials_per_s": state["trials"] / (marks["indexed"] - marks["acknowledged"]),
        "api_p50_ms": ctx.note("api_p50_ms", reads) * 1e3,
    }


def trace(ctx, state, spans) -> dict:
    metrics = {}
    spans.call("campaign.expand", CampaignSpec.from_dict, state["spec"])
    metrics["campaign.expand_s"] = spans.total("campaign.expand")

    session = Session(ctx, state, spans.call)
    cold = session.offline()
    metrics["campaign.trial_ms_p50"] = (
        median(record.duration_seconds for record in session.records) * 1e3
    )
    metrics["campaign.resume_s"] = spans.total("campaign.resume")
    metrics["campaign.cache_hits"] = cold.cache_hits
    metrics["campaign.cache_misses"] = cold.cache_misses
    metrics["supervision.open_intents"] = len(TrialJournal(session.store_dir).open_intents())
    ctx.op(metrics["supervision.open_intents"] == 0, what="the trial journal has open intents")

    # the two fsync'd appends every trial pays, on scratch logs
    store = ResultStore(ctx.scratch("append_store"))
    journal = TrialJournal(ctx.scratch("append_journal"))
    template = session.records[0].to_dict()
    for number in range(APPEND_SAMPLES):
        record = TrialRecord.from_dict({**template, "trial_id": "append-%03d" % number})
        spans.call("campaign.store_append", store.append, record)
        with spans.span("supervision.journal_append"):
            journal.start(record.trial_id, record.spec_hash)
            journal.finish(record.trial_id, record.spec_hash, "ok")
    metrics["campaign.store_append_us"] = spans.median("campaign.store_append") * 1e6
    metrics["supervision.journal_append_us"] = spans.median("supervision.journal_append") * 1e6

    marks = session.service()
    metrics["service.submit_ms"] = spans.total("service.submit") * 1e3
    metrics["service.index_lag_s"] = marks["indexed"] - marks["done"]
    reads = []
    for route in ROUTES:
        samples = spans.durations("service.api_" + route)
        reads += samples
        metrics["service.api_%s_ms_p50" % route] = median(samples) * 1e3
    metrics["service.api_p99_ms"] = percentile(reads, 0.99) * 1e3
    return metrics
