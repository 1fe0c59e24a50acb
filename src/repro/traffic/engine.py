"""The flow-level traffic simulator.

A :class:`TrafficEngine` offers the flows a :class:`TrafficProfile`
describes to a booted :class:`~repro.emulation.lab.EmulatedLab` and
measures what the network delivers.  Forwarding comes from the lab's
converged dataplane (so BGP policy, IGP costs and fault state all shape
the paths); performance comes from a per-link transmission model:

* every directed hop has a capacity, a propagation delay, and a bounded
  FIFO queue (tail-drop at the bandwidth-delay product by default);
* a flow arriving at a busy link waits for the residual backlog —
  ``wait = busy_until - now`` on a transmission-only clock — and the
  queued bytes that wait implies (``wait * capacity``) decide drops, so
  latency, jitter and loss *emerge* from offered load instead of being
  scripted; propagation delay is added to the delivered latency but
  never to the contention clock;
* processing flows in global start order keeps the model O(hops) per
  flow and fully deterministic: same seed + profile ⇒ bit-identical
  :class:`~repro.traffic.report.TrafficReport`.

Mid-run :class:`~repro.resilience.FaultSchedule` events map onto the
simulated clock (``at_round * profile.round_seconds``).  When a link or
node goes down the lab reconverges, but flows launched inside the
reconvergence window still follow the *stale* forwarding state: those
that cross the dead hop stall until reconvergence completes and then
retry over the new path — the latency spike and queue burst the §7
disruption experiments look for.

Mid-run **live updates** ride the same clock: ``live_plans`` is a list
of ``(at_seconds, DiffPlan)`` entries, each applied to the running lab
with :func:`repro.liveupdate.apply.apply_plan` (one incremental
reconvergence, no reboot).  A live update has no dead hops — a pure
cost change leaves the old paths physically alive — so instead every
device the plan touches is *disturbed* for the reconvergence window:
stale-path flows crossing a disturbed router stall until the window
closes and then retry over the new forwarding state, yielding the same
bounded p99 blip shape as a fault, minus the packet loss.
"""

from __future__ import annotations

import hashlib
import heapq
import operator
import time
from functools import reduce
from itertools import islice
from random import Random

from repro.exceptions import TrafficError
from repro.liveupdate.apply import apply_plan
from repro.liveupdate.plan import DiffPlan
from repro.observability import (
    INFO,
    gauge_set,
    log_event,
    metric_inc,
    metric_observe,
    span,
)
from repro.observability.metrics import Histogram
from repro.resilience.faults import (
    LINK_DOWN,
    LINK_UP,
    NODE_DOWN,
    NODE_UP,
    FaultSchedule,
)
from repro.traffic.links import (
    BUSY_SECONDS,
    BUSY_UNTIL,
    BYTES,
    CAPACITY_BPS,
    DELAY_S,
    DROPS,
    FLOWS,
    QUEUE_BYTES,
    LinkModel,
)
from repro.supervision.context import checkpoint
from repro.traffic.profile import TrafficProfile, coerce_profile
from repro.traffic.report import ClassReport, TrafficReport

#: Supervision checkpoint cadence inside the flow loop — frequent enough
#: that a cancelled/overdue run unwinds promptly, rare enough to stay
#: invisible in the per-flow cost profile.
_CHECKPOINT_EVERY = 1024


def _class_seed(seed: int, profile_name: str, class_name: str, index: int) -> int:
    """A per-class RNG seed stable across processes and interpreters.

    ``hash()`` of strings is randomised per process (PYTHONHASHSEED), so
    the derivation goes through sha256 instead.
    """
    text = "%d|%s|%s|%d" % (seed, profile_name, class_name, index)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class _PairPool:
    """The deterministic (source, destination) pool one class draws from."""

    __slots__ = ("pairs",)

    def __init__(self, entry, machines, rng: Random):
        sources = list(entry.sources) or machines
        destinations = list(entry.destinations) or machines
        known = set(machines)
        missing = [
            name for name in set(sources) | set(destinations) if name not in known
        ]
        if missing:
            raise TrafficError(
                "traffic class %r names unknown machine(s): %s"
                % (entry.name, ", ".join(sorted(missing)))
            )
        pairs = []
        seen = set()
        # Rejection-sample distinct pairs; bounded attempts keep tiny
        # source/destination sets from spinning forever.
        attempts = 0
        limit = entry.pair_count
        max_attempts = max(64, limit * 16)
        while len(pairs) < limit and attempts < max_attempts:
            attempts += 1
            src = sources[rng.randrange(len(sources))]
            dst = destinations[rng.randrange(len(destinations))]
            if src == dst or (src, dst) in seen:
                continue
            seen.add((src, dst))
            pairs.append((src, dst))
        if not pairs:
            raise TrafficError(
                "traffic class %r has no usable (source, destination) pairs"
                % entry.name
            )
        self.pairs = pairs


def _arrivals(entry, window, rng: Random, class_index: int):
    """Yield (start_time, class_index, pair_slot) in time order."""
    start, end = window
    if end <= start:
        return
    if entry.kind == "bulk":
        count = int(entry.flows)
        if count <= 0:
            return
        width = end - start
        offsets = sorted(rng.random() for _ in range(count))
        for offset in offsets:
            yield (start + offset * width, class_index, rng.getrandbits(30))
        return

    now = start
    if entry.kind == "request_response":
        rate = float(entry.qps)
        if rate <= 0:
            return
        while True:
            now += rng.expovariate(rate)
            if now >= end:
                return
            yield (now, class_index, rng.getrandbits(30))
        return

    # locust-style ramp: arrival rate users(t) * qps, users(t) linear
    # over ramp_seconds then flat.  Thinning keeps arrivals Poisson.
    peak_rate = float(entry.users) * float(entry.qps)
    if peak_rate <= 0:
        return
    ramp = max(float(entry.ramp_seconds), 0.0)
    while True:
        now += rng.expovariate(peak_rate)
        if now >= end:
            return
        elapsed = now - start
        active_fraction = 1.0 if elapsed >= ramp or ramp <= 0 else elapsed / ramp
        if rng.random() < active_fraction:
            yield (now, class_index, rng.getrandbits(30))


class TrafficEngine:
    """Runs one profile against one lab and produces the report."""

    def __init__(
        self,
        lab,
        profile,
        seed: int = 0,
        schedule: FaultSchedule | None = None,
        link_overrides: dict | None = None,
        live_plans: list | None = None,
    ):
        self.lab = lab
        self.profile: TrafficProfile = coerce_profile(profile)
        self.profile.validate()
        self.seed = int(seed)
        self.schedule = schedule
        if schedule is not None:
            schedule.validate(lab)
        self.live_plans: list[tuple[float, DiffPlan]] = []
        for at_seconds, plan in live_plans or []:
            if isinstance(plan, dict):
                plan = DiffPlan.from_dict(plan)
            if plan.platform and plan.platform != lab.intent.platform:
                raise TrafficError(
                    "live plan targets platform %r but the lab is %r"
                    % (plan.platform, lab.intent.platform)
                )
            at_time = float(at_seconds)
            if at_time < 0:
                raise TrafficError(
                    "live update time must be >= 0, got %r" % (at_seconds,)
                )
            self.live_plans.append((at_time, plan))
        self.links = LinkModel(self.profile, link_overrides)
        self._machines = sorted(lab.network.all_machines)
        self._flow_bytes = [entry.flow_bytes() for entry in self.profile.classes]
        # (class index, src, dst) -> _CompiledPath | None (unroutable)
        self._paths: dict = {}
        # every path compiled so far, current or stale, for the final fold
        self._compiled: list = []
        self._stale_paths: dict | None = None
        self._stale_until = 0.0
        self._dead_hops: set = set()
        self._down_nodes: set = set()
        self._disturbed_nodes: set = set()

    # -- path resolution ----------------------------------------------------
    def _destination_address(self, machine: str):
        device = self.lab.network.all_machines[machine]
        address = device.loopback
        if address is not None:
            return address
        for interface in device.interfaces:
            if interface.ip_address is not None and not interface.is_management:
                return interface.ip_address
        return None

    def _compute_path(self, src: str, dst: str):
        """(hop_states, hop_pairs) for src→dst, or None when unroutable.

        A powered-off endpoint makes the pair unroutable: it can neither
        source a trace nor answer one.
        """
        running = self.lab.network.machines
        if src not in running or dst not in running:
            return None
        address = self._destination_address(dst)
        if address is None:
            return None
        trace = self.lab.dataplane.trace(src, address)
        if not trace.reached:
            return None
        machines = [src] + trace.machines()
        hop_pairs = [
            (a, b) for a, b in zip(machines, machines[1:]) if a != b
        ]
        if not hop_pairs:
            return None
        hop_states = [self.links.link_state(a, b) for a, b in hop_pairs]
        return hop_states, hop_pairs

    def _path_for(self, key, src: str, dst: str):
        """The compiled path of ``key`` under the current forwarding state."""
        path = self._paths.get(key, _MISSING)
        if path is _MISSING:
            route = self._compute_path(src, dst)
            path = None
            if route is not None:
                path = _CompiledPath(*route, self._flow_bytes[key[0]])
                self._compiled.append(path)
            self._paths[key] = path
        return path

    # -- fault handling -----------------------------------------------------
    def _fault_times(self):
        if self.schedule is None:
            return []
        return [
            (at_round * self.profile.round_seconds, at_round, list(events))
            for at_round, events in self.schedule.grouped()
        ]

    def _change_times(self):
        """Every mid-run change — faults and live updates — on one clock.

        Sorted by (time, kind) so simultaneous events apply in a
        deterministic order (faults before live updates).
        """
        entries = [
            (at_time, "fault", events)
            for at_time, _at_round, events in self._fault_times()
        ]
        entries.extend(
            (at_time, "live_update", plan) for at_time, plan in self.live_plans
        )
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        return entries

    def _apply_change(self, at_time: float, kind: str, payload, report):
        if kind == "fault":
            self._apply_fault_round(at_time, payload, report)
        else:
            self._apply_live_plan(at_time, payload, report)

    def _apply_fault_round(self, at_time: float, events, report: TrafficReport):
        for event in events:
            if event.kind == LINK_DOWN:
                self.lab.link_down(*event.target, reconverge=False)
                left, right = event.target
                self._dead_hops.add((left, right))
                self._dead_hops.add((right, left))
            elif event.kind == LINK_UP:
                self.lab.link_up(*event.target, reconverge=False)
                left, right = event.target
                self._dead_hops.discard((left, right))
                self._dead_hops.discard((right, left))
            elif event.kind == NODE_DOWN:
                self.lab.node_down(event.target[0], reconverge=False)
                self._down_nodes.add(event.target[0])
            elif event.kind == NODE_UP:
                self.lab.node_up(event.target[0], reconverge=False)
                self._down_nodes.discard(event.target[0])
            metric_inc("traffic.faults_applied")
            report.faults.append(
                {"time": at_time, "kind": event.kind,
                 "target": " ".join(event.target)}
            )
            log_event(
                INFO, "traffic.fault",
                "traffic fault at t=%.2fs: %s %s"
                % (at_time, event.kind, " ".join(event.target)),
            )
        with span("traffic.reconverge", at_time=at_time):
            self.lab.reconverge()
        # flows inside the reconvergence window still see the old paths
        self._stale_paths = self._paths
        self._paths = {}
        self._stale_until = at_time + self.profile.reconvergence_seconds

    def _apply_live_plan(self, at_time: float, plan: DiffPlan, report):
        """Apply one DiffPlan to the running lab mid-run, no reboot.

        ``apply_plan`` validates, commits, and reconverges incrementally;
        stale-path bookkeeping then mirrors a fault round.  The devices
        the plan touched are *disturbed* until the reconvergence window
        closes — routers being reprogrammed forward on stale state, so
        in-flight flows crossing them stall and retry like flows over a
        dead hop, producing the live-change latency blip.
        """
        apply_report = apply_plan(self.lab, plan, strict=False, isolate=True)
        metric_inc("traffic.live_updates_applied")
        report.faults.append(
            {"time": at_time, "kind": "live_update",
             "target": " ".join(plan.devices())}
        )
        log_event(
            INFO, "traffic.fault",
            "live update at t=%.2fs: %s" % (at_time, apply_report.summary()),
        )
        self._disturbed_nodes = set(plan.devices())
        self._stale_paths = self._paths
        self._paths = {}
        self._stale_until = at_time + self.profile.reconvergence_seconds

    def _hop_is_dead(self, pair) -> bool:
        return (
            pair in self._dead_hops
            or pair[0] in self._down_nodes
            or pair[1] in self._down_nodes
            or pair[0] in self._disturbed_nodes
            or pair[1] in self._disturbed_nodes
        )

    # -- the simulation -----------------------------------------------------
    def run(self) -> TrafficReport:
        profile = self.profile
        started = time.perf_counter()
        report = TrafficReport(
            profile=profile.name, seed=self.seed, duration=profile.duration
        )

        class_entries = list(profile.classes)
        pools = []
        streams = []
        for index, entry in enumerate(class_entries):
            rng = Random(_class_seed(self.seed, profile.name, entry.name, index))
            pools.append(_PairPool(entry, self._machines, rng))
            window = profile.class_window(entry)
            streams.append(_arrivals(entry, window, rng, index))
            report.classes.append(ClassReport(name=entry.name, kind=entry.kind))

        pair_lists = [pool.pairs for pool in pools]
        class_reports = report.classes
        dropped = [0] * len(class_entries)
        unroutable = [0] * len(class_entries)
        latencies = _LatencyChunks(class_reports)
        bucket_samples = latencies.bucket
        class_samples = latencies.by_class

        bucket_width = profile.round_seconds
        buckets: dict = {}
        bucket = None
        bucket_key = None

        change_queue = self._change_times()
        change_cursor = 0

        flows_seen = 0
        with span(
            "traffic.run", profile=profile.name, seed=self.seed,
            classes=len(class_entries),
        ):
            for start, class_index, slot in heapq.merge(*streams):
                flows_seen += 1
                if not flows_seen % _CHECKPOINT_EVERY:
                    checkpoint("traffic.run")
                while (
                    change_cursor < len(change_queue)
                    and change_queue[change_cursor][0] <= start
                ):
                    at_time, kind, payload = change_queue[change_cursor]
                    self._apply_change(at_time, kind, payload, report)
                    change_cursor += 1

                # arrivals come in start order: one bucket is open at a time
                if int(start / bucket_width) != bucket_key:
                    if bucket is not None:
                        latencies.flush(bucket)
                    bucket_key = int(start / bucket_width)
                    bucket = buckets[bucket_key] = _Bucket(bucket_key * bucket_width)

                pairs = pair_lists[class_index]
                src, dst = pairs[slot % len(pairs)]
                key = (class_index, src, dst)
                launch = start
                path = None
                if self._stale_paths is not None:
                    if start >= self._stale_until:
                        self._stale_paths = None
                        self._disturbed_nodes = set()
                    else:
                        stale = self._stale_paths.get(key)
                        if stale is not None:
                            dead = any(
                                self._hop_is_dead(pair) for pair in stale.pairs
                            )
                            if dead:
                                # disrupted: stall until reconvergence
                                # completes, then retry over the new path
                                launch = self._stale_until
                                path = self._path_for(key, src, dst)
                            else:
                                path = stale
                if path is None:
                    path = self._path_for(key, src, dst)

                if path is None:
                    unroutable[class_index] += 1
                    bucket.dropped += 1
                    continue

                # The busy_until cascade: wait, queue-check, transmit.
                # Contention runs on a transmission-only clock — the
                # backlog a flow sees (``wait * capacity`` bytes) is real
                # queued data, and propagation delay is added to latency
                # afterwards so a reservation on a far hop never makes
                # the link look busy to an earlier arrival.  An idle hop
                # departs at ``t + service``, which is ``t + 0.0 + service``
                # to the bit.
                t = launch
                for state, service, capacity, queue, position in path.hops:
                    busy = state[BUSY_UNTIL]
                    if busy > t:
                        wait = busy - t
                        if wait * capacity > queue:
                            state[DROPS] += 1
                            path.cut[position] += 1
                            break
                        t = t + wait + service
                    else:
                        t += service
                    state[BUSY_UNTIL] = t
                    state[BUSY_SECONDS] += service
                else:
                    path.delivered += 1
                    latency = t + path.propagation - start
                    bucket_samples.append(latency)
                    class_samples[class_index].append(latency)
                    continue
                dropped[class_index] += 1
                bucket.dropped += 1

            if bucket is not None:
                latencies.flush(bucket)

            # changes scheduled after the last arrival still apply, so a
            # rerun that extends the profile stays consistent
            while change_cursor < len(change_queue):
                at_time, kind, payload = change_queue[change_cursor]
                if at_time > profile.duration:
                    break
                self._apply_change(at_time, kind, payload, report)
                change_cursor += 1

        for path in self._compiled:
            path.fold()
        for index, stats in enumerate(class_reports):
            size = self._flow_bytes[index]
            delivered = latencies.delivered[index]
            offered = delivered + dropped[index] + unroutable[index]
            stats.offered_flows += offered
            stats.offered_bytes += offered * size
            stats.delivered_flows += delivered
            stats.delivered_bytes += delivered * size
            stats.dropped_flows += dropped[index]
            stats.unroutable_flows += unroutable[index]
            if latencies.jitter_n[index]:
                stats.jitter_ms = (
                    latencies.jitter_sum[index] / latencies.jitter_n[index] * 1e3
                )

        report.links = self.links.utilization_rows(profile.duration)
        report.timeline = [
            buckets[key].to_dict() for key in sorted(buckets)
        ]
        report.elapsed_seconds = time.perf_counter() - started
        self._export_metrics(report)
        return report

    def _export_metrics(self, report: TrafficReport) -> None:
        """Feed the run's aggregates into the ambient metrics registry."""
        totals = report.totals()
        metric_inc("traffic.flows_offered", totals["offered_flows"])
        metric_inc("traffic.flows_delivered", totals["delivered_flows"])
        metric_inc("traffic.flows_dropped", totals["dropped_flows"])
        metric_inc("traffic.bytes_delivered", totals["delivered_bytes"])
        gauge_set("traffic.loss_rate", totals["loss_rate"])
        gauge_set("traffic.offered_load_mbps", totals["offered_load_mbps"])
        gauge_set("traffic.delivered_load_mbps", totals["delivered_load_mbps"])
        for entry in report.classes:
            # replay the bounded reservoir (≤512 samples/class) so the
            # registry histograms carry the same percentile estimates
            name = "traffic.latency_ms.%s" % entry.name
            for sample in entry.latency.samples:
                metric_observe(name, sample * 1e3)


class _CompiledPath:
    """One ``(class, src, dst)`` path under one forwarding state.

    ``hops`` holds per hop ``(link state, service seconds, capacity,
    queue bytes, position)``: the class's transmission time is divided
    out once here, not per flow.  ``propagation`` is the hop delays
    summed in hop order.  Flows and bytes are counted per path —
    ``delivered`` flows crossed every hop, ``cut[i]`` flows were dropped
    at hop ``i`` — and :meth:`fold` credits them to the link states.
    """

    __slots__ = ("hops", "pairs", "propagation", "size", "delivered", "cut")

    def __init__(self, states: list, pairs: list, size: int):
        self.hops = tuple(
            (state, size / state[CAPACITY_BPS], state[CAPACITY_BPS],
             state[QUEUE_BYTES], position)
            for position, state in enumerate(states)
        )
        self.pairs = pairs
        propagation = 0.0
        for state in states:
            propagation += state[DELAY_S]
        self.propagation = propagation
        self.size = size
        self.delivered = 0
        self.cut = [0] * len(states)

    def fold(self) -> None:
        """Add the counted flows and bytes to each hop, then reset the counts."""
        crossed = self.delivered
        for state, _service, _capacity, _queue, position in reversed(self.hops):
            state[FLOWS] += crossed
            state[BYTES] += crossed * self.size
            crossed += self.cut[position]
        self.delivered = 0
        self.cut = [0] * len(self.hops)


class _LatencyChunks:
    """The open bucket's delivered latencies, in flow order, per class too.

    A delivered flow only appends its latency; :meth:`flush` closes the
    bucket.  It counts the deliveries, feeds the latencies to the
    bucket's and each class's histogram with ``observe_many`` and folds
    each class's jitter left to right, so every float sum runs in the
    order the flows were delivered.
    """

    __slots__ = (
        "bucket", "by_class", "reports", "delivered", "previous", "jitter_sum", "jitter_n",
    )

    def __init__(self, class_reports: list):
        self.bucket: list = []
        self.by_class: list = [[] for _ in class_reports]
        self.reports = class_reports
        self.delivered = [0] * len(class_reports)
        self.previous: list = [None] * len(class_reports)
        self.jitter_sum = [0.0] * len(class_reports)
        self.jitter_n = [0] * len(class_reports)

    def flush(self, bucket: "_Bucket") -> None:
        bucket.delivered = len(self.bucket)
        bucket.offered = bucket.delivered + bucket.dropped
        bucket.latency.observe_many(self.bucket)
        self.bucket.clear()
        for index, chunk in enumerate(self.by_class):
            if not chunk:
                continue
            self.delivered[index] += len(chunk)
            self.reports[index].latency.observe_many(chunk)
            total = self.jitter_sum[index]
            previous = self.previous[index]
            if previous is None:
                self.jitter_n[index] += len(chunk) - 1
            else:
                total += abs(chunk[0] - previous)
                self.jitter_n[index] += len(chunk)
            steps = map(operator.sub, islice(chunk, 1, None), chunk)
            self.jitter_sum[index] = reduce(operator.add, map(abs, steps), total)
            self.previous[index] = chunk[-1]
            chunk.clear()


class _Bucket:
    """One timeline bucket: offered/delivered/dropped + p99."""

    __slots__ = ("start", "offered", "delivered", "dropped", "latency")

    def __init__(self, start: float):
        self.start = start
        self.offered = 0
        self.delivered = 0
        self.dropped = 0
        self.latency = Histogram()

    def to_dict(self) -> dict:
        p99 = self.latency.percentile(99)
        p50 = self.latency.percentile(50)
        return {
            "start": self.start,
            "offered": self.offered,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "p50_ms": None if p50 is None else p50 * 1e3,
            "p99_ms": None if p99 is None else p99 * 1e3,
        }


_MISSING = object()


def run_traffic(
    lab,
    profile,
    seed: int = 0,
    schedule: FaultSchedule | None = None,
    link_overrides: dict | None = None,
    live_plans: list | None = None,
) -> TrafficReport:
    """Offer ``profile``'s flows to ``lab`` and return the report.

    ``live_plans`` is an optional list of ``(at_seconds, DiffPlan)``
    entries applied to the running lab mid-run — see
    :meth:`TrafficEngine._apply_live_plan`.
    """
    engine = TrafficEngine(
        lab, profile, seed=seed, schedule=schedule,
        link_overrides=link_overrides, live_plans=live_plans,
    )
    return engine.run()
