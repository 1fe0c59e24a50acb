"""The per-flow, per-hop traffic loop, kept as the engine's differential oracle.

:class:`OracleTrafficEngine` runs every flow through the original loop:
it resolves ``(hop_states, hop_pairs)`` per ``(class, src, dst)``,
divides ``size / capacity`` and bumps every link counter on every hop of
every flow, and observes each latency straight into the class and
bucket histograms.  :class:`repro.traffic.engine.TrafficEngine` compiles
each path once, folds the counters and feeds the histograms in bucket
chunks; its ``to_json()`` must equal this one's byte for byte.
"""

from __future__ import annotations

import heapq
import time
from random import Random

from repro.observability import span
from repro.supervision.context import checkpoint
from repro.traffic.engine import (
    _CHECKPOINT_EVERY,
    _MISSING,
    TrafficEngine,
    _arrivals,
    _Bucket,
    _class_seed,
    _PairPool,
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
)
from repro.traffic.report import ClassReport, TrafficReport


def run_oracle_traffic(
    lab, profile, seed=0, schedule=None, link_overrides=None, live_plans=None
) -> TrafficReport:
    """``run_traffic`` through the oracle loop."""
    engine = OracleTrafficEngine(
        lab, profile, seed=seed, schedule=schedule,
        link_overrides=link_overrides, live_plans=live_plans,
    )
    return engine.run()


class OracleTrafficEngine(TrafficEngine):
    """The traffic engine with the original uncompiled flow loop."""

    def _path_for(self, key, src: str, dst: str):
        path = self._paths.get(key, _MISSING)
        if path is _MISSING:
            path = self._compute_path(src, dst)
            self._paths[key] = path
        return path

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

        flow_bytes = [entry.flow_bytes() for entry in class_entries]
        pair_lists = [pool.pairs for pool in pools]
        class_reports = report.classes

        bucket_width = profile.round_seconds
        buckets: dict = {}

        change_queue = self._change_times()
        change_cursor = 0
        prev_latency = [None] * len(class_entries)
        jitter_sum = [0.0] * len(class_entries)
        jitter_n = [0] * len(class_entries)

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

                stats = class_reports[class_index]
                size = flow_bytes[class_index]
                pairs = pair_lists[class_index]
                src, dst = pairs[slot % len(pairs)]
                stats.offered_flows += 1
                stats.offered_bytes += size

                bucket_key = int(start / bucket_width)
                bucket = buckets.get(bucket_key)
                if bucket is None:
                    bucket = buckets[bucket_key] = _Bucket(bucket_key * bucket_width)
                bucket.offered += 1

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
                                self._hop_is_dead(pair) for pair in stale[1]
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
                    stats.unroutable_flows += 1
                    bucket.dropped += 1
                    continue

                # The busy_until cascade: wait, queue-check, transmit.
                # Contention runs on a transmission-only clock — the
                # backlog a flow sees (``wait * capacity`` bytes) is real
                # queued data, and propagation delay is added to latency
                # afterwards so a reservation on a far hop never makes
                # the link look busy to an earlier arrival.
                t = launch
                propagation = 0.0
                delivered = True
                for state in path[0]:
                    busy = state[BUSY_UNTIL]
                    if busy > t:
                        wait = busy - t
                        if wait * state[CAPACITY_BPS] > state[QUEUE_BYTES]:
                            state[DROPS] += 1
                            delivered = False
                            break
                    else:
                        wait = 0.0
                    service = size / state[CAPACITY_BPS]
                    departure = t + wait + service
                    state[BUSY_UNTIL] = departure
                    state[BUSY_SECONDS] += service
                    state[BYTES] += size
                    state[FLOWS] += 1
                    t = departure
                    propagation += state[DELAY_S]

                if not delivered:
                    stats.dropped_flows += 1
                    bucket.dropped += 1
                    continue

                latency = t + propagation - start
                stats.delivered_flows += 1
                stats.delivered_bytes += size
                stats.latency.observe(latency)
                bucket.delivered += 1
                bucket.latency.observe(latency)
                previous = prev_latency[class_index]
                if previous is not None:
                    jitter_sum[class_index] += abs(latency - previous)
                    jitter_n[class_index] += 1
                prev_latency[class_index] = latency

            # changes scheduled after the last arrival still apply, so a
            # rerun that extends the profile stays consistent
            while change_cursor < len(change_queue):
                at_time, kind, payload = change_queue[change_cursor]
                if at_time > profile.duration:
                    break
                self._apply_change(at_time, kind, payload, report)
                change_cursor += 1

        for index, stats in enumerate(class_reports):
            if jitter_n[index]:
                stats.jitter_ms = jitter_sum[index] / jitter_n[index] * 1e3

        report.links = self.links.utilization_rows(profile.duration)
        report.timeline = [
            buckets[key].to_dict() for key in sorted(buckets)
        ]
        report.elapsed_seconds = time.perf_counter() - started
        self._export_metrics(report)
        return report
