"""The queryable result index: SQLite over the JSONL campaign stores.

The JSONL index stays the *authoritative* record (append-only, fsync'd,
crash-safe); this module maintains a derived SQLite index over any
number of campaign directories so the API can answer aggregation
queries — outcome counts by axis, the §7.2 per-platform rollup,
latency percentiles from embedded traffic reports — without rescanning
JSONL on every request.

Incrementality is the point: the tailer remembers, per campaign, the
byte offset of the last fully indexed line (persisted in SQLite itself),
so one :meth:`ResultIndex.index_store` call costs the appended delta:
an :class:`~repro.supervision.AppendLog` tail read, which leaves an
unterminated trailing line pending and counts torn lines.

Idempotence is the other point: trial rows upsert on
``(campaign_id, spec_hash)``, so a crash-recovery replay — which
re-appends superseding records for re-executed trials — updates rows in
place instead of duplicating them.  Dropping the ``offsets`` table (or
the whole database file) and re-indexing reproduces the same rows.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Optional

from repro.campaign.store import INDEX_NAME, TrialRecord
from repro.exceptions import ServiceError
from repro.supervision import AppendLog

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id            TEXT PRIMARY KEY,
    name          TEXT NOT NULL DEFAULT '',
    client        TEXT NOT NULL DEFAULT '',
    state         TEXT NOT NULL DEFAULT '',
    priority      INTEGER NOT NULL DEFAULT 0,
    submitted_at  REAL NOT NULL DEFAULT 0,
    started_at    REAL NOT NULL DEFAULT 0,
    finished_at   REAL NOT NULL DEFAULT 0,
    total_trials  INTEGER NOT NULL DEFAULT 0,
    directory     TEXT NOT NULL DEFAULT '',
    error         TEXT
);
CREATE TABLE IF NOT EXISTS trials (
    campaign_id      TEXT NOT NULL,
    spec_hash        TEXT NOT NULL,
    trial_id         TEXT NOT NULL,
    topology         TEXT NOT NULL DEFAULT '',
    platform         TEXT NOT NULL DEFAULT '',
    status           TEXT NOT NULL DEFAULT '',
    outcome          TEXT NOT NULL DEFAULT '',
    convergence      TEXT NOT NULL DEFAULT '',
    rounds           INTEGER NOT NULL DEFAULT 0,
    reachable_fraction REAL,
    duration_seconds REAL NOT NULL DEFAULT 0,
    finished_at      REAL NOT NULL DEFAULT 0,
    loss_rate        REAL,
    latency_p50_ms   REAL,
    latency_p95_ms   REAL,
    latency_p99_ms   REAL,
    record           TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (campaign_id, spec_hash)
);
CREATE INDEX IF NOT EXISTS trials_by_status   ON trials (status);
CREATE INDEX IF NOT EXISTS trials_by_platform ON trials (platform);
CREATE TABLE IF NOT EXISTS offsets (
    campaign_id  TEXT PRIMARY KEY,
    path         TEXT NOT NULL,
    offset       INTEGER NOT NULL DEFAULT 0,
    torn_lines   INTEGER NOT NULL DEFAULT 0,
    indexed_at   REAL NOT NULL DEFAULT 0
);
"""

#: ``group_by`` axes :meth:`ResultIndex.aggregate` accepts.
AGGREGATE_AXES = ("platform", "topology", "status", "campaign")


class ResultIndex:
    """One SQLite database indexing many campaign result stores."""

    def __init__(self, path: str | os.PathLike = ":memory:"):
        self.path = str(path)
        if self.path != ":memory:":
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
        # one shared connection behind one lock: the indexer thread and
        # the HTTP handler threads interleave whole statements
        self._db = sqlite3.connect(self.path, check_same_thread=False)
        self._db.row_factory = sqlite3.Row
        self._lock = threading.Lock()
        with self._lock:
            self._db.executescript(_SCHEMA)
            self._db.commit()

    def close(self) -> None:
        with self._lock:
            self._db.close()

    # -- campaign metadata ---------------------------------------------------
    def upsert_campaign(self, job: dict) -> None:
        """Record (or refresh) one job's metadata row."""
        with self._lock:
            self._db.execute(
                "INSERT INTO campaigns (id, name, client, state, priority,"
                " submitted_at, started_at, finished_at, total_trials,"
                " directory, error)"
                " VALUES (?,?,?,?,?,?,?,?,?,?,?)"
                " ON CONFLICT(id) DO UPDATE SET"
                " name=excluded.name, client=excluded.client,"
                " state=excluded.state, priority=excluded.priority,"
                " submitted_at=excluded.submitted_at,"
                " started_at=excluded.started_at,"
                " finished_at=excluded.finished_at,"
                " total_trials=excluded.total_trials,"
                " directory=excluded.directory, error=excluded.error",
                (
                    job["id"], job.get("campaign", ""), job.get("client", ""),
                    job.get("state", ""), job.get("priority", 0),
                    job.get("submitted_at", 0.0), job.get("started_at", 0.0),
                    job.get("finished_at", 0.0), job.get("total_trials", 0),
                    job.get("directory", ""), job.get("error"),
                ),
            )
            self._db.commit()

    def campaigns(self) -> list[dict]:
        with self._lock:
            rows = self._db.execute(
                "SELECT * FROM campaigns ORDER BY submitted_at, id"
            ).fetchall()
        return [dict(row) for row in rows]

    def campaign(self, campaign_id: str) -> Optional[dict]:
        with self._lock:
            row = self._db.execute(
                "SELECT * FROM campaigns WHERE id = ?", (campaign_id,)
            ).fetchone()
        return dict(row) if row is not None else None

    # -- the tailer ----------------------------------------------------------
    def index_store(self, campaign_id: str,
                    directory: str | os.PathLike) -> list[TrialRecord]:
        """Index a campaign directory's appended delta; return new records.

        Maintains its own byte offset (persisted, so a restarted service
        picks up where it stopped); upserts make replays idempotent.
        """
        log = AppendLog(os.path.join(str(directory), INDEX_NAME))
        with self._lock:
            row = self._db.execute(
                "SELECT offset, torn_lines FROM offsets WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchone()
        offset, torn = (row["offset"], row["torn_lines"]) if row else (0, 0)
        entries, end, new_torn = log.read(offset, tail=True)
        if row is not None and end == offset:
            return []
        fresh = [TrialRecord.from_dict(entry) for entry in entries]
        with self._lock:
            for record in fresh:
                self._upsert_trial(campaign_id, record)
            self._db.execute(
                "INSERT INTO offsets (campaign_id, path, offset, torn_lines,"
                " indexed_at) VALUES (?,?,?,?,?)"
                " ON CONFLICT(campaign_id) DO UPDATE SET"
                " path=excluded.path, offset=excluded.offset,"
                " torn_lines=excluded.torn_lines, indexed_at=excluded.indexed_at",
                (campaign_id, log.path, end, torn + new_torn, time.time()),
            )
            self._db.commit()
        return fresh

    def reset_offsets(self) -> None:
        """Forget tail positions: the next index pass rescans from zero."""
        with self._lock:
            self._db.execute("DELETE FROM offsets")
            self._db.commit()

    def _upsert_trial(self, campaign_id: str, record: TrialRecord) -> None:
        latency = _trial_latency(record)
        self._db.execute(
            "INSERT INTO trials (campaign_id, spec_hash, trial_id, topology,"
            " platform, status, outcome, convergence, rounds,"
            " reachable_fraction, duration_seconds, finished_at, loss_rate,"
            " latency_p50_ms, latency_p95_ms, latency_p99_ms, record)"
            " VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)"
            " ON CONFLICT(campaign_id, spec_hash) DO UPDATE SET"
            " trial_id=excluded.trial_id, topology=excluded.topology,"
            " platform=excluded.platform, status=excluded.status,"
            " outcome=excluded.outcome, convergence=excluded.convergence,"
            " rounds=excluded.rounds,"
            " reachable_fraction=excluded.reachable_fraction,"
            " duration_seconds=excluded.duration_seconds,"
            " finished_at=excluded.finished_at, loss_rate=excluded.loss_rate,"
            " latency_p50_ms=excluded.latency_p50_ms,"
            " latency_p95_ms=excluded.latency_p95_ms,"
            " latency_p99_ms=excluded.latency_p99_ms, record=excluded.record",
            (
                campaign_id, record.spec_hash, record.trial_id,
                record.topology, record.platform, record.status,
                record.outcome(), record.convergence.get("status", ""),
                int(record.convergence.get("rounds", 0) or 0),
                record.reachability.get("fraction"),
                record.duration_seconds, record.finished_at,
                (record.traffic.get("totals") or {}).get("loss_rate"),
                latency.get("p50"), latency.get("p95"), latency.get("p99"),
                json.dumps(record.to_dict(), sort_keys=True, default=str),
            ),
        )

    # -- queries -------------------------------------------------------------
    def trials(self, campaign_id: str | None = None,
               status: str | None = None) -> list[dict]:
        """Trial rows (without the raw record blob), filterable."""
        clauses, params = [], []
        if campaign_id is not None:
            clauses.append("campaign_id = ?")
            params.append(campaign_id)
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        with self._lock:
            rows = self._db.execute(
                "SELECT campaign_id, spec_hash, trial_id, topology, platform,"
                " status, outcome, convergence, rounds, reachable_fraction,"
                " duration_seconds, finished_at, loss_rate, latency_p50_ms,"
                " latency_p95_ms, latency_p99_ms FROM trials" + where +
                " ORDER BY finished_at, trial_id",
                params,
            ).fetchall()
        return [dict(row) for row in rows]

    def trial_record(self, campaign_id: str, spec_hash: str) -> Optional[dict]:
        """The full stored record for one trial (the JSON blob)."""
        with self._lock:
            row = self._db.execute(
                "SELECT record FROM trials WHERE campaign_id=? AND spec_hash=?",
                (campaign_id, spec_hash),
            ).fetchone()
        if row is None:
            return None
        return json.loads(row["record"])

    def counts(self, campaign_id: str) -> dict:
        """Status counts for one campaign — the job view's progress bar."""
        with self._lock:
            rows = self._db.execute(
                "SELECT status, COUNT(*) AS n FROM trials"
                " WHERE campaign_id = ? GROUP BY status",
                (campaign_id,),
            ).fetchall()
        counts = {row["status"]: row["n"] for row in rows}
        counts["indexed"] = sum(counts.values())
        return counts

    def aggregate(self, group_by: str = "platform",
                  campaign_id: str | None = None) -> list[dict]:
        """Outcome counts + duration stats grouped by one axis.

        ``group_by`` is one of ``platform | topology | status |
        campaign`` (``campaign`` groups on the campaign id).
        """
        if group_by not in AGGREGATE_AXES:
            raise ServiceError(
                "unknown group_by %r (choose from %s)"
                % (group_by, ", ".join(AGGREGATE_AXES)),
                status=400,
            )
        column = "campaign_id" if group_by == "campaign" else group_by
        where, params = "", []
        if campaign_id is not None:
            where = " WHERE campaign_id = ?"
            params.append(campaign_id)
        with self._lock:
            rows = self._db.execute(
                "SELECT %s AS grp, COUNT(*) AS trials,"
                " SUM(CASE WHEN status = 'ok' THEN 1 ELSE 0 END) AS ok,"
                " SUM(CASE WHEN status != 'ok' THEN 1 ELSE 0 END) AS failed,"
                " SUM(duration_seconds) AS total_seconds,"
                " AVG(duration_seconds) AS mean_seconds,"
                " MAX(rounds) AS max_rounds"
                " FROM trials%s GROUP BY %s ORDER BY grp"
                % (column, where, column),
                params,
            ).fetchall()
        return [
            {
                group_by: row["grp"],
                "trials": row["trials"],
                "ok": row["ok"],
                "failed": row["failed"],
                "total_seconds": round(row["total_seconds"] or 0.0, 6),
                "mean_seconds": round(row["mean_seconds"] or 0.0, 6),
                "max_rounds": row["max_rounds"],
            }
            for row in rows
        ]

    def platform_rollup(self, campaign_id: str | None = None) -> list[dict]:
        """The §7.2 table: one row per (topology, platform) with outcomes."""
        where, params = "", []
        if campaign_id is not None:
            where = " WHERE campaign_id = ?"
            params.append(campaign_id)
        with self._lock:
            rows = self._db.execute(
                "SELECT topology, platform, COUNT(*) AS trials,"
                " SUM(CASE WHEN status = 'ok' THEN 1 ELSE 0 END) AS ok,"
                " SUM(CASE WHEN status != 'ok' THEN 1 ELSE 0 END) AS failed,"
                " GROUP_CONCAT(DISTINCT outcome) AS outcomes,"
                " MAX(rounds) AS rounds,"
                " SUM(duration_seconds) AS seconds"
                " FROM trials%s GROUP BY topology, platform"
                " ORDER BY topology, platform" % where,
                params,
            ).fetchall()
        return [
            {
                "topology": row["topology"],
                "platform": row["platform"],
                "trials": row["trials"],
                "ok": row["ok"],
                "failed": row["failed"],
                "outcome": "; ".join((row["outcomes"] or "").split(",")),
                "rounds": row["rounds"],
                "seconds": round(row["seconds"] or 0.0, 6),
            }
            for row in rows
        ]

    def latency_stats(self, group_by: str = "platform",
                      campaign_id: str | None = None) -> list[dict]:
        """Traffic latency percentiles rolled up from trial reports.

        Each trial stores its traffic report's worst-class p50/p95/p99;
        the rollup reports the mean and max of those per group — the
        dashboard's 'how bad is the tail across this axis' view.  Trials
        without traffic are excluded.
        """
        if group_by not in AGGREGATE_AXES:
            raise ServiceError(
                "unknown group_by %r (choose from %s)"
                % (group_by, ", ".join(AGGREGATE_AXES)),
                status=400,
            )
        column = "campaign_id" if group_by == "campaign" else group_by
        where, params = " WHERE latency_p50_ms IS NOT NULL", []
        if campaign_id is not None:
            where += " AND campaign_id = ?"
            params.append(campaign_id)
        with self._lock:
            rows = self._db.execute(
                "SELECT %s AS grp, COUNT(*) AS trials,"
                " AVG(latency_p50_ms) AS mean_p50, MAX(latency_p50_ms) AS max_p50,"
                " AVG(latency_p95_ms) AS mean_p95, MAX(latency_p95_ms) AS max_p95,"
                " AVG(latency_p99_ms) AS mean_p99, MAX(latency_p99_ms) AS max_p99,"
                " AVG(loss_rate) AS mean_loss"
                " FROM trials%s GROUP BY %s ORDER BY grp"
                % (column, where, column),
                params,
            ).fetchall()
        return [
            {
                group_by: row["grp"],
                "trials": row["trials"],
                "latency_ms": {
                    "p50": {"mean": _rnd(row["mean_p50"]), "max": _rnd(row["max_p50"])},
                    "p95": {"mean": _rnd(row["mean_p95"]), "max": _rnd(row["max_p95"])},
                    "p99": {"mean": _rnd(row["mean_p99"]), "max": _rnd(row["max_p99"])},
                },
                "mean_loss_rate": _rnd(row["mean_loss"], 6),
            }
            for row in rows
        ]


def _trial_latency(record: TrialRecord) -> dict:
    """Worst-class latency percentiles from an embedded traffic summary."""
    worst: dict = {}
    for entry in (record.traffic.get("classes") or {}).values():
        latency = entry.get("latency_ms") or {}
        for quantile in ("p50", "p95", "p99"):
            value = latency.get(quantile)
            if value is None:
                continue
            if quantile not in worst or value > worst[quantile]:
                worst[quantile] = value
    return worst


def _rnd(value, digits: int = 3):
    return None if value is None else round(value, digits)
