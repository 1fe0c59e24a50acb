"""The build engine: parallel, incremental, content-addressed builds.

:class:`BuildEngine` runs the compile→render half of the pipeline as a
task DAG — ``load_build → compile → {render.<device>…, render.topology}
→ deploy`` — over a pluggable executor (serial, thread pool, process
pool; ``--jobs N``).  The per-device fan-out is discovered dynamically:
the compile task expands the graph with one render task per device once
the NIDB exists.

Each device's render task is keyed by a stable content hash of its
compiled NIDB subtree plus the source of every template it references
(:mod:`repro.engine.hashing`).  Hits in the :class:`ArtifactCache` skip
rendering entirely — a warm rebuild of an unchanged topology re-renders
0 device files — and :func:`incremental_update` diffs a new topology
against the previous run, recompiles only the touched devices (through
``PlatformCompiler.compile(only=…)``), and re-renders only the devices
whose fingerprints moved.

Every task runs under a telemetry span, and the engine maintains
``engine.cache_hits`` / ``engine.cache_misses`` / ``engine.tasks_run``
plus per-executor queue/latency histograms, so speedup and cache
efficacy read straight off ``--metrics``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Optional

import networkx as nx

from repro.compilers import platform_compiler
from repro.design import DEFAULT_RULES, design_network
from repro.engine.cache import Artifact, ArtifactCache, file_sha, text_sha
from repro.engine.dag import Expansion, Scheduler, Task, TaskGraph
from repro.engine.executors import make_executor
from repro.engine.hashing import TemplateHasher, device_cache_key, topology_cache_key
from repro.exceptions import EngineError, RenderError
from repro.nidb import Nidb, changed_devices
from repro.observability import (
    INFO,
    Telemetry,
    current_telemetry,
    gauge_set,
    log_event,
    metric_inc,
    span,
)
from repro.render import (
    RenderResult,
    add_template_directory,
    device_render_jobs,
    template_directories,
    topology_render_jobs,
)

#: Artifact owner id for the topology-level files (lab.conf, ...).
TOPOLOGY_OWNER = "__topology__"


@dataclass
class BuildReport:
    """What one engine run did: artifacts, cache traffic, task counts."""

    output_dir: str = ""
    lab_dir: str = ""
    mode: str = "full"
    executor: str = "serial"
    render_result: Optional[RenderResult] = None
    devices_total: int = 0
    rendered_devices: list[str] = field(default_factory=list)
    cached_devices: list[str] = field(default_factory=list)
    removed_devices: list[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    tasks_run: int = 0
    files_written: int = 0
    files_unchanged: int = 0
    deployment: Any = None
    #: task id -> error text for tasks that failed in non-strict mode
    failed_tasks: dict = field(default_factory=dict)
    #: task ids skipped because a dependency failed
    skipped_tasks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed_tasks and not self.skipped_tasks

    def summary(self) -> str:
        text = (
            "%s build: %d devices (%d rendered, %d from cache), "
            "%d tasks, cache %d hit / %d miss, %d files written, %d unchanged"
            % (
                self.mode,
                self.devices_total,
                len(self.rendered_devices),
                len(self.cached_devices),
                self.tasks_run,
                self.cache_hits,
                self.cache_misses,
                self.files_written,
                self.files_unchanged,
            )
        )
        if not self.ok:
            text += ", %d task(s) FAILED (%s)" % (
                len(self.failed_tasks),
                ", ".join(sorted(self.failed_tasks)),
            )
            if self.skipped_tasks:
                text += ", %d skipped" % len(self.skipped_tasks)
        return text


@dataclass
class _GraphDelta:
    """Difference between two input topologies, engine-classified."""

    structural: bool = False
    changed_nodes: set = field(default_factory=set)
    changed_edges: set = field(default_factory=set)

    @property
    def changed(self) -> bool:
        return self.structural or bool(self.changed_nodes) or bool(self.changed_edges)

    @property
    def partial_safe(self) -> bool:
        """Edge-attribute-only changes keep device membership, addressing
        and session topology intact, so recompiling the endpoints alone
        is equivalent to a full compile."""
        return not self.structural and not self.changed_nodes

    def candidates(self) -> set[str]:
        found = set(str(node) for node in self.changed_nodes)
        for src, dst in self.changed_edges:
            found.add(str(src))
            found.add(str(dst))
        return found


def graph_delta(old: nx.Graph, new: nx.Graph) -> _GraphDelta:
    """Classify what changed between two input topologies."""
    delta = _GraphDelta()
    old_nodes, new_nodes = set(old.nodes), set(new.nodes)
    old_edges = {frozenset((u, v)) for u, v in old.edges}
    new_edges = {frozenset((u, v)) for u, v in new.edges}
    if old_nodes != new_nodes or old_edges != new_edges:
        delta.structural = True
        return delta
    for node in new_nodes:
        if dict(old.nodes[node]) != dict(new.nodes[node]):
            delta.changed_nodes.add(node)
    for u, v in new.edges:
        if dict(old.edges[u, v]) != dict(new.edges[u, v]):
            delta.changed_edges.add((u, v))
    return delta


class BuildEngine:
    """Schedules the compile→render pipeline as a cached, parallel DAG."""

    def __init__(
        self,
        platform: str = "netkit",
        rules=DEFAULT_RULES,
        host: str = "localhost",
        output_dir: str | os.PathLike | None = None,
        jobs: int = 1,
        executor=None,
        cache: ArtifactCache | None = None,
        cache_dir: str | os.PathLike | None = None,
        use_cache: bool = True,
        strict: bool = True,
        retry_policy=None,
    ):
        self.platform = platform
        self.rules = tuple(rules)
        self.host = host
        self.output_dir = str(output_dir) if output_dir else None
        self.strict = strict
        self.retry_policy = retry_policy
        self.executor = executor if executor is not None else make_executor(jobs)
        if not use_cache:
            self.cache: ArtifactCache | None = None
        else:
            self.cache = cache if cache is not None else ArtifactCache(cache_dir)
        # previous-run state (drives warm and incremental rebuilds)
        self.graph: Optional[nx.Graph] = None
        self.anm = None
        self.nidb: Optional[Nidb] = None
        self.fingerprints: dict[str, str] = {}
        self.artifacts: dict[str, Artifact] = {}
        self.render_result: Optional[RenderResult] = None
        self._hasher = TemplateHasher()  # replaced at the start of each build
        self._plan_hits: list[str] = []
        self._plan_misses: list[str] = []
        self._manifest_name: Optional[str] = None

    # -- properties ---------------------------------------------------------
    @property
    def lab_dir(self) -> str:
        return os.path.join(self.output_dir or "", self.host, self.platform)

    # -- full build ---------------------------------------------------------
    def build(
        self,
        source,
        output_dir: str | os.PathLike | None = None,
        telemetry: Telemetry | None = None,
        deploy: bool = False,
        lab_name: str = "lab",
        max_rounds: int = 64,
        deploy_host=None,
        manifest_name: str | None = None,
        prune_stale: bool = False,
    ) -> BuildReport:
        """Run the full DAG for a topology source (path or graph).

        With ``manifest_name`` the build's fingerprint/file map is saved
        to the cache directory; ``prune_stale`` additionally deletes lab
        files recorded by the previous manifest that this build no
        longer produces (devices removed from the topology between two
        CLI invocations).
        """
        telemetry = telemetry or current_telemetry() or Telemetry()
        if output_dir:
            self.output_dir = str(output_dir)
        if self.output_dir is None:
            self.output_dir = tempfile.mkdtemp(prefix="rendered_")
        self._manifest_name = manifest_name
        self._hasher = TemplateHasher()
        previous_manifest = self.load_manifest() if prune_stale else None
        with telemetry.activate():
            graph = TaskGraph()
            graph.add_task(
                "load_build", self._task_load, arg=source,
                phase="load_build", in_parent=True,
            )
            graph.add_task(
                "compile", self._task_compile, deps=("load_build",),
                phase="compile", in_parent=True,
            )
            if deploy:
                graph.add_task(
                    "deploy", self._task_deploy,
                    arg=(lab_name, max_rounds, deploy_host),
                    deps=("compile",), phase="deploy", in_parent=True,
                )
            scheduler = self._scheduler()
            results = scheduler.run(graph)
        report = self._assemble_report(results, scheduler, telemetry, mode="full")
        report.deployment = results.get("deploy")
        if previous_manifest is not None:
            report.removed_devices = self._prune_stale(previous_manifest)
        return report

    # -- incremental build --------------------------------------------------
    def incremental_update(
        self, new_source, telemetry: Telemetry | None = None
    ) -> BuildReport:
        """Re-execute only what a topology change actually dirtied.

        Diffs the new input graph against the previous run's; for
        edge-attribute-only changes the touched endpoint devices are
        recompiled through ``PlatformCompiler.compile(only=…)`` and
        grafted into the previous NIDB, otherwise the whole database is
        recompiled.  Either way, only devices whose fingerprints moved
        are re-rendered.
        """
        if self.nidb is None or self.graph is None:
            raise EngineError(
                "incremental_update requires a completed build() on this engine"
            )
        telemetry = telemetry or current_telemetry() or Telemetry()
        previous_fingerprints = self.fingerprints
        self._hasher = TemplateHasher()
        with telemetry.activate():
            new_graph = _as_graph(new_source)
            delta = graph_delta(self.graph, new_graph)
            with span("load_build", incremental=True):
                anm = design_network(new_graph, rules=self.rules)
            if delta.partial_safe:
                mode = "incremental-partial"
                candidates = delta.candidates()
                with span("compile", incremental=True, only=len(candidates)):
                    if candidates:
                        self._graft_partial_compile(anm, candidates)
            else:
                mode = "incremental-full"
                with span("compile", incremental=True):
                    self.nidb = platform_compiler(
                        self.platform, anm, host=self.host
                    ).compile()
            self.graph, self.anm = new_graph, anm
            self.fingerprints = self.nidb.fingerprints()

            dirty, removed = changed_devices(previous_fingerprints, self.fingerprints)
            log_event(
                INFO, "engine",
                "incremental update: %d dirty, %d removed (%s)"
                % (len(dirty), len(removed), mode),
                dirty=sorted(dirty), removed=removed,
            )

            graph = TaskGraph()
            for task in self._plan_render_tasks(limit_to=dirty):
                graph.add(task)
            scheduler = self._scheduler()
            results = scheduler.run(graph)
            self._delete_artifacts(removed)
        report = self._assemble_report(results, scheduler, telemetry, mode=mode)
        report.removed_devices = removed
        return report

    def _graft_partial_compile(self, anm, candidates: set[str]) -> None:
        """Recompile only the candidate devices and swap them in.

        TAP management addresses are allocated in full-machine-set
        order, so the partial devices inherit the previous run's TAP
        stanza — ``compile(only=…)`` restarts the allocator and would
        otherwise disagree with a from-scratch compile.
        """
        compiler = platform_compiler(self.platform, anm, host=self.host)
        partial = compiler.compile(only=candidates)
        for device in partial:
            previous = self.nidb.node(device.node_id)
            if previous.tap is not None:
                device.tap = previous.tap.to_dict()
            self.nidb.replace_device(device)

    # -- DAG task bodies ----------------------------------------------------
    def _task_load(self, source):
        self.graph = _as_graph(source)
        self.anm = design_network(self.graph, rules=self.rules)
        return self.anm

    def _task_compile(self, _arg) -> Expansion:
        self.nidb = platform_compiler(self.platform, self.anm, host=self.host).compile()
        self.fingerprints = self.nidb.fingerprints()
        metric_inc("engine.builds")
        return Expansion(tasks=self._plan_render_tasks(), result=self.nidb)

    def _scheduler(self) -> Scheduler:
        return Scheduler(
            self.executor, retry_policy=self.retry_policy, strict=self.strict
        )

    def _task_deploy(self, arg):
        from repro.deployment import deploy as deploy_lab
        from repro.resilience import NO_RETRY

        lab_name, max_rounds, deploy_host = arg
        return deploy_lab(
            self.lab_dir,
            host=deploy_host,
            lab_name=lab_name,
            max_rounds=max_rounds,
            strict=self.strict,
            retry_policy=self.retry_policy or NO_RETRY,
        )

    # -- render planning ----------------------------------------------------
    def _context_devices(self) -> list:
        return sorted(self.nidb.nodes(), key=lambda device: str(device.node_id))

    def _plan_render_tasks(self, limit_to: set[str] | None = None) -> list[Task]:
        """Render (or cache-restore) tasks for every device, plus topology.

        ``limit_to`` restricts planning to the given device ids (the
        incremental path); everything else keeps its stored artifact.

        On a serial executor every device gets its own ``render.<id>``
        task.  With ``jobs > 1`` per-device work is batched into
        ``jobs * 2`` contiguous ``render.chunk<NN>`` tasks instead: one
        device's render is far cheaper than a task dispatch (queue hop,
        span, executor metrics), so per-device fan-out at the 116-device
        Small-Internet scale made ``--jobs 4`` *slower* than serial —
        chunking amortises the dispatch overhead while still keeping
        every worker busy.
        """
        self._plan_hits, self._plan_misses = [], []
        devices = self._context_devices()
        renderable = [device for device in devices if device.render]
        restore_in_parent = not self.executor.supports_closures
        tasks: list[Task] = []

        # ("render", device, key) | ("restore", device, key, artifact)
        closure_items: list[tuple] = []
        process_ids: list[tuple[str, Optional[str]]] = []
        for device in renderable:
            device_id = str(device.node_id)
            if limit_to is not None and device_id not in limit_to:
                continue
            use_cache = self.cache is not None
            key = (
                device_cache_key(device, self.fingerprints[device_id], self._hasher)
                if use_cache
                else None
            )
            artifact = self.cache.get(key) if use_cache else None
            if artifact is not None:
                self._plan_hits.append(device_id)
                if restore_in_parent:
                    tasks.append(
                        Task(
                            "render.%s" % device_id,
                            self._task_restore,
                            arg=(device, key, artifact),
                            phase="render",
                            in_parent=True,
                        )
                    )
                else:
                    closure_items.append(("restore", device, key, artifact))
            else:
                self._plan_misses.append(device_id)
                if self.executor.supports_closures:
                    closure_items.append(("render", device, key))
                else:
                    process_ids.append((device_id, key))

        if self.executor.jobs > 1 and len(closure_items) > 1:
            for index, chunk in enumerate(
                _chunked(closure_items, self.executor.jobs * 2)
            ):
                tasks.append(
                    Task(
                        "render.chunk%02d" % index,
                        self._task_render_chunk,
                        arg=chunk,
                        phase="render",
                    )
                )
        else:
            for item in closure_items:
                device_id = str(item[1].node_id)
                if item[0] == "restore":
                    tasks.append(
                        Task(
                            "render.%s" % device_id,
                            self._task_restore,
                            arg=item[1:],
                            phase="render",
                        )
                    )
                else:
                    tasks.append(
                        Task(
                            "render.%s" % device_id,
                            self._task_render_device,
                            arg=item[1:],
                            phase="render",
                        )
                    )

        if process_ids:
            self.executor.prepare(
                _process_worker_init,
                (
                    {
                        "devices": devices,
                        "topology": self.nidb.topology,
                        "lab_dir": self.lab_dir,
                        "template_dirs": template_directories(),
                    },
                ),
            )
            if self.executor.jobs > 1 and len(process_ids) > 1:
                for index, chunk in enumerate(
                    _chunked(process_ids, self.executor.jobs * 2)
                ):
                    tasks.append(
                        Task(
                            "render.chunk%02d" % index,
                            _process_render_chunk,
                            arg=chunk,
                            phase="render",
                        )
                    )
            else:
                for device_id, key in process_ids:
                    tasks.append(
                        Task(
                            "render.%s" % device_id,
                            _process_render_device,
                            arg=(device_id, key),
                            phase="render",
                        )
                    )

        tasks.append(
            Task(
                "render.topology",
                self._task_render_topology,
                phase="render",
                in_parent=True,
            )
        )
        gauge_set("engine.devices_total", len(renderable))
        return tasks

    # -- render task bodies -------------------------------------------------
    def _task_render_chunk(self, items) -> dict:
        """One chunk of per-device work; records come back as a batch."""
        records = []
        for item in items:
            if item[0] == "restore":
                records.append(self._task_restore(item[1:]))
            else:
                records.append(self._task_render_device(item[1:]))
        return {"chunk": records}

    def _render_device_artifact(self, device, key: Optional[str]) -> Artifact:
        jobs = device_render_jobs(device, self.nidb.topology, self._context_devices())
        return _artifact_from_jobs(str(device.node_id), key or "", jobs)

    def _task_render_device(self, arg) -> dict:
        device, key = arg
        artifact = self._render_device_artifact(device, key)
        written, unchanged = _write_artifact(
            artifact, self.lab_dir, skip_unchanged=False
        )
        return {
            "owner": artifact.owner, "artifact": artifact, "from_cache": False,
            "written": written, "unchanged": unchanged,
        }

    def _task_restore(self, arg) -> dict:
        device, key, artifact = arg
        try:
            written, unchanged = _write_artifact(
                artifact, self.lab_dir, skip_unchanged=True
            )
        except (OSError, RenderError):
            # the cached artifact could not be materialised (e.g. a
            # static source file vanished) — fall back to a fresh render
            artifact = self._render_device_artifact(device, key)
            written, unchanged = _write_artifact(
                artifact, self.lab_dir, skip_unchanged=False
            )
            return {
                "owner": artifact.owner, "artifact": artifact, "from_cache": False,
                "written": written, "unchanged": unchanged,
            }
        return {
            "owner": artifact.owner, "artifact": artifact, "from_cache": True,
            "written": written, "unchanged": unchanged,
        }

    def _task_render_topology(self, _arg=None) -> dict:
        use_cache = self.cache is not None
        key = (
            topology_cache_key(self.nidb, self.fingerprints, self._hasher)
            if use_cache
            else None
        )
        artifact = self.cache.get(key) if use_cache else None
        from_cache = artifact is not None
        if artifact is None:
            jobs = topology_render_jobs(self.nidb.topology, self._context_devices())
            artifact = _artifact_from_jobs(TOPOLOGY_OWNER, key or "", jobs)
        written, unchanged = _write_artifact(artifact, self.lab_dir, skip_unchanged=True)
        return {
            "owner": TOPOLOGY_OWNER, "artifact": artifact, "from_cache": from_cache,
            "written": written, "unchanged": unchanged,
        }

    # -- assembly -----------------------------------------------------------
    def _assemble_report(
        self, results: dict, scheduler: Scheduler, telemetry: Telemetry, mode: str
    ) -> BuildReport:
        report = BuildReport(
            output_dir=self.output_dir,
            lab_dir=self.lab_dir,
            mode=mode,
            executor=self.executor.kind,
            failed_tasks={
                task_id: str(failure)
                for task_id, failure in scheduler.failures.items()
            },
            skipped_tasks=sorted(scheduler.skipped),
        )
        for task_id, result in results.items():
            for record in _flatten_records(result):
                artifact = record["artifact"]
                if isinstance(artifact, dict):  # from a process-pool worker
                    artifact = Artifact.from_dict(artifact)
                    record["artifact"] = artifact
                self.artifacts[record["owner"]] = artifact
                report.files_written += record["written"]
                report.files_unchanged += record["unchanged"]
                if record["from_cache"]:
                    if record["owner"] != TOPOLOGY_OWNER:
                        report.cached_devices.append(record["owner"])
                else:
                    if record["owner"] != TOPOLOGY_OWNER:
                        report.rendered_devices.append(record["owner"])
                    if self.cache is not None and artifact.key:
                        self.cache.put(artifact)

        if self.nidb is None:
            # load/compile failed in non-strict mode: there is nothing to
            # collect — return the (empty) partial report.
            report.tasks_run = scheduler.tasks_run
            gauge_set("engine.devices_rendered", 0)
            gauge_set("engine.devices_cached", 0)
            return report

        renderable = [device for device in self._context_devices() if device.render]
        report.devices_total = len(renderable)
        report.rendered_devices.sort()
        report.cached_devices.sort()
        report.cache_hits = len(self._plan_hits)
        report.cache_misses = len(self._plan_misses)
        report.tasks_run = scheduler.tasks_run

        render_result = RenderResult(output_dir=self.output_dir, lab_dir=self.lab_dir)
        for device in renderable:
            artifact = self.artifacts.get(str(device.node_id))
            if artifact is None:
                continue
            for entry in artifact.files:
                render_result.files.append(os.path.join(self.lab_dir, entry["path"]))
                render_result.total_bytes += entry.get("size", 0)
        topology_artifact = self.artifacts.get(TOPOLOGY_OWNER)
        if topology_artifact is not None:
            for entry in topology_artifact.files:
                render_result.files.append(os.path.join(self.lab_dir, entry["path"]))
                render_result.total_bytes += entry.get("size", 0)
        for finished in reversed(telemetry.tracer.finished):
            if finished.name == "render":
                render_result.elapsed_seconds = finished.duration
                break
        report.render_result = render_result
        self.render_result = render_result

        gauge_set("engine.devices_rendered", len(report.rendered_devices))
        gauge_set("engine.devices_cached", len(report.cached_devices))
        self._save_manifest()
        return report

    def _delete_artifacts(self, owners) -> None:
        """Remove the output files of devices that left the topology."""
        for owner in owners:
            artifact = self.artifacts.pop(owner, None)
            if artifact is None:
                continue
            for entry in artifact.files:
                path = os.path.join(self.lab_dir, entry["path"])
                if os.path.exists(path):
                    os.unlink(path)
            machine_dir = os.path.join(self.lab_dir, owner)
            if os.path.isdir(machine_dir):
                shutil.rmtree(machine_dir, ignore_errors=True)

    def _save_manifest(self) -> None:
        if self.cache is None or not self.cache.directory or not self._manifest_name:
            return
        self.cache.save_manifest(
            self._manifest_name,
            {
                "platform": self.platform,
                "output_dir": self.output_dir,
                "fingerprints": self.fingerprints,
                "files": {
                    owner: artifact.paths()
                    for owner, artifact in self.artifacts.items()
                },
            },
        )

    def _prune_stale(self, previous_manifest: dict) -> list[str]:
        """Delete lab files a previous manifest produced but we did not."""
        current = {
            path
            for artifact in self.artifacts.values()
            for path in artifact.paths()
        }
        removed_owners = []
        for owner, paths in (previous_manifest.get("files") or {}).items():
            stale = [path for path in paths if path not in current]
            if stale and owner not in self.artifacts:
                removed_owners.append(owner)
            for path in stale:
                full = os.path.join(self.lab_dir, path)
                if os.path.exists(full):
                    os.unlink(full)
                    metric_inc("engine.files_pruned")
            if owner not in self.artifacts and owner != TOPOLOGY_OWNER:
                machine_dir = os.path.join(self.lab_dir, owner)
                if os.path.isdir(machine_dir):
                    shutil.rmtree(machine_dir, ignore_errors=True)
        return sorted(removed_owners)

    def load_manifest(self) -> Optional[dict]:
        if self.cache is None or not self._manifest_name:
            return None
        return self.cache.load_manifest(self._manifest_name)

    def shutdown(self) -> None:
        self.executor.shutdown()

    def __repr__(self) -> str:
        return "BuildEngine(platform=%r, executor=%s, cache=%s)" % (
            self.platform,
            self.executor.kind,
            "off" if self.cache is None else "on",
        )


def incremental_update(engine: BuildEngine, new_source) -> BuildReport:
    """Module-level convenience: ``engine.incremental_update(new_source)``."""
    return engine.incremental_update(new_source)


def _chunked(items: list, chunk_count: int) -> list[tuple]:
    """Partition ``items`` into at most ``chunk_count`` contiguous runs.

    Contiguity keeps chunk membership (and therefore task boundaries)
    deterministic for a given device ordering, and sizes differ by at
    most one so no worker inherits a long tail.
    """
    count = min(len(items), max(1, chunk_count))
    size, extra = divmod(len(items), count)
    chunks, start = [], 0
    for index in range(count):
        end = start + size + (1 if index < extra else 0)
        chunks.append(tuple(items[start:end]))
        start = end
    return chunks


def _flatten_records(result) -> list[dict]:
    """Per-device records from a task result — single or chunked."""
    if not isinstance(result, dict):
        return []
    if "chunk" in result:
        return [
            record
            for record in result["chunk"]
            if isinstance(record, dict) and "artifact" in record
        ]
    if "artifact" in result:
        return [result]
    return []


def _as_graph(source) -> nx.Graph:
    if isinstance(source, nx.Graph):
        return source
    from repro.workflow import load_topology

    return load_topology(source)


def _artifact_from_jobs(owner: str, key: str, jobs) -> Artifact:
    artifact = Artifact(key=key, owner=owner)
    for job in jobs:
        if job.text is not None:
            artifact.files.append(
                {
                    "path": job.path,
                    "sha": text_sha(job.text),
                    "size": len(job.text),
                    "text": job.text,
                }
            )
        else:
            artifact.files.append(
                {
                    "path": job.path,
                    "sha": file_sha(job.source),
                    "size": os.path.getsize(job.source),
                    "source": job.source,
                }
            )
    return artifact


def _write_artifact(
    artifact: Artifact, lab_dir: str, skip_unchanged: bool
) -> tuple[int, int]:
    """Materialise an artifact under the lab dir; returns (written, skipped).

    With ``skip_unchanged`` the on-disk content hash is compared first,
    so warm rebuilds touch nothing — the §3.2 bottleneck is exactly
    these file-system writes.
    """
    written = unchanged = 0
    for entry in artifact.files:
        out_path = os.path.join(lab_dir, entry["path"])
        if skip_unchanged and os.path.exists(out_path):
            try:
                if file_sha(out_path) == entry["sha"]:
                    unchanged += 1
                    metric_inc("engine.files_unchanged")
                    continue
            except OSError:
                pass
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        if entry.get("text") is not None:
            with open(out_path, "w") as handle:
                handle.write(entry["text"])
        elif entry.get("source") is not None:
            shutil.copyfile(entry["source"], out_path)
        else:
            raise RenderError(
                "cached artifact entry for %r has neither text nor source"
                % entry["path"]
            )
        written += 1
        metric_inc("engine.files_written")
    return written, unchanged


# -- process-pool worker side ------------------------------------------------
_WORKER_CONTEXT: dict = {}


def _process_worker_init(context: dict) -> None:
    """Runs once per worker process: install the shared render context."""
    _WORKER_CONTEXT.clear()
    _WORKER_CONTEXT.update(context)
    _WORKER_CONTEXT["by_id"] = {
        str(device.node_id): device for device in context["devices"]
    }
    for path in context.get("template_dirs", []):
        add_template_directory(path)


def _process_render_device(arg) -> dict:
    """Render one device inside a pool worker; returns a plain-dict record."""
    device_id, key = arg
    device = _WORKER_CONTEXT["by_id"][device_id]
    jobs = device_render_jobs(
        device, _WORKER_CONTEXT["topology"], _WORKER_CONTEXT["devices"]
    )
    artifact = _artifact_from_jobs(device_id, key or "", jobs)
    written, unchanged = _write_artifact(
        artifact, _WORKER_CONTEXT["lab_dir"], skip_unchanged=False
    )
    return {
        "owner": device_id, "artifact": artifact.to_dict(), "from_cache": False,
        "written": written, "unchanged": unchanged,
    }


def _process_render_chunk(arg) -> dict:
    """Render a whole chunk of devices inside one pool-worker dispatch."""
    return {"chunk": [_process_render_device(item) for item in arg]}
