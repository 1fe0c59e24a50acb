"""The build engine: incremental, content-addressed builds.

:class:`BuildEngine` runs the compile→render half of the pipeline as one
straight line — ``load_build → compile → render`` — with one telemetry
span per phase; :meth:`BuildEngine.render` runs the last one alone.
Render restores cache hits in the parent, renders the misses inline
(``jobs=1``) or over one process pool (``jobs>1``), and writes the
topology files (``lab.conf``, ...) last.

Each device's render is keyed by a stable content hash of its compiled
NIDB subtree plus the source of every template it references
(:mod:`repro.engine.hashing`).  Hits in the :class:`ArtifactCache` skip
rendering entirely — a warm rebuild of an unchanged topology re-renders
0 device files — and :func:`incremental_update` diffs a new topology
against the previous run, recompiles only the touched devices (through
``PlatformCompiler.compile(only=…)``), and re-renders only the devices
whose fingerprints moved.

With ``strict=False`` a failing phase or device render is recorded in
:attr:`BuildReport.failed_tasks` (``"compile"``, ``"render.<id>"``)
instead of raising, and every other device still renders;
``retry_policy`` retries each phase and each device render first.  The
engine maintains ``engine.cache_hits`` / ``engine.cache_misses`` /
``engine.tasks_failed``, so cache efficacy reads straight off
``--metrics``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent import futures
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import networkx as nx

from repro.compilers import platform_compiler
from repro.design import DEFAULT_RULES, design_network
from repro.engine.cache import Artifact, ArtifactCache, file_sha, text_sha
from repro.engine.hashing import TemplateHasher, device_cache_key, topology_cache_key
from repro.exceptions import EngineError, RenderError
from repro.nidb import Nidb, changed_devices
from repro.observability import (
    INFO,
    WARNING,
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
from repro.resilience import retry_call
from repro.supervision.context import checkpoint

#: Artifact owner id for the topology-level files (lab.conf, ...).
TOPOLOGY_OWNER = "__topology__"


@dataclass
class BuildReport:
    """What one engine run did: artifacts, cache traffic, failures."""

    output_dir: str = ""
    lab_dir: str = ""
    mode: str = "full"
    jobs: int = 1
    render_result: Optional[RenderResult] = None
    devices_total: int = 0
    rendered_devices: list[str] = field(default_factory=list)
    cached_devices: list[str] = field(default_factory=list)
    removed_devices: list[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    files_written: int = 0
    files_unchanged: int = 0
    #: ``"load_build"``, ``"compile"`` or ``"render.<id>"`` -> error text,
    #: for what failed in non-strict mode
    failed_tasks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed_tasks

    def summary(self) -> str:
        text = (
            "%s build: %d devices (%d rendered, %d from cache), "
            "cache %d hit / %d miss, %d files written, %d unchanged"
            % (
                self.mode,
                self.devices_total,
                len(self.rendered_devices),
                len(self.cached_devices),
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
    """Runs the compile→render pipeline as one cached, straight-line build."""

    def __init__(
        self,
        platform: str = "netkit",
        rules=DEFAULT_RULES,
        host: str = "localhost",
        output_dir: str | os.PathLike | None = None,
        jobs: int = 1,
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
        #: 1 renders inline; more renders cache misses over that many processes
        self.jobs = max(1, jobs)
        self.strict = strict
        self.retry_policy = retry_policy
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
        self._hasher = TemplateHasher()  # replaced at the start of each render
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
        manifest_name: str | None = None,
        prune_stale: bool = False,
    ) -> BuildReport:
        """Load, compile and render a topology source (path or graph).

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
        previous_manifest = self.load_manifest() if prune_stale else None
        report = self._new_report("full")
        with telemetry.activate():
            compiled = self._phase(
                report, "load_build", lambda: self._load(source)
            ) and self._phase(report, "compile", self._compile)
        if compiled:
            report = self.render(self.output_dir, telemetry)
        if previous_manifest is not None:
            report.removed_devices = self._prune_stale(previous_manifest)
        return report

    def render(self, output_dir, telemetry: Telemetry | None = None) -> BuildReport:
        """The render phase of :meth:`build` on its own: render the compiled
        state this engine holds into ``output_dir``, with no design or compile."""
        if self.nidb is None:
            raise EngineError("render requires a completed build() on this engine")
        telemetry = telemetry or current_telemetry() or Telemetry()
        self.output_dir = str(output_dir)
        self._hasher = TemplateHasher()
        report = self._new_report("full")
        with telemetry.activate():
            self._render(report)
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
            checkpoint("engine.load_build")
            with span("load_build", incremental=True):
                anm = design_network(new_graph, rules=self.rules)
            checkpoint("engine.compile")
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
            report = self._new_report(mode)
            self._delete_artifacts(removed)
            self._render(report, limit_to=dirty)
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

    # -- phases -------------------------------------------------------------
    def _new_report(self, mode: str) -> BuildReport:
        return BuildReport(
            output_dir=self.output_dir, lab_dir=self.lab_dir, mode=mode, jobs=self.jobs
        )

    def _phase(self, report: BuildReport, name: str, fn) -> bool:
        """Run one phase under its span; False when it failed non-strictly."""
        checkpoint("engine.%s" % name)
        with span(name):
            outcome = _attempt(name, fn, self.retry_policy, self.strict)
        if isinstance(outcome, _Failure):
            _record_failure(report, outcome)
            return False
        return True

    def _load(self, source) -> None:
        self.graph = _as_graph(source)
        self.anm = design_network(self.graph, rules=self.rules)

    def _compile(self) -> None:
        self.nidb = platform_compiler(self.platform, self.anm, host=self.host).compile()
        self.fingerprints = self.nidb.fingerprints()
        metric_inc("engine.builds")

    def _context_devices(self) -> list:
        return sorted(self.nidb.nodes(), key=lambda device: str(device.node_id))

    def _render(self, report: BuildReport, limit_to: set[str] | None = None) -> None:
        """Restore hits, render misses, then the topology files.

        ``limit_to`` restricts the pass to the given device ids (the
        incremental path); everything else keeps its stored artifact.
        """
        checkpoint("engine.render")
        devices = self._context_devices()
        renderable = [device for device in devices if device.render]
        gauge_set("engine.devices_total", len(renderable))
        with span("render", devices=len(renderable), jobs=self.jobs) as render_span:
            misses: list[tuple[str, Optional[str]]] = []
            for device in renderable:
                device_id = str(device.node_id)
                if limit_to is not None and device_id not in limit_to:
                    continue
                key = artifact = None
                if self.cache is not None:
                    key = device_cache_key(
                        device, self.fingerprints[device_id], self._hasher
                    )
                    artifact = self.cache.get(key)
                if artifact is None:
                    report.cache_misses += 1
                    misses.append((device_id, key))
                    continue
                report.cache_hits += 1
                self._collect(report, _attempt(
                    "render.%s" % device_id,
                    lambda: self._restore(device, key, artifact, devices),
                    self.retry_policy, self.strict,
                ))
            renderer = _DeviceRenderer(
                devices, self.nidb.topology, self.lab_dir,
                self.retry_policy, self.strict,
            )
            for outcome in self._render_misses(renderer, misses):
                self._collect(report, outcome)
            with span("render.topology"):
                self._collect(report, _attempt(
                    "render.topology", lambda: self._render_topology(devices),
                    self.retry_policy, self.strict,
                ))
        self._finish(report, renderable, render_span.duration)

    def _render_misses(self, renderer: "_DeviceRenderer", misses: list) -> list:
        """Render every cache miss: inline, or over one process pool.

        The pool uses the platform's default start method; under fork
        the workers inherit the compiled devices instead of unpickling
        them.
        """
        if self.jobs == 1 or len(misses) < 2:
            return [renderer(item) for item in misses]
        with futures.ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=_install_renderer,
            initargs=(renderer, template_directories()),
        ) as pool:
            # contiguous chunks, two per worker: one device renders far
            # faster than one pool dispatch, so batching keeps the pipe cheap
            chunksize = -(-len(misses) // (self.jobs * 2))
            return list(pool.map(_render_in_worker, misses, chunksize=chunksize))

    def _restore(self, device, key, artifact: Artifact, devices) -> "_Outcome":
        try:
            written, unchanged = _write_artifact(
                artifact, self.lab_dir, skip_unchanged=True
            )
        except (OSError, RenderError):
            # the cached artifact could not be materialised (e.g. a
            # static source file vanished) — fall back to a fresh render
            artifact = _render_artifact(device, key, self.nidb.topology, devices)
            written, unchanged = _write_artifact(
                artifact, self.lab_dir, skip_unchanged=False
            )
            return _Outcome(artifact, False, written, unchanged)
        return _Outcome(artifact, True, written, unchanged)

    def _render_topology(self, devices) -> "_Outcome":
        key = artifact = None
        if self.cache is not None:
            key = topology_cache_key(self.nidb, self.fingerprints, self._hasher)
            artifact = self.cache.get(key)
        from_cache = artifact is not None
        if artifact is None:
            jobs = topology_render_jobs(self.nidb.topology, devices)
            artifact = _artifact_from_jobs(TOPOLOGY_OWNER, key or "", jobs)
        written, unchanged = _write_artifact(artifact, self.lab_dir, skip_unchanged=True)
        return _Outcome(artifact, from_cache, written, unchanged)

    # -- assembly -----------------------------------------------------------
    def _collect(self, report: BuildReport, outcome) -> None:
        """Fold one render outcome into the report, the state and the cache."""
        if isinstance(outcome, _Failure):
            _record_failure(report, outcome)
            return
        artifact = outcome.artifact
        self.artifacts[artifact.owner] = artifact
        report.files_written += outcome.written
        report.files_unchanged += outcome.unchanged
        metric_inc("engine.files_written", outcome.written)
        metric_inc("engine.files_unchanged", outcome.unchanged)
        if outcome.from_cache:
            if artifact.owner != TOPOLOGY_OWNER:
                report.cached_devices.append(artifact.owner)
            return
        if artifact.owner != TOPOLOGY_OWNER:
            report.rendered_devices.append(artifact.owner)
        if self.cache is not None and artifact.key:
            self.cache.put(artifact)

    def _finish(
        self, report: BuildReport, renderable: list, render_seconds: float
    ) -> None:
        report.devices_total = len(renderable)
        report.rendered_devices.sort()
        report.cached_devices.sort()

        render_result = RenderResult(
            output_dir=self.output_dir,
            lab_dir=self.lab_dir,
            elapsed_seconds=render_seconds,
        )
        owners = [str(device.node_id) for device in renderable] + [TOPOLOGY_OWNER]
        for owner in owners:
            artifact = self.artifacts.get(owner)
            if artifact is None:
                continue
            for entry in artifact.files:
                render_result.files.append(os.path.join(self.lab_dir, entry["path"]))
                render_result.total_bytes += entry.get("size", 0)
        report.render_result = render_result
        self.render_result = render_result

        gauge_set("engine.devices_rendered", len(report.rendered_devices))
        gauge_set("engine.devices_cached", len(report.cached_devices))
        self._save_manifest()

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
        """Nothing to release: the render pool lives for one build only."""

    def __repr__(self) -> str:
        return "BuildEngine(platform=%r, jobs=%d, cache=%s)" % (
            self.platform,
            self.jobs,
            "off" if self.cache is None else "on",
        )


def incremental_update(engine: BuildEngine, new_source) -> BuildReport:
    """Module-level convenience: ``engine.incremental_update(new_source)``."""
    return engine.incremental_update(new_source)


class _Outcome(NamedTuple):
    """One artifact put in place under the lab directory."""

    artifact: Artifact
    from_cache: bool
    written: int
    unchanged: int


@dataclass
class _Failure:
    """Picklable record of one phase's or device's non-strict failure."""

    task_id: str
    error: str


def _attempt(task_id: str, fn, retry_policy, strict: bool):
    """Call ``fn()`` under the retry policy.

    In non-strict mode an exception becomes a :class:`_Failure` instead
    of propagating, which is what lets one device's failure yield a
    partial build instead of aborting the whole run.
    """
    try:
        if retry_policy is not None and retry_policy.max_attempts > 1:
            return retry_call(fn, policy=retry_policy, operation="task.%s" % task_id)
        return fn()
    except Exception as exc:
        if strict:
            raise
        return _Failure(task_id, "%s: %s" % (type(exc).__name__, exc))


def _record_failure(report: BuildReport, failure: _Failure) -> None:
    report.failed_tasks[failure.task_id] = failure.error
    metric_inc("engine.tasks_failed")
    log_event(
        WARNING,
        "engine.task_failed",
        "task %s failed: %s" % (failure.task_id, failure.error),
        task=failure.task_id,
        error=failure.error,
    )


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
    return written, unchanged


def _render_artifact(device, key: Optional[str], topology, devices) -> Artifact:
    jobs = device_render_jobs(device, topology, devices)
    return _artifact_from_jobs(str(device.node_id), key or "", jobs)


class _DeviceRenderer:
    """Renders one cache miss into the lab directory, in the parent or a
    pool worker, and returns an :class:`_Outcome` or a :class:`_Failure`."""

    def __init__(self, devices, topology, lab_dir: str, retry_policy, strict: bool):
        self.devices = devices
        self.by_id = {str(device.node_id): device for device in devices}
        self.topology = topology
        self.lab_dir = lab_dir
        self.retry_policy = retry_policy
        self.strict = strict

    def __call__(self, item: tuple[str, Optional[str]]):
        device_id, key = item

        def render() -> _Outcome:
            artifact = _render_artifact(
                self.by_id[device_id], key, self.topology, self.devices
            )
            written, unchanged = _write_artifact(
                artifact, self.lab_dir, skip_unchanged=False
            )
            return _Outcome(artifact, False, written, unchanged)

        return _attempt(
            "render.%s" % device_id, render, self.retry_policy, self.strict
        )


# -- process-pool worker side ------------------------------------------------
_WORKER_RENDERER: Optional[_DeviceRenderer] = None


def _install_renderer(renderer: _DeviceRenderer, template_dirs: list) -> None:
    """Runs once per worker process: install the shared render context."""
    global _WORKER_RENDERER
    _WORKER_RENDERER = renderer
    for path in template_dirs:
        add_template_directory(path)


def _render_in_worker(item: tuple[str, Optional[str]]):
    return _WORKER_RENDERER(item)
