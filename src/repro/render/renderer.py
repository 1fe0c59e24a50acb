"""Configuration rendering: NIDB + templates -> config files (§4.1, §5.5).

Templates are deliberately limited to "simple logic, such as for loops,
conditionals and variable substitution, or basic formatting, such as IP
addresses" — complicated transformations belong in the compiler.  The
renderer therefore provides only substitution plus a handful of
address-formatting filters (netmask/wildcard conversion, the
"device-specific operations, such as subnet formatting" of §4).

Every device's ``render.files`` entries (template name, output path)
are rendered with the device as ``node``; topology-level entries
(lab.conf, network.cli, ...) get the whole device list.  Output paths
are laid out ``<output_dir>/<host>/<platform>/<path>``, matching the
paper's ``localhost/netkit/as100r1`` example.
"""

from __future__ import annotations

import ipaddress
import os
import shutil
import threading
import time
from dataclasses import dataclass, field

import jinja2

from repro.exceptions import RenderError
from repro.nidb import Nidb
from repro.observability import metric_inc, span

_ENVIRONMENT: jinja2.Environment | None = None
_EXTRA_TEMPLATE_DIRS: list[str] = []
#: Guards lazy (re)initialisation of the shared environment so worker
#: threads rendering concurrently never observe a half-built one.
_ENVIRONMENT_LOCK = threading.RLock()


def add_template_directory(path: str | os.PathLike) -> None:
    """Register a user template directory (searched before the bundled set).

    This is the §4.1 extension point: supporting a new vendor, OS
    version, or service "can be added simply through addition of a new
    template" — drop the template file in a directory and register it.
    """
    global _ENVIRONMENT
    path = str(path)
    with _ENVIRONMENT_LOCK:
        if path not in _EXTRA_TEMPLATE_DIRS:
            _EXTRA_TEMPLATE_DIRS.append(path)
        _ENVIRONMENT = None  # rebuild with the new search path


def template_directories() -> list[str]:
    """The registered user template directories, in search order."""
    with _ENVIRONMENT_LOCK:
        return list(_EXTRA_TEMPLATE_DIRS)


def _netmask(prefixlen) -> str:
    return str(ipaddress.ip_network("0.0.0.0/%d" % int(prefixlen)).netmask)


def _netmask_of(cidr) -> str:
    return str(ipaddress.ip_network(str(cidr), strict=False).netmask)


def _wildcard(cidr) -> str:
    return str(ipaddress.ip_network(str(cidr), strict=False).hostmask)


def _network_address(cidr) -> str:
    return str(ipaddress.ip_network(str(cidr), strict=False).network_address)


def environment() -> jinja2.Environment:
    """The shared Jinja2 environment with the address filters loaded.

    Thread-safe: initialisation is double-checked under a lock, and the
    fully built environment is published in a single assignment, so the
    thread/process-pool executors can render concurrently.
    """
    global _ENVIRONMENT
    env = _ENVIRONMENT
    if env is not None:
        return env
    with _ENVIRONMENT_LOCK:
        if _ENVIRONMENT is None:
            loaders: list[jinja2.BaseLoader] = [
                jinja2.FileSystemLoader(path) for path in _EXTRA_TEMPLATE_DIRS
            ]
            loaders.append(jinja2.PackageLoader("repro", "templates"))
            env = jinja2.Environment(
                loader=jinja2.ChoiceLoader(loaders),
                trim_blocks=True,
                lstrip_blocks=True,
                keep_trailing_newline=True,
                undefined=jinja2.StrictUndefined,
            )
            env.filters["netmask"] = _netmask
            env.filters["netmask_of"] = _netmask_of
            env.filters["wildcard"] = _wildcard
            env.filters["network_address"] = _network_address
            _ENVIRONMENT = env
        return _ENVIRONMENT


def template_source(template_name: str) -> str:
    """The source text of a template as the loader resolves it.

    The build engine hashes this (together with the device's compiled
    state) into content-addressed cache keys, so editing a template
    invalidates exactly the devices that reference it.
    """
    env = environment()
    try:
        source, _, _ = env.loader.get_source(env, template_name)
    except jinja2.TemplateNotFound as exc:
        raise RenderError("template %r not found" % template_name) from exc
    return source


@dataclass
class RenderResult:
    """Summary of one render run: where the lab landed and how big it is."""

    output_dir: str
    lab_dir: str
    files: list[str] = field(default_factory=list)
    total_bytes: int = 0
    elapsed_seconds: float = 0.0

    @property
    def n_files(self) -> int:
        return len(self.files)

    def __repr__(self) -> str:
        return "RenderResult(%d files, %d bytes, %s)" % (
            self.n_files,
            self.total_bytes,
            self.lab_dir,
        )


@dataclass(frozen=True)
class RenderJob:
    """One output file of a render run, before it is written.

    Either ``text`` carries rendered template output, or ``source``
    names a static file to copy verbatim.  ``path`` is relative to the
    lab directory.  Jobs are pure data, so the build engine can compute
    them in worker threads/processes and write (or cache) them anywhere.
    """

    path: str
    text: str | None = None
    source: str | None = None


def device_render_jobs(device, topology=None, devices=None) -> list[RenderJob]:
    """The render jobs for one device: template folders, then files.

    Pure with respect to the filesystem output: nothing is written.
    ``topology``/``devices`` are passed through as template context
    (device templates are node-scoped; the extra context exists for
    user templates).
    """
    jobs: list[RenderJob] = []
    if not device.render:
        return jobs
    for folder in device.render.folders or []:
        jobs.extend(_folder_jobs(folder, device, topology, devices))
    for entry in device.render.files or []:
        template_name, path = _entry(entry)
        text = render_template(
            template_name,
            node=device,
            topology=topology,
            devices=devices,
        )
        jobs.append(RenderJob(path=path, text=text))
    return jobs


def topology_render_jobs(topology, devices) -> list[RenderJob]:
    """The render jobs for the topology-level files (lab.conf, ...)."""
    jobs: list[RenderJob] = []
    if not topology or not topology.render:
        return jobs
    for entry in topology.render.files or []:
        template_name, path = _entry(entry)
        text = render_template(template_name, topology=topology, devices=devices)
        jobs.append(RenderJob(path=path, text=text))
    return jobs


def write_job(
    result: RenderResult, lab_dir: str, job: RenderJob, made_dirs: set | None = None
) -> str:
    """Write one job under the lab directory; returns the output path.

    ``made_dirs`` is the set of directories this render run already
    created: a directory in it is not made again.
    """
    out_path = os.path.join(lab_dir, job.path)
    directory = os.path.dirname(out_path)
    if made_dirs is None:
        made_dirs = set()
    if directory not in made_dirs:
        os.makedirs(directory, exist_ok=True)
        made_dirs.add(directory)
    if job.text is not None:
        _write(result, out_path, job.text)
    else:
        shutil.copyfile(job.source, out_path)
        result.files.append(out_path)
        result.total_bytes += os.path.getsize(out_path)
    return out_path


def render_template(template_name: str, **context) -> str:
    """Render one template by name with the given context."""
    env = environment()
    try:
        template = env.get_template(template_name)
    except jinja2.TemplateNotFound as exc:
        raise RenderError("template %r not found" % template_name) from exc
    try:
        text = template.render(**context)
    except jinja2.TemplateError as exc:
        raise RenderError("rendering %r failed: %s" % (template_name, exc)) from exc
    metric_inc("render.templates_rendered")
    return text


def render_nidb(nidb: Nidb, output_dir: str | os.PathLike) -> RenderResult:
    """Render every device and topology file of a compiled NIDB.

    Returns a :class:`RenderResult` recording the lab directory (the
    deployable unit), the file list, and timing — the quantities the
    §3.2 scale experiment reports.
    """
    started = time.perf_counter()
    output_dir = str(output_dir)
    platform = nidb.topology.platform or "unknown"
    host = nidb.topology.host or "localhost"
    lab_dir = os.path.join(output_dir, host, platform)
    devices = sorted(nidb.nodes(), key=lambda device: str(device.node_id))
    result = RenderResult(output_dir=output_dir, lab_dir=lab_dir)
    made_dirs: set[str] = set()

    for device in devices:
        if not device.render:
            continue
        with span("render.%s" % device.hostname, device=str(device.node_id)):
            for job in device_render_jobs(device, nidb.topology, devices):
                write_job(result, lab_dir, job, made_dirs)

    for job in topology_render_jobs(nidb.topology, devices):
        write_job(result, lab_dir, job, made_dirs)

    result.elapsed_seconds = time.perf_counter() - started
    return result


def _folder_jobs(folder, device, topology, devices) -> list[RenderJob]:
    """Jobs for a template folder (§5.5): copy static files, render *.j2.

    ``folder`` is ``{"source": <directory>, "dst": <path under the lab>}``;
    this "allows simple specification of nested folders to configure
    services, without writing code".
    """
    source = str(folder["source"] if isinstance(folder, dict) else folder.source)
    dst = str(folder["dst"] if isinstance(folder, dict) else folder.dst)
    if not os.path.isdir(source):
        raise RenderError("template folder %r does not exist" % source)
    jobs: list[RenderJob] = []
    for root, _, names in os.walk(source):
        relative_root = os.path.relpath(root, source)
        for name in sorted(names):
            source_path = os.path.join(root, name)
            relative = os.path.normpath(os.path.join(relative_root, name))
            if name.endswith(".j2"):
                env = environment()
                with open(source_path) as handle:
                    template = env.from_string(handle.read())
                text = template.render(node=device, topology=topology, devices=devices)
                jobs.append(
                    RenderJob(
                        path=os.path.join(dst, relative[: -len(".j2")]), text=text
                    )
                )
            else:
                jobs.append(
                    RenderJob(path=os.path.join(dst, relative), source=source_path)
                )
    return jobs


def _entry(entry) -> tuple[str, str]:
    """Accept render entries as stanzas or plain dicts (user extensions)."""
    if isinstance(entry, dict):
        return str(entry["template"]), str(entry["path"])
    return str(entry.template), str(entry.path)


def _write(result: RenderResult, path: str, text: str) -> None:
    with open(path, "w") as handle:
        handle.write(text)
    result.files.append(path)
    result.total_bytes += len(text)
    metric_inc("render.files_written")
    metric_inc("render.bytes_written", len(text))
