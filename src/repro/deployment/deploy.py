"""Automated deployment: archive, transfer, extract, start, monitor (§6.1).

"The Netkit deployment script archives the generated configuration
files, transfers them to the emulation host, extracts them, and runs
the Netkit lstart command."  This module is that script — the paper
notes the whole flow is under a hundred lines of high-level code, a
property this implementation preserves.

Each stage runs under a :class:`~repro.resilience.RetryPolicy` (default
:data:`~repro.resilience.NO_RETRY`, preserving fail-fast behaviour):
transient host errors are retried with deterministic backoff and every
attempt lands in telemetry as ``retry.*`` metrics and ``fault.*``
events.  The archive staging directory is temporary and cleaned up when
the deployment finishes unless ``keep_archive=True``.
"""

from __future__ import annotations

import logging
import os
import shutil
import stat
import tarfile
import tempfile
from dataclasses import dataclass, field

from repro.deployment.host import LocalEmulationHost
from repro.deployment.monitor import ProgressMonitor
from repro.emulation import EmulatedLab
from repro.exceptions import DeploymentError
from repro.observability import gauge_set, metric_inc, span
from repro.resilience import NO_RETRY, RetryPolicy, retry_call
from repro.supervision import checkpoint

logger = logging.getLogger("repro.deployment")


@dataclass
class DeploymentRecord:
    """Everything a finished deployment produced."""

    lab_name: str
    host: LocalEmulationHost
    lab: EmulatedLab
    archive_path: str
    lab_dir: str
    timings: dict = field(default_factory=dict)
    monitor: ProgressMonitor = field(default_factory=ProgressMonitor)


def archive_lab(source_dir: str, lab_name: str, archive_dir: str | None = None) -> str:
    """Tar up a rendered lab directory for transfer.

    Without ``archive_dir`` a fresh temporary directory is created; the
    caller owns its lifetime (:func:`deploy` removes it when done).
    """
    if not os.path.isdir(source_dir):
        raise DeploymentError("rendered lab directory %s does not exist" % source_dir)
    archive_dir = archive_dir or tempfile.mkdtemp(prefix="lab_archive_")
    archive_path = os.path.join(archive_dir, "%s.tar.gz" % lab_name)
    # gzip's own default level, what ``tar czf`` uses; tarfile defaults to 9
    with tarfile.open(archive_path, "w:gz", compresslevel=6) as archive:
        _add_tree(archive, source_dir, "")
    return archive_path


def _add_tree(archive: tarfile.TarFile, directory: str, prefix: str) -> None:
    """Add ``directory``'s entries in sorted pre-order, each directory first.

    The headers are built here rather than by ``TarFile.add``: an
    integer mtime fits the plain ustar header (a float one costs a PAX
    header per member), and no owner is recorded, so no user or group
    name is looked up.
    """
    for entry in sorted(os.scandir(directory), key=lambda entry: entry.name):
        info = tarfile.TarInfo(prefix + entry.name)
        status = entry.stat(follow_symlinks=False)
        info.mode = stat.S_IMODE(status.st_mode)
        info.mtime = int(status.st_mtime)
        if entry.is_dir(follow_symlinks=False):
            info.type = tarfile.DIRTYPE
            archive.addfile(info)
            _add_tree(archive, entry.path, info.name + "/")
        elif entry.is_file(follow_symlinks=False):
            info.size = status.st_size
            with open(entry.path, "rb") as handle:
                archive.addfile(info, handle)
        else:
            archive.add(entry.path, arcname=info.name, recursive=False)


def deploy(
    source_dir: str,
    host: LocalEmulationHost | None = None,
    lab_name: str = "lab",
    username: str = "emulation",
    monitor: ProgressMonitor | None = None,
    retry_policy: RetryPolicy = NO_RETRY,
    keep_archive: bool = False,
    **boot_options,
) -> DeploymentRecord:
    """Run the full deployment flow and return the running lab.

    The three parameters of §6.1 — emulation host, username, and the
    source directory of configurations — map directly onto the
    arguments; the username is kept for interface fidelity (a local
    host does not authenticate).

    ``retry_policy`` governs every stage that touches the host; the
    default single attempt preserves fail-fast semantics.  The staged
    archive is deleted on return unless ``keep_archive=True`` (it has
    already been transferred to the host either way).
    """
    host = host or LocalEmulationHost()
    monitor = monitor or ProgressMonitor()
    monitor.start()
    timings: dict[str, float] = {}
    archive_staging: str | None = None

    try:
        with span("deploy.archive", lab_name=lab_name) as stage:
            checkpoint("deploy.archive")
            monitor.update("archive", "archiving %s" % source_dir, source_dir=source_dir)
            archive_path = retry_call(
                lambda: archive_lab(source_dir, lab_name),
                policy=retry_policy,
                operation="deploy.archive",
            )
            archive_staging = os.path.dirname(archive_path)
        timings["archive"] = stage.duration

        with span("deploy.transfer", host=host.name) as stage:
            checkpoint("deploy.transfer")
            monitor.update(
                "transfer",
                "transferring to %s as %s" % (host.name, username),
                host=host.name,
                username=username,
            )
            remote_archive = retry_call(
                lambda: host.receive(archive_path, lab_name),
                policy=retry_policy,
                operation="deploy.transfer",
            )
        timings["transfer"] = stage.duration

        with span("deploy.extract") as stage:
            checkpoint("deploy.extract")
            monitor.update("extract", "extracting %s" % remote_archive)
            lab_dir = retry_call(
                lambda: host.extract(remote_archive, lab_name),
                policy=retry_policy,
                operation="deploy.extract",
            )
        timings["extract"] = stage.duration

        with span("deploy.lstart", lab_name=lab_name) as stage:
            checkpoint("deploy.lstart")
            monitor.update("lstart", "starting lab %s" % lab_name, lab_name=lab_name)
            lab = retry_call(
                lambda: host.lstart(lab_dir, lab_name, **boot_options),
                policy=retry_policy,
                operation="deploy.lstart",
            )
        timings["start"] = stage.duration
        metric_inc("deploy.labs_started")
    finally:
        if not keep_archive and archive_staging is not None:
            shutil.rmtree(archive_staging, ignore_errors=True)

    quarantined = getattr(lab, "quarantined", {})
    gauge_set("deploy.quarantined_vms", len(quarantined))
    if quarantined:
        logger.warning(
            "lab %s booted degraded: %d VM(s) quarantined (%s)",
            lab_name,
            len(quarantined),
            ", ".join(sorted(quarantined)),
        )

    logger.info(
        "lab %s deployed to %s in %.2fs",
        lab_name,
        host.name,
        sum(timings.values()),
    )
    monitor.update(
        "ready",
        "%d virtual machines up%s, BGP %s"
        % (
            len(lab.network),
            " (%d quarantined)" % len(quarantined) if quarantined else "",
            "converged" if lab.converged else ("oscillating" if lab.oscillating else "running"),
        ),
    )
    return DeploymentRecord(
        lab_name=lab_name,
        host=host,
        lab=lab,
        archive_path=archive_path,
        lab_dir=lab_dir,
        timings=timings,
        monitor=monitor,
    )
