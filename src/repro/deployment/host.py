"""Emulation hosts: where rendered labs are shipped and started.

The paper deploys over SSH/expect to a remote emulation server and runs
Netkit's ``lstart``.  :class:`LocalEmulationHost` is the substituted
equivalent: it exposes the same staged surface (receive an archive,
extract it, start the lab, report status) against the local filesystem
and the in-process emulation substrate, preserving the workflow and its
failure modes (a missing lab.conf aborts the start, exactly as lstart
would).
Extraction writes nothing: it checks the received archive and returns
a :class:`~repro.emulation.LabTree` over it for ``lstart`` to boot from.
"""

from __future__ import annotations

import os
import shutil
import tarfile
import tempfile

from repro.emulation import EmulatedLab, LabTree
from repro.exceptions import DeploymentError


class LocalEmulationHost:
    """An emulation host rooted at a working directory on this machine."""

    def __init__(self, work_dir: str | None = None, name: str = "localhost"):
        self.name = name
        self.work_dir = work_dir or tempfile.mkdtemp(prefix="emulation_host_")
        os.makedirs(self.work_dir, exist_ok=True)
        self._labs: dict[str, EmulatedLab] = {}

    # -- the deployment surface ----------------------------------------------
    def receive(self, archive_path: str, lab_name: str) -> str:
        """'Transfer' an archive onto the host; returns the remote path."""
        if not os.path.exists(archive_path):
            raise DeploymentError("archive %s does not exist" % archive_path)
        destination = os.path.join(self.work_dir, "%s.tar.gz" % lab_name)
        shutil.copyfile(archive_path, destination)
        return destination

    def extract(self, archive_path: str, lab_name: str) -> LabTree:
        """Check a received archive; returns its tree (nothing unpacked, ``lab_name`` unused)."""
        tree = LabTree(archive_path)
        if not tree.is_archive:
            raise DeploymentError("archive %s does not exist" % archive_path)
        try:
            tree.load()
            return tree
        except tarfile.TarError as exc:
            raise DeploymentError("could not extract %s: %s" % (archive_path, exc)) from exc

    def lstart(self, source: str | LabTree, lab_name: str, **boot_options) -> EmulatedLab:
        """Start the lab (the in-process equivalent of Netkit lstart).

        ``source`` is what :meth:`extract` returned, or a lab directory.
        """
        try:
            lab = EmulatedLab.boot(source, **boot_options)
        except Exception as exc:
            raise DeploymentError("lab %s failed to start: %s" % (lab_name, exc)) from exc
        self._labs[lab_name] = lab
        return lab

    def lhalt(self, lab_name: str) -> None:
        """Stop a running lab."""
        if lab_name not in self._labs:
            raise DeploymentError("no running lab named %r" % lab_name)
        del self._labs[lab_name]

    # -- inspection ---------------------------------------------------------
    def running_labs(self) -> list[str]:
        return sorted(self._labs)

    def lab(self, lab_name: str) -> EmulatedLab:
        try:
            return self._labs[lab_name]
        except KeyError:
            raise DeploymentError("no running lab named %r" % lab_name) from None

    def vm_count(self, lab_name: str) -> int:
        return len(self.lab(lab_name).network)

    def __repr__(self) -> str:
        return "LocalEmulationHost(%s, %d labs running)" % (self.name, len(self._labs))
