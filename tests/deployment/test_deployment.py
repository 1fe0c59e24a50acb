"""Unit tests for deployment: archive, host, monitor, full flow (§5.7)."""

import gc
import os
import shutil
import tarfile
import tempfile

import pytest

from repro.deployment import (
    LocalEmulationHost,
    ProgressMonitor,
    archive_lab,
    deploy,
)
from repro.exceptions import DeploymentError


class TestArchive:
    def test_archive_contains_lab_files(self, si_render, tmp_path):
        archive_path = archive_lab(si_render.lab_dir, "si", str(tmp_path))
        assert os.path.exists(archive_path)
        with tarfile.open(archive_path) as archive:
            names = archive.getnames()
        assert "lab.conf" in names
        assert any(name.endswith("bgpd.conf") for name in names)

    def test_archive_missing_dir_raises(self, tmp_path):
        with pytest.raises(DeploymentError):
            archive_lab(str(tmp_path / "nope"), "x")


class TestHost:
    def test_receive_extract_start(self, si_render, tmp_path):
        host = LocalEmulationHost(work_dir=str(tmp_path / "host"))
        archive_path = archive_lab(si_render.lab_dir, "si", str(tmp_path))
        remote = host.receive(archive_path, "si")
        assert os.path.exists(remote)
        tree = host.extract(remote, "si")
        assert "lab.conf" in tree.listdir()
        assert tree.source == remote
        lab = host.lstart(tree, "si")
        assert lab.source == remote
        assert len(lab.network) == 14
        assert host.running_labs() == ["si"]
        assert host.vm_count("si") == 14

    def test_receive_missing_archive_raises(self, tmp_path):
        host = LocalEmulationHost(work_dir=str(tmp_path))
        with pytest.raises(DeploymentError):
            host.receive(str(tmp_path / "ghost.tar.gz"), "x")

    def test_lstart_empty_dir_fails(self, tmp_path):
        host = LocalEmulationHost(work_dir=str(tmp_path))
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(DeploymentError, match="failed to start"):
            host.lstart(str(empty), "broken")

    def test_lhalt(self, si_render, tmp_path):
        host = LocalEmulationHost(work_dir=str(tmp_path / "host"))
        record = deploy(si_render.lab_dir, host=host, lab_name="si")
        assert host.running_labs() == ["si"]
        host.lhalt("si")
        assert host.running_labs() == []
        with pytest.raises(DeploymentError):
            host.lhalt("si")

    def test_lab_lookup_missing_raises(self, tmp_path):
        host = LocalEmulationHost(work_dir=str(tmp_path))
        with pytest.raises(DeploymentError):
            host.lab("nothing")


class TestMonitor:
    def test_events_collected_in_order(self):
        monitor = ProgressMonitor()
        monitor.start()
        monitor.update("archive", "a")
        monitor.update("transfer", "b")
        assert monitor.stages() == ["archive", "transfer"]
        assert monitor.events[0].elapsed <= monitor.events[1].elapsed

    def test_callbacks_invoked(self):
        seen = []
        monitor = ProgressMonitor(callbacks=[seen.append])
        monitor.start()
        monitor.update("x", "msg")
        assert len(seen) == 1 and seen[0].stage == "x"

    def test_log_rendering(self):
        monitor = ProgressMonitor()
        monitor.start()
        monitor.update("lstart", "starting lab")
        assert "lstart" in monitor.log()


class TestFullDeployFlow:
    def test_deploy_produces_running_lab(self, si_deployment):
        assert si_deployment.lab.converged
        assert si_deployment.lab_name == "small_internet"
        assert len(si_deployment.lab.network) == 14

    def test_deploy_stage_timings(self, si_deployment):
        assert set(si_deployment.timings) == {
            "archive",
            "transfer",
            "extract",
            "start",
        }
        assert all(value >= 0 for value in si_deployment.timings.values())

    def test_deploy_monitor_stages(self, si_deployment):
        assert si_deployment.monitor.stages() == [
            "archive",
            "transfer",
            "extract",
            "lstart",
            "ready",
        ]
        ready = si_deployment.monitor.events[-1]
        assert "14 virtual machines up" in ready.message

    def test_deployment_artifacts_on_disk(self, si_render, tmp_path):
        # The staged archive is cleaned up by default; what survives is
        # the received archive on the host, which the lab boots from
        # without unpacking it.
        host = LocalEmulationHost(str(tmp_path))
        record = deploy(si_render.lab_dir, host=host)
        assert not os.path.exists(record.archive_path)
        assert os.listdir(tmp_path) == ["lab.tar.gz"]
        assert record.source == record.lab.source == str(tmp_path / "lab.tar.gz")

    def test_keep_archive_flag_preserves_archive(self, si_render, tmp_path):
        host = LocalEmulationHost(work_dir=str(tmp_path / "host"))
        record = deploy(
            si_render.lab_dir, host=host, lab_name="kept", keep_archive=True
        )
        assert os.path.exists(record.archive_path)
        shutil.rmtree(os.path.dirname(record.archive_path))

    def test_no_stray_archive_dirs_survive(self, si_render, tmp_path, monkeypatch):
        # Route mkdtemp under tmp_path so the test sees exactly the
        # staging dirs this deploy creates.
        staging_root = tmp_path / "staging"
        staging_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(staging_root))
        host = LocalEmulationHost(work_dir=str(tmp_path / "host"))
        deploy(si_render.lab_dir, host=host, lab_name="tidy")
        strays = [
            entry
            for entry in os.listdir(staging_root)
            if entry.startswith("lab_archive_")
        ]
        assert strays == []

    def test_a_host_deploy_makes_lives_as_long_as_its_labs(
        self, si_render, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        record = deploy(si_render.lab_dir)
        work_dir = record.host.work_dir
        assert os.path.dirname(work_dir) == str(tmp_path)
        fork = record.lab.fork()
        record = None
        gc.collect()
        # the fork still boots from, and reads, the received archive
        assert os.listdir(work_dir) == ["lab.tar.gz"]
        assert "router bgp" in fork.run("as1r1", "show running-config")
        fork = None
        gc.collect()
        assert not os.path.exists(work_dir)

    def test_a_passed_in_host_keeps_its_dir(self, si_render, tmp_path):
        host = LocalEmulationHost(str(tmp_path / "host"))
        deploy(si_render.lab_dir, host=host)
        host = None
        gc.collect()
        assert os.listdir(tmp_path / "host") == ["lab.tar.gz"]


class TestLogging:
    def test_boot_and_deploy_emit_log_records(self, si_render, tmp_path, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro.emulation"):
            with caplog.at_level(logging.INFO, logger="repro.deployment"):
                host = LocalEmulationHost(work_dir=str(tmp_path))
                deploy(si_render.lab_dir, host=host, lab_name="logged")
        messages = [record.getMessage() for record in caplog.records]
        assert any("booting netkit lab" in message for message in messages)
        assert any("BGP converged" in message for message in messages)
        assert any("deployed to" in message for message in messages)
