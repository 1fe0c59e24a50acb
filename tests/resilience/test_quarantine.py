"""Boot quarantine: corrupted device configs degrade, not destroy."""

import os
import shutil

import pytest

from repro.deployment import LocalEmulationHost, archive_lab
from repro.emulation import EmulatedLab
from repro.exceptions import EmulationError
from repro.observability import Telemetry
from repro.resilience import CONVERGED, BootDiagnostic


def _corrupted_lab_dir(si_render, tmp_path, machine="as100r1",
                       filename="zebra.conf", content="frobnicate the wombat\n"):
    lab_dir = str(tmp_path / "lab")
    shutil.copytree(si_render.lab_dir, lab_dir)
    target = os.path.join(lab_dir, machine, "etc", "quagga", filename)
    assert os.path.exists(target), "fixture layout changed: %s" % target
    with open(target, "a") as handle:
        handle.write(content)
    return lab_dir


@pytest.fixture(params=["directory", "archive"])
def booted_from(request, tmp_path):
    """Hand a lab to boot as its directory or as the tree a host extracts."""

    def source(lab_dir):
        if request.param == "directory":
            return lab_dir
        host = LocalEmulationHost(str(tmp_path / "host"))
        archive = archive_lab(lab_dir, "lab", str(tmp_path))
        return host.extract(host.receive(archive, "lab"), "lab")

    return source


def _bad_netmask_lab_dir(si_render, tmp_path):
    lab_dir = str(tmp_path / "lab")
    shutil.copytree(si_render.lab_dir, lab_dir)
    path = os.path.join(lab_dir, "as100r1.startup")
    with open(path) as handle:
        lines = handle.read().splitlines(keepends=True)
    lineno = next(
        number for number, line in enumerate(lines, start=1) if " eth0 " in line
    )
    lines[lineno - 1] = lines[lineno - 1].replace("255.255.255.252", "255.0.255.0")
    with open(path, "w") as handle:
        handle.writelines(lines)
    return lab_dir, lineno


def _non_utf8_lab_dir(si_render, tmp_path):
    lab_dir = _corrupted_lab_dir(si_render, tmp_path, content="")
    with open(os.path.join(lab_dir, "as100r1", "etc", "quagga", "zebra.conf"), "ab") as handle:
        handle.write(b"\xff\xfe")
    return lab_dir


class TestMalformedFiles:
    def test_bad_netmask_quarantines_the_device(self, si_render, tmp_path):
        lab_dir, lineno = _bad_netmask_lab_dir(si_render, tmp_path)
        lab = EmulatedLab.boot(lab_dir, strict=False)
        assert set(lab.quarantined) == {"as100r1"}
        diagnostic = lab.quarantined["as100r1"]
        assert (diagnostic.file, diagnostic.line) == ("as100r1.startup", lineno)
        assert "255.0.255.0" in diagnostic.cause
        assert lab.converged and len(lab.network) == 13

    def test_bad_netmask_strict_raises_emulation_error(self, si_render, tmp_path):
        lab_dir, _ = _bad_netmask_lab_dir(si_render, tmp_path)
        with pytest.raises(EmulationError, match="255.0.255.0"):
            EmulatedLab.boot(lab_dir)

    def test_non_utf8_config_quarantines_the_device(self, si_render, tmp_path, booted_from):
        lab_dir = _non_utf8_lab_dir(si_render, tmp_path)
        lab = EmulatedLab.boot(booted_from(lab_dir), strict=False)
        assert set(lab.quarantined) == {"as100r1"}
        diagnostic = lab.quarantined["as100r1"]
        assert diagnostic.file == "as100r1/etc/quagga/zebra.conf"
        assert "UTF-8" in diagnostic.cause
        assert lab.converged and len(lab.network) == 13

    def test_non_utf8_config_strict_raises_emulation_error(
        self, si_render, tmp_path, booted_from
    ):
        lab_dir = _non_utf8_lab_dir(si_render, tmp_path)
        with pytest.raises(EmulationError, match="UTF-8"):
            EmulatedLab.boot(booted_from(lab_dir))


class TestNonStrictBoot:
    def test_corrupt_zebra_quarantines_the_device(self, si_render, tmp_path):
        lab_dir = _corrupted_lab_dir(si_render, tmp_path)
        telemetry = Telemetry()
        with telemetry.activate():
            lab = EmulatedLab.boot(lab_dir, strict=False)
        assert lab.degraded
        assert set(lab.quarantined) == {"as100r1"}
        diagnostic = lab.quarantined["as100r1"]
        assert isinstance(diagnostic, BootDiagnostic)
        # the diagnostic names the offending file and line
        assert "zebra.conf" in diagnostic.file
        assert diagnostic.line is not None
        assert "frobnicate" in diagnostic.cause
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["emulation.quarantined"] == 1

    def test_rest_of_lab_converges(self, si_render, tmp_path):
        lab_dir = _corrupted_lab_dir(si_render, tmp_path)
        lab = EmulatedLab.boot(lab_dir, strict=False)
        assert lab.converged
        assert "as100r1" not in lab.network.machines
        assert len(lab.network) == 13  # 14 machines minus the quarantined one
        report = lab.convergence_report
        assert report.status == CONVERGED
        assert report.degraded
        assert report.quarantined == ["as100r1"]

    def test_quarantined_vm_is_not_addressable(self, si_render, tmp_path):
        lab_dir = _corrupted_lab_dir(si_render, tmp_path)
        lab = EmulatedLab.boot(lab_dir, strict=False)
        with pytest.raises(EmulationError, match="quarantined"):
            lab.vm("as100r1")
        assert lab.vm("as100r2").run("hostname")

    def test_corrupt_ospfd_quarantines_too(self, si_render, tmp_path):
        lab_dir = _corrupted_lab_dir(
            si_render, tmp_path, filename="ospfd.conf",
            content="router ospf\n network not-a-prefix area 0\n",
        )
        lab = EmulatedLab.boot(lab_dir, strict=False)
        assert set(lab.quarantined) == {"as100r1"}
        assert "ospfd.conf" in lab.quarantined["as100r1"].file

    def test_quarantined_node_cannot_be_restored(self, si_render, tmp_path):
        lab_dir = _corrupted_lab_dir(si_render, tmp_path)
        lab = EmulatedLab.boot(lab_dir, strict=False)
        with pytest.raises(EmulationError, match="quarantined"):
            lab.node_up("as100r1")


class TestStrictBoot:
    def test_strict_raises_emulation_error(self, si_render, tmp_path):
        lab_dir = _corrupted_lab_dir(si_render, tmp_path)
        with pytest.raises(EmulationError, match="zebra"):
            EmulatedLab.boot(lab_dir)  # strict is the default

    def test_clean_lab_boots_identically_either_way(self, si_render):
        strict = EmulatedLab.boot(si_render.lab_dir)
        lenient = EmulatedLab.boot(si_render.lab_dir, strict=False)
        assert not lenient.degraded
        assert strict.converged and lenient.converged
        assert set(strict.network.machines) == set(lenient.network.machines)
        assert (
            strict.bgp_result.selected.keys()
            == lenient.bgp_result.selected.keys()
        )
