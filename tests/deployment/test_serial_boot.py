"""The lab boots on one serial path, whatever ``jobs`` a caller passes.

``run_experiment``, ``EmulatedLab.boot`` and ``parse_netkit_lab`` still
accept ``jobs`` for existing callers and ignore it.  With
``threading.Thread.start`` patched to raise, a ``jobs=2`` call must
succeed and give exactly the ``jobs=1`` result: the same
``LabSnapshot`` (routes, fabric, verdict) for a lab, the same
``device_to_dict`` per device for a parsed intent.
"""

from __future__ import annotations

import threading

import pytest

from repro import run_experiment, small_internet
from repro.emulation import EmulatedLab, LabSnapshot
from repro.emulation.parsing import parse_netkit_lab
from repro.liveupdate.codec import device_to_dict


@pytest.fixture()
def no_threads(monkeypatch):
    def refuse(thread):
        raise AssertionError("the boot started thread %r" % thread.name)

    monkeypatch.setattr(threading.Thread, "start", refuse)


def _devices(intent) -> dict:
    return {name: device_to_dict(device) for name, device in intent.devices.items()}


def test_boot_ignores_jobs(si_render, no_threads):
    wide = EmulatedLab.boot(si_render.lab_dir, jobs=2)
    serial = EmulatedLab.boot(si_render.lab_dir, jobs=1)
    assert LabSnapshot.of(wide) == LabSnapshot.of(serial)
    assert wide.bgp_result.rounds == serial.bgp_result.rounds


def test_parse_netkit_lab_ignores_jobs(si_render, no_threads):
    wide = parse_netkit_lab(si_render.lab_dir, jobs=2)
    serial = parse_netkit_lab(si_render.lab_dir, jobs=1)
    assert list(wide.devices) == list(serial.devices)
    assert _devices(wide) == _devices(serial)


def test_run_experiment_ignores_jobs(tmp_path, no_threads):
    wide = run_experiment(small_internet(), output_dir=str(tmp_path / "j2"), jobs=2)
    serial = run_experiment(small_internet(), output_dir=str(tmp_path / "j1"), jobs=1)
    assert LabSnapshot.of(wide.lab) == LabSnapshot.of(serial.lab)
