"""Mutation checks for :class:`LabSnapshot`: each part catches a change
the other parts cannot see.

* **fabric** — swapping the two link-end addresses of as100r1–as100r2
  leaves every route line and the verdict equal, yet a trace to
  10.4.0.2 ends on a different router;
* **verdict** — a quarantined as300r2 and a powered-off as300r2 leave
  the same routes and fabric; only the verdict's quarantine list tells
  them apart.

Drop either part from the snapshot and its test fails.
"""

from __future__ import annotations

import os
import shutil

from repro.emulation import EmulatedLab, LabIntent, LabSnapshot
from repro.liveupdate import device_to_dict, lab_devices_from_dicts, verify_equivalence


def _swapped_link_lab(lab, left="as100r1", right="as100r2"):
    """A lab whose left–right link ends trade addresses."""
    devices = {name: device_to_dict(device) for name, device in lab.intent.devices.items()}
    ends = [
        interface
        for name in (left, right)
        for interface in devices[name]["interfaces"]
        if interface["collision_domain"] == "cd_%s_%s" % (left, right)
    ]
    assert len(ends) == 2, "fixture layout changed: %r" % ends
    ends[0]["ip_address"], ends[1]["ip_address"] = ends[1]["ip_address"], ends[0]["ip_address"]
    intent = LabIntent(platform=lab.intent.platform, description=lab.intent.description)
    intent.devices = lab_devices_from_dicts(devices)
    return EmulatedLab(intent)


def test_fabric_catches_swapped_link_addresses(si_lab):
    swapped = _swapped_link_lab(si_lab)
    clean, mutant = LabSnapshot.of(si_lab), LabSnapshot.of(swapped)
    assert mutant.routes == clean.routes
    assert mutant.verdict == clean.verdict
    assert mutant != clean
    # the difference is real: the same probe ends on another router
    assert si_lab.dataplane.trace("as100r1", "10.4.0.2").machines() == ["as100r2"]
    assert swapped.dataplane.trace("as100r1", "10.4.0.2").machines() == ["as100r1"]

    report = verify_equivalence(swapped, si_lab)
    assert not report.ok
    assert report.mismatches[0].startswith("fabric differ at as100r1"), report.summary()


def test_verdict_catches_quarantine_against_power_off(si_render, tmp_path):
    lab_dir = str(tmp_path / "lab")
    shutil.copytree(si_render.lab_dir, lab_dir)
    with open(os.path.join(lab_dir, "as300r2", "etc", "quagga", "ospfd.conf"), "a") as handle:
        handle.write("router ospf\n network not-a-prefix area 0\n")
    quarantined = EmulatedLab.boot(lab_dir, strict=False)
    assert set(quarantined.quarantined) == {"as300r2"}
    powered_off = EmulatedLab.boot(si_render.lab_dir)
    powered_off.node_down("as300r2")

    left, right = LabSnapshot.of(quarantined), LabSnapshot.of(powered_off)
    assert left.routes == right.routes
    assert left.fabric == right.fabric
    assert left != right

    report = verify_equivalence(quarantined, powered_off)
    assert not report.ok
    assert report.mismatches[0].startswith("verdict differs"), report.summary()
