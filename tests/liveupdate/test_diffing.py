"""The differ: minimal plans that round-trip exactly, by construction.

Everything here is render + parse only — no lab boot.  The invariant
under test is the differ's core contract: ``simulate_plan(old,
diff(old, new)) == new`` and ``simulate_plan(new, inverse) == old``,
bit-exact at the canonical-dict level, for every edit kind.
"""

from __future__ import annotations

import os

import pytest

from repro.compilers import platform_compiler
from repro.design import design_network
from repro.emulation.lab import detect_platform
from repro.emulation.parsing import LAB_PARSERS
from repro.exceptions import LiveUpdateError
from repro.liveupdate import (
    apply_edits,
    diff_designs,
    diff_intents,
    diff_rendered,
    lab_devices_to_dicts,
    simulate_plan,
)
from repro.loader import small_internet
from repro.observability import Telemetry
from repro.render import device_render_jobs, topology_render_jobs

from .conftest import EDITS, make_delta


def _parse_dir(lab_dir):
    return LAB_PARSERS[detect_platform(lab_dir)](lab_dir)


def parse_devices(lab_dir):
    return lab_devices_to_dicts(_parse_dir(lab_dir))


class TestDiffDesigns:
    @pytest.mark.parametrize("name", sorted(EDITS))
    def test_plan_round_trips_forward_and_back(self, name, tmp_path):
        delta = make_delta(EDITS[name], tmp_path)
        old = parse_devices(delta.old_dir)
        new = parse_devices(delta.new_dir)
        assert not delta.plan.is_empty

        forward, skipped = simulate_plan(old, delta.plan.operations)
        assert not skipped
        assert forward == new

        backward, skipped = simulate_plan(new, delta.plan.inverse().operations)
        assert not skipped
        assert backward == old

    def test_identical_designs_diff_to_empty_plan(self, tmp_path):
        delta = make_delta([], tmp_path)
        assert delta.plan.is_empty
        assert delta.plan.summary() == "no changes"

    def test_cost_edit_produces_minimal_ops(self, cost_delta):
        plan = cost_delta.plan
        by_kind = plan.count_by_kind()
        # two endpoints: each gets its interface cost set plus the OSPF
        # interface-cost map refresh — and nothing else
        assert by_kind == {"set_cost": 2, "update_igp": 2}
        assert plan.devices() == ["as20r1", "as20r2"]

    def test_link_add_touches_bgp(self, tmp_path):
        delta = make_delta(EDITS["link_add"], tmp_path)
        kinds = delta.plan.count_by_kind()
        # the new link crosses AS20 <-> AS100, so both ends gain an
        # interface and an eBGP session
        assert kinds.get("add_interface", 0) >= 2
        assert kinds.get("add_bgp_neighbor", 0) >= 2

    def test_node_remove_emits_remove_device(self, tmp_path):
        delta = make_delta(EDITS["node_remove"], tmp_path)
        kinds = delta.plan.count_by_kind()
        assert kinds.get("remove_device") == 1
        assert "as300r3" in delta.plan.devices()

    def test_file_changes_carry_provenance(self, cost_delta):
        assert cost_delta.plan.file_changes
        for change in cost_delta.plan.file_changes:
            assert change["status"] in ("added", "removed", "modified")
            assert change["path"]


class TestScopedWork:
    """A cost edit renders the two devices it moved, not the lab."""

    def test_cost_edit_renders_only_the_dirty_devices(self, tmp_path):
        old = small_internet()
        new = apply_edits(old, EDITS["cost_change"])
        nidbs = [
            platform_compiler("netkit", design_network(source)).compile()
            for source in (old, new)
        ]
        old_prints, new_prints = (nidb.fingerprints() for nidb in nidbs)
        dirty = {name for name in old_prints if old_prints[name] != new_prints[name]}
        assert dirty == {"as20r1", "as20r2"}
        expected = 0
        for nidb in nidbs:
            devices = sorted(nidb.nodes(), key=lambda device: str(device.node_id))
            expected += len(topology_render_jobs(nidb.topology, devices))
            for device in devices:
                if str(device.node_id) in dirty:
                    expected += len(device_render_jobs(device, nidb.topology, devices))

        work_dir = tmp_path / "work"
        telemetry = Telemetry()
        with telemetry.activate():
            delta = diff_designs(old, new, "netkit", work_dir=str(work_dir))
        assert not any(files for _, _, files in os.walk(work_dir))
        assert telemetry.metrics.value("render.files_written") == expected
        assert delta.plan.devices() == sorted(dirty)

    def test_full_tree_renders_once_on_first_read(self, tmp_path):
        old = small_internet()
        delta = diff_designs(
            old, apply_edits(old, EDITS["cost_change"]), "netkit",
            work_dir=str(tmp_path),
        )
        telemetry = Telemetry()
        with telemetry.activate():
            first = delta.new_dir
            second = delta.new_dir
        assert first == second == str(tmp_path / "new" / "localhost" / "netkit")
        tree = sum(len(files) for _, _, files in os.walk(first))
        assert telemetry.metrics.value("render.files_written") == tree

    def test_trees_ignore_later_edits_to_the_sources(self, tmp_path):
        old = small_internet()
        new = apply_edits(old, EDITS["cost_change"])
        delta = diff_designs(old, new, "netkit", work_dir=str(tmp_path))
        for graph in (old, new):
            graph.remove_node("as20r2")
        old_devices = parse_devices(delta.old_dir)
        assert "as20r2" in old_devices
        forward, skipped = simulate_plan(old_devices, delta.plan.operations)
        assert not skipped
        assert forward == parse_devices(delta.new_dir)


class TestDiffRendered:
    def test_same_tree_is_empty(self, cost_delta):
        plan = diff_rendered(cost_delta.old_dir, cost_delta.old_dir)
        assert plan.is_empty

    def test_platform_mismatch_rejected(self, cost_delta, tmp_path):
        other = make_delta(EDITS["cost_change"], tmp_path, platform="cbgp")
        with pytest.raises(LiveUpdateError, match="platform"):
            diff_rendered(cost_delta.old_dir, other.new_dir)


class TestDiffIntents:
    def test_platform_mismatch_rejected(self, cost_delta, tmp_path):
        old = _parse_dir(cost_delta.old_dir)
        other = make_delta(EDITS["cost_change"], tmp_path, platform="cbgp")
        with pytest.raises(LiveUpdateError, match="platform"):
            diff_intents(old, _parse_dir(other.new_dir))
