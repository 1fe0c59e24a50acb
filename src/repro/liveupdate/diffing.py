"""Diffing two labs into a :class:`DiffPlan`.

Three entry points, lowest to highest level:

* :func:`diff_intents` — two parsed :class:`LabIntent` trees in, plan
  out.  This is the core differ: it classifies per-device changes into
  minimal change commands and *verifies by simulation* that applying
  the plan to the old intent reproduces the new intent exactly (and
  that the inverse restores the old one).  Any device whose ops fail
  that round-trip collapses to a single ``resync_device`` op, so the
  exactness invariant holds by construction.

* :func:`diff_rendered` — two rendered config directories in.  The
  file trees are content-hashed first (the same SHA-256 discipline the
  build engine's artifact cache uses); byte-identical trees short-
  circuit to an empty plan without parsing, and the per-file hash delta
  rides along as provenance on ``plan.file_changes``.

* :func:`diff_designs` — two design-level topology sources in.  Both
  are designed and compiled (no deployment); only the devices whose
  compiled fingerprint moved are rendered, and those subset trees are
  diffed, which is what `repro diff --plan` and `repro apply` drive.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property

from repro.emulation.intent import LabIntent
from repro.emulation.lab import detect_platform
from repro.emulation.parsing import LAB_PARSERS
from repro.exceptions import LiveUpdateError
from repro.liveupdate.codec import device_to_dict
from repro.liveupdate.plan import ChangeOp, DiffPlan, simulate_plan
from repro.nidb import changed_devices
from repro.observability import current_telemetry
from repro.render import (
    RenderResult,
    device_render_jobs,
    topology_render_jobs,
    write_job,
)

__all__ = ["DesignDelta", "diff_designs", "diff_intents", "diff_rendered"]

#: Device-dict scalar fields handled by plain ``set_attr`` ops.
_ATTR_FIELDS = (
    "vendor", "hostname", "dns", "rpki_role", "rpki_config",
    "igp_domain", "boot_errors",
)


def _span(name: str, **attrs):
    telemetry = current_telemetry()
    if telemetry is None:
        import contextlib

        return contextlib.nullcontext()
    return telemetry.span(name, **attrs)


# ---------------------------------------------------------------------------
# per-device op synthesis
# ---------------------------------------------------------------------------

def _list_delta(old: list, new: list) -> tuple[list[tuple[int, object]], list[tuple[int, object]]]:
    """(removed, added) entries with their list indexes, value-matched."""
    removed = [(i, entry) for i, entry in enumerate(old) if entry not in new]
    added = [(i, entry) for i, entry in enumerate(new) if entry not in old]
    return removed, added


def _interface_ops(name: str, old: dict, new: dict) -> list[ChangeOp]:
    ops: list[ChangeOp] = []
    old_by_name = {i["name"]: i for i in old["interfaces"]}
    new_by_name = {i["name"]: i for i in new["interfaces"]}
    for position, interface in enumerate(old["interfaces"]):
        if interface["name"] not in new_by_name:
            ops.append(ChangeOp(
                "remove_interface", name, key=interface["name"],
                before=interface, index=position,
            ))
    for iface_name in sorted(set(old_by_name) & set(new_by_name)):
        before, after = old_by_name[iface_name], new_by_name[iface_name]
        if before == after:
            continue
        only_cost = dict(before, ospf_cost=after["ospf_cost"]) == after
        ops.append(ChangeOp(
            "set_cost" if only_cost else "update_interface",
            name, key=iface_name, before=before, after=after,
        ))
    for position, interface in enumerate(new["interfaces"]):
        if interface["name"] not in old_by_name:
            ops.append(ChangeOp(
                "add_interface", name, key=interface["name"],
                after=interface, index=position,
            ))
    return ops


def _igp_ops(name: str, proto: str, old, new) -> list[ChangeOp]:
    if old == new:
        return []
    if old is None:
        return [ChangeOp("enable_igp", name, key=proto, after=new)]
    if new is None:
        return [ChangeOp("disable_igp", name, key=proto, before=old)]
    if proto == "ospf":
        scalars_changed = any(
            old.get(field_name) != new.get(field_name)
            for field_name in ("process_id", "router_id", "interface_costs")
        )
        if not scalars_changed:
            removed, added = _list_delta(old["networks"], new["networks"])
            ops = [
                ChangeOp(
                    "remove_igp_network", name,
                    key="%s area %s" % tuple(entry), before=entry, index=position,
                )
                for position, entry in removed
            ]
            ops += [
                ChangeOp(
                    "add_igp_network", name,
                    key="%s area %s" % tuple(entry), after=entry, index=position,
                )
                for position, entry in added
            ]
            return ops
    return [ChangeOp("update_igp", name, key=proto, before=old, after=new)]


def _bgp_ops(name: str, old, new) -> list[ChangeOp]:
    if old == new:
        return []
    if old is None:
        return [ChangeOp("enable_bgp", name, key="bgp", after=new)]
    if new is None:
        return [ChangeOp("disable_bgp", name, key="bgp", before=old)]
    if any(old.get(f) != new.get(f) for f in ("asn", "router_id")):
        return [ChangeOp("update_bgp", name, key="bgp", before=old, after=new)]
    ops: list[ChangeOp] = []
    removed, added = _list_delta(old["networks"], new["networks"])
    ops += [
        ChangeOp("remove_bgp_network", name, key=entry, before=entry, index=position)
        for position, entry in removed
    ]
    old_peers = {n["peer_ip"]: (i, n) for i, n in enumerate(old["neighbors"])}
    new_peers = {n["peer_ip"]: (i, n) for i, n in enumerate(new["neighbors"])}
    for peer in old_peers:
        if peer not in new_peers:
            position, neighbor = old_peers[peer]
            ops.append(ChangeOp(
                "remove_bgp_neighbor", name, key=peer,
                before=neighbor, index=position,
            ))
    for peer in sorted(set(old_peers) & set(new_peers)):
        before, after = old_peers[peer][1], new_peers[peer][1]
        if before != after:
            ops.append(ChangeOp(
                "update_bgp_neighbor", name, key=peer, before=before, after=after,
            ))
    for peer, (position, neighbor) in new_peers.items():
        if peer not in old_peers:
            ops.append(ChangeOp(
                "add_bgp_neighbor", name, key=peer, after=neighbor, index=position,
            ))
    ops += [
        ChangeOp("add_bgp_network", name, key=entry, after=entry, index=position)
        for position, entry in added
    ]
    return ops


def _device_ops(name: str, old: dict, new: dict) -> list[ChangeOp]:
    """Minimal ops for one modified device, resync on round-trip failure."""
    ops: list[ChangeOp] = []
    ops += _interface_ops(name, old, new)
    ops += _igp_ops(name, "ospf", old.get("ospf"), new.get("ospf"))
    ops += _igp_ops(name, "isis", old.get("isis"), new.get("isis"))
    ops += _bgp_ops(name, old.get("bgp"), new.get("bgp"))
    for field_name in _ATTR_FIELDS:
        if old.get(field_name) != new.get(field_name):
            ops.append(ChangeOp(
                "set_attr", name, key=field_name,
                before=old.get(field_name), after=new.get(field_name),
            ))
    # The exactness check: forward simulation must land on the new
    # dict, inverse simulation back on the old one.  Ordering drift the
    # index heuristics cannot express collapses to a full resync.
    forward, _ = simulate_plan({name: old}, ops)
    backward, _ = simulate_plan({name: new}, [op.inverse() for op in reversed(ops)])
    if forward.get(name) != new or backward.get(name) != old:
        return [ChangeOp("resync_device", name, before=old, after=new)]
    return ops


def diff_intents(
    old: LabIntent,
    new: LabIntent,
    *,
    file_changes: list[dict] | None = None,
    old_label: str = "",
    new_label: str = "",
) -> DiffPlan:
    """Diff two parsed labs into a verified, invertible DiffPlan."""
    if old.platform != new.platform:
        raise LiveUpdateError(
            "cannot diff across platforms: %s vs %s" % (old.platform, new.platform)
        )
    with _span("liveupdate.diff", platform=new.platform):
        old_devices = {n: device_to_dict(d) for n, d in old.devices.items()}
        new_devices = {n: device_to_dict(d) for n, d in new.devices.items()}
        operations: list[ChangeOp] = []
        for name in sorted(set(old_devices) - set(new_devices)):
            operations.append(ChangeOp(
                "remove_device", name, before=old_devices[name],
            ))
        for name in sorted(set(old_devices) & set(new_devices)):
            if old_devices[name] != new_devices[name]:
                operations += _device_ops(name, old_devices[name], new_devices[name])
        for name in sorted(set(new_devices) - set(old_devices)):
            operations.append(ChangeOp(
                "add_device", name, after=new_devices[name],
            ))
        plan = DiffPlan(
            platform=new.platform,
            operations=operations,
            file_changes=list(file_changes or []),
            old_label=old_label,
            new_label=new_label,
        )
        # Whole-plan invariant (covers device add/remove too).
        forward, _ = simulate_plan(old_devices, plan.operations)
        if forward != new_devices:
            raise LiveUpdateError("internal differ error: plan does not round-trip")
        return plan


# ---------------------------------------------------------------------------
# rendered-tree diffing
# ---------------------------------------------------------------------------

def _tree_hashes(root: str) -> dict[str, str]:
    """Relative path -> short content hash for every file under root."""
    hashes: dict[str, str] = {}
    for directory, _, files in os.walk(root):
        for filename in files:
            path = os.path.join(directory, filename)
            relative = os.path.relpath(path, root)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            hashes[relative] = digest[:12]
    return hashes


def _file_delta(old_dir: str, new_dir: str) -> list[dict]:
    old_hashes = _tree_hashes(old_dir)
    new_hashes = _tree_hashes(new_dir)
    changes: list[dict] = []
    for path in sorted(set(old_hashes) | set(new_hashes)):
        before, after = old_hashes.get(path), new_hashes.get(path)
        if before == after:
            continue
        status = "modified" if before and after else ("added" if after else "removed")
        changes.append({
            "path": path, "status": status,
            "before_hash": before, "after_hash": after,
        })
    return changes


def diff_rendered(old_dir: str, new_dir: str) -> DiffPlan:
    """Diff two rendered lab directories (same platform) into a plan."""
    platform = detect_platform(old_dir)
    new_platform = detect_platform(new_dir)
    if platform != new_platform:
        raise LiveUpdateError(
            "cannot diff across platforms: %s (%s) vs %s (%s)"
            % (old_dir, platform, new_dir, new_platform)
        )
    old_label = os.path.basename(os.path.normpath(old_dir))
    new_label = os.path.basename(os.path.normpath(new_dir))
    with _span("liveupdate.diff_rendered", platform=platform):
        changes = _file_delta(old_dir, new_dir)
        if not changes:
            return DiffPlan(
                platform=platform, old_label=old_label, new_label=new_label,
            )
        parse = LAB_PARSERS[platform]
        old_intent = parse(old_dir)
        new_intent = parse(new_dir)
        return diff_intents(
            old_intent, new_intent,
            file_changes=changes, old_label=old_label, new_label=new_label,
        )


# ---------------------------------------------------------------------------
# design-level diffing
# ---------------------------------------------------------------------------

@dataclass
class DesignDelta:
    """A design-level diff plus, on demand, the full trees it came from.

    Only the two sources are kept, never their compiled models: the
    first read of :attr:`old_dir` or :attr:`new_dir` compiles and
    renders that side's whole lab under ``work_dir`` (a fresh temporary
    directory unless one was given), and later reads reuse it.  The
    sources are the graphs as loaded when the plan was made, copied, so
    the trees are the ones the plan came from even if the caller's
    graph or file changes afterwards.
    """

    plan: DiffPlan
    old_source: object
    new_source: object
    platform: str
    rules: tuple
    work_dir: str | None = None

    @cached_property
    def old_dir(self) -> str:
        return self._render_tree("old", self.old_source)

    @cached_property
    def new_dir(self) -> str:
        return self._render_tree("new", self.new_source)

    def _render_tree(self, side: str, source) -> str:
        from repro.workflow import run_experiment

        if self.work_dir is None:
            self.work_dir = tempfile.mkdtemp(prefix="liveupdate_")
        result = run_experiment(
            source, platform=self.platform, rules=self.rules,
            output_dir=os.path.join(self.work_dir, side), deploy=False,
        )
        return result.render_result.lab_dir


def _compile(graph, platform: str, rules):
    """Design and compile one topology; nothing is rendered."""
    from repro.compilers import platform_compiler
    from repro.design import apply_design, build_anm

    anm = build_anm(graph)
    apply_design(anm, rules)
    return platform_compiler(platform, anm).compile()


def _render_subset(nidb, dirty: set[str], lab_dir: str) -> None:
    """Write the dirty devices' files and the topology-level files."""
    devices = sorted(nidb.nodes(), key=lambda device: str(device.node_id))
    result = RenderResult(output_dir=lab_dir, lab_dir=lab_dir)
    made_dirs: set[str] = set()
    for device in devices:
        if str(device.node_id) in dirty:
            for job in device_render_jobs(device, nidb.topology, devices):
                write_job(result, lab_dir, job, made_dirs)
    for job in topology_render_jobs(nidb.topology, devices):
        write_job(result, lab_dir, job, made_dirs)


def diff_designs(
    old_source,
    new_source,
    platform: str = "netkit",
    rules=None,
    *,
    work_dir: str | None = None,
) -> DesignDelta:
    """Diff two design-level topologies, rendering only what moved.

    ``old_source``/``new_source`` are anything
    :func:`repro.workflow.load_topology` accepts (a graph object or a
    GraphML/GML/JSON path).  Both are compiled; a device's rendered
    files are a function of its compiled subtree, so only the devices
    whose fingerprint moved (or that exist on one side only) are
    rendered, next to the topology-level files, into a throw-away
    subset tree per side, which :func:`diff_rendered` parses and diffs.
    Devices absent from the subset parse identically on both sides and
    contribute no ops.  The full trees are rendered under ``work_dir``
    only when the returned delta's ``old_dir``/``new_dir`` is read
    (the differential suite boots ``new_dir`` as its fresh-boot oracle).
    """
    from repro.design import DEFAULT_RULES
    from repro.workflow import load_topology

    rules = DEFAULT_RULES if rules is None else rules
    with _span("liveupdate.diff_designs", platform=platform):
        old_graph = load_topology(old_source).copy()
        new_graph = load_topology(new_source).copy()
        old_nidb = _compile(old_graph, platform, rules)
        new_nidb = _compile(new_graph, platform, rules)
        dirty, removed = changed_devices(
            old_nidb.fingerprints(), new_nidb.fingerprints()
        )
        dirty.update(removed)
        with tempfile.TemporaryDirectory(prefix="liveupdate_") as scratch:
            old_dir = os.path.join(scratch, "old", platform)
            new_dir = os.path.join(scratch, "new", platform)
            _render_subset(old_nidb, dirty, old_dir)
            _render_subset(new_nidb, dirty, new_dir)
            plan = diff_rendered(old_dir, new_dir)
    return DesignDelta(
        plan=plan, old_source=old_graph, new_source=new_graph,
        platform=platform, rules=rules, work_dir=work_dir,
    )
