"""Property-based tests: the live-update differ and applier.

The differ's contract is checked over *random* design-edit sequences
drawn from the same :mod:`repro.liveupdate.edits` vocabulary the CLI
and campaign layer accept:

* pure (render + parse only): ``diff(A, B)`` simulates forward to B
  and its inverse back to A bit-exactly; diffing is deterministic;
  a design diffed against itself is empty;
* booted: applying the plan to a *running* lab and then its inverse
  restores the original lab snapshot exactly, and the live-applied
  lab is equivalent to a fresh boot of the edited design — for
  arbitrary edit sequences, not just the curated cases in the
  differential suite.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.emulation import EmulatedLab, LabSnapshot
from repro.emulation.lab import detect_platform
from repro.emulation.parsing import LAB_PARSERS
from repro.exceptions import LiveUpdateError
from repro.liveupdate import (
    apply_edits,
    apply_plan,
    diff_designs,
    lab_devices_to_dicts,
    simulate_plan,
    verify_equivalence,
)
from repro.loader import small_internet

# The Small Internet's fixed structure, so strategies only propose
# edits the vocabulary can accept.
SI_EDGES = [
    ("as100r1", "as100r2"), ("as100r1", "as100r3"), ("as100r1", "as20r2"),
    ("as100r2", "as100r3"), ("as100r3", "as200r1"), ("as1r1", "as20r3"),
    ("as1r1", "as30r1"), ("as1r1", "as40r1"), ("as200r1", "as300r4"),
    ("as20r1", "as20r2"), ("as20r1", "as20r3"), ("as20r2", "as20r3"),
    ("as300r1", "as300r2"), ("as300r1", "as300r4"), ("as300r1", "as30r1"),
    ("as300r2", "as300r3"), ("as300r2", "as40r1"), ("as300r3", "as300r4"),
]
#: Links on a cycle — removing one never disconnects the graph.
SAFE_REMOVE_LINKS = [
    ("as100r1", "as100r2"), ("as20r1", "as20r2"), ("as300r1", "as300r4"),
]
#: Nodes whose neighbors stay connected without them.
SAFE_REMOVE_NODES = ["as100r2", "as20r1", "as300r3"]
#: Node pairs with no existing link (mix of intra- and inter-AS).
NON_EDGES = [
    ("as20r1", "as100r1"), ("as30r1", "as40r1"),
    ("as100r2", "as200r1"), ("as300r1", "as300r3"),
]

cost_edits = st.builds(
    lambda link, value: {"kind": "cost", "link": list(link), "value": value},
    st.sampled_from(SI_EDGES), st.integers(min_value=1, max_value=64),
)
add_link_edits = st.builds(
    lambda link, cost: {"kind": "add_link", "link": list(link), "cost": cost},
    st.sampled_from(NON_EDGES), st.integers(min_value=1, max_value=20),
)
remove_link_edits = st.sampled_from(SAFE_REMOVE_LINKS).map(
    lambda link: {"kind": "remove_link", "link": list(link)}
)
remove_node_edits = st.sampled_from(SAFE_REMOVE_NODES).map(
    lambda node: {"kind": "remove_node", "node": node}
)
add_node_edits = st.builds(
    lambda like, attach, cost: {
        "kind": "add_node", "node": "px1", "like": like,
        "attach_to": list(attach), "cost": cost,
    },
    st.sampled_from(["as100r3", "as300r2"]),
    st.lists(
        st.sampled_from(["as100r1", "as300r1", "as20r2"]),
        min_size=1, max_size=2, unique=True,
    ),
    st.integers(min_value=1, max_value=10),
)

any_edit = st.one_of(
    cost_edits, add_link_edits, remove_link_edits,
    remove_node_edits, add_node_edits,
)

_lab_settings = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def design_pair(edits):
    """(old, new) designs, skipping sequences the vocabulary rejects
    (e.g. a cost edit on a link a previous edit removed)."""
    old = small_internet()
    try:
        new = apply_edits(old, edits)
    except LiveUpdateError:
        assume(False)
    return old, new


def parse_devices(lab_dir):
    return lab_devices_to_dicts(LAB_PARSERS[detect_platform(lab_dir)](lab_dir))


class TestPureDiffProperties:
    @settings(max_examples=25, deadline=None)
    @given(edits=st.lists(any_edit, min_size=1, max_size=3))
    def test_plan_round_trips_forward_and_back(self, edits):
        old, new = design_pair(edits)
        with tempfile.TemporaryDirectory() as work:
            delta = diff_designs(old, new, "netkit", work_dir=work)
            old_devices = parse_devices(delta.old_dir)
            new_devices = parse_devices(delta.new_dir)

            forward, skipped = simulate_plan(old_devices, delta.plan.operations)
            assert not skipped
            assert forward == new_devices

            backward, skipped = simulate_plan(
                new_devices, delta.plan.inverse().operations
            )
            assert not skipped
            assert backward == old_devices

            inverse = delta.plan.inverse()
            assert inverse.inverse().to_dict() == delta.plan.to_dict()

    @settings(max_examples=10, deadline=None)
    @given(edits=st.lists(any_edit, min_size=1, max_size=2))
    def test_diffing_is_deterministic(self, edits):
        old, new = design_pair(edits)
        with tempfile.TemporaryDirectory() as first, \
                tempfile.TemporaryDirectory() as second:
            a = diff_designs(old, new, "netkit", work_dir=first)
            b = diff_designs(old, new, "netkit", work_dir=second)
            assert a.plan.to_dict() == b.plan.to_dict()
            assert a.plan.plan_hash() == b.plan.plan_hash()

    @settings(max_examples=10, deadline=None)
    @given(edits=st.lists(any_edit, min_size=1, max_size=2))
    def test_edited_design_diffs_empty_against_itself(self, edits):
        _old, new = design_pair(edits)
        with tempfile.TemporaryDirectory() as work:
            delta = diff_designs(new, new, "netkit", work_dir=work)
            assert delta.plan.is_empty


class TestBootedLiveUpdateProperties:
    @_lab_settings
    @given(edits=st.lists(any_edit, min_size=1, max_size=2))
    def test_apply_then_inverse_restores_state(self, si_lab, edits):
        old, new = design_pair(edits)
        with tempfile.TemporaryDirectory() as work:
            delta = diff_designs(old, new, "netkit", work_dir=work)
            lab = si_lab.fork()
            before = LabSnapshot.of(lab)
            apply_plan(lab, delta.plan)
            apply_plan(lab, delta.plan.inverse())
            assert LabSnapshot.of(lab) == before

    @_lab_settings
    @given(edits=st.lists(any_edit, min_size=1, max_size=2))
    def test_live_apply_equivalent_to_fresh_boot(self, si_lab, edits):
        old, new = design_pair(edits)
        with tempfile.TemporaryDirectory() as work:
            delta = diff_designs(old, new, "netkit", work_dir=work)
            lab = si_lab.fork()
            apply_plan(lab, delta.plan)
            oracle = EmulatedLab.boot(delta.new_dir)
            equivalence = verify_equivalence(lab, oracle)
            assert equivalence.ok, equivalence.summary()
