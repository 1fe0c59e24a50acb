"""Differential: the scoped ``diff_designs`` against the full-render oracle.

``diff_designs`` compiles both designs but renders and re-parses only
the devices whose compiled fingerprint moved.  The oracle
(``tests/liveupdate/design_diff_oracle.py``) renders both designs in
full and diffs the complete trees.  For random edit sequences on the
Small Internet, on every platform, the two must agree byte for byte:
the same plan JSON, and the same full trees when either side is read.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.liveupdate import diff_designs
from tests.liveupdate.design_diff_oracle import diff_designs_oracle
from tests.property.test_liveupdate_properties import any_edit, design_pair

PLATFORMS = ("netkit", "dynagen", "junosphere", "cbgp")


def _tree(root: str) -> dict[str, bytes]:
    """Relative path -> content for every file under ``root``."""
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


@pytest.mark.parametrize("platform", PLATFORMS)
@settings(max_examples=10, deadline=None)
@given(edits=st.lists(any_edit, min_size=1, max_size=2))
def test_scoped_diff_matches_full_render_oracle(platform, edits):
    old, new = design_pair(edits)
    with tempfile.TemporaryDirectory() as scoped_work, \
            tempfile.TemporaryDirectory() as oracle_work:
        scoped = diff_designs(old, new, platform, work_dir=scoped_work)
        oracle = diff_designs_oracle(old, new, platform, work_dir=oracle_work)
        assert scoped.plan.to_json() == oracle.plan.to_json()
        for side in ("old_dir", "new_dir"):
            scoped_dir, oracle_dir = getattr(scoped, side), getattr(oracle, side)
            assert os.path.relpath(scoped_dir, scoped_work) == os.path.relpath(
                oracle_dir, oracle_work
            )
            assert _tree(scoped_dir) == _tree(oracle_dir)
