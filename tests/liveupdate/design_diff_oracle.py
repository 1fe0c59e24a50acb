"""The naive design differ: the differential oracle for ``diff_designs``.

It renders both designs in full with :func:`run_experiment` and diffs
the two complete trees, re-parsing every device.  The scoped
:func:`repro.liveupdate.diff_designs` renders only the devices whose
compiled fingerprint moved; it must produce a byte-identical plan and,
on demand, byte-identical trees.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

from repro.liveupdate import DiffPlan, diff_rendered
from repro.liveupdate.diffing import _span


@dataclass
class OracleDelta:
    """The oracle's plan plus the full rendered trees it came from."""

    plan: DiffPlan
    old_dir: str
    new_dir: str


def diff_designs_oracle(
    old_source,
    new_source,
    platform: str = "netkit",
    rules=None,
    *,
    work_dir: str | None = None,
) -> OracleDelta:
    """Render two design-level topologies in full and diff the results."""
    from repro.design import DEFAULT_RULES
    from repro.workflow import run_experiment

    rules = DEFAULT_RULES if rules is None else rules
    work_dir = work_dir or tempfile.mkdtemp(prefix="liveupdate_")
    with _span("liveupdate.diff_designs", platform=platform):
        old_result = run_experiment(
            old_source, platform=platform, rules=rules,
            output_dir=os.path.join(work_dir, "old"), deploy=False,
        )
        new_result = run_experiment(
            new_source, platform=platform, rules=rules,
            output_dir=os.path.join(work_dir, "new"), deploy=False,
        )
        old_dir = old_result.render_result.lab_dir
        new_dir = new_result.render_result.lab_dir
        plan = diff_rendered(old_dir, new_dir)
    return OracleDelta(plan=plan, old_dir=old_dir, new_dir=new_dir)
