"""Result checking: digests, lab health, and the pinned expectations.

Cheap enough to run before every number is printed: the reachability
check samples 32 machines (992 pairs); the O(n^2) ``verify_equivalence``
is never called on a lab above small_internet size.
"""

from __future__ import annotations

import hashlib
import json
import os

from benchmarks.ledger import LEDGER_DIR
from benchmarks.ledger.spec import EXACT_COUNTERS

EXPECTED_PATH = os.path.join(LEDGER_DIR, "expected.json")

#: Exact counters that follow the seed; pinned for one seed only.
SEEDED_COUNTERS = ("traffic.offered", "traffic.delivered")

REACHABILITY_SAMPLE = 32


def config_digest(lab_dir: str) -> str:
    """sha256 over sorted relative path + bytes of a rendered tree."""
    digest = hashlib.sha256()
    paths = []
    for directory, _dirs, names in os.walk(lab_dir):
        for name in names:
            paths.append(os.path.relpath(os.path.join(directory, name), lab_dir))
    for relative in sorted(paths):
        digest.update(relative.encode())
        digest.update(b"\0")
        with open(os.path.join(lab_dir, relative), "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


def state_digest(lab) -> tuple[str, int]:
    """sha256 over every machine's IGP routes, BGP selection and the verdict.

    Returns ``(digest, entries)``.  Convergence rounds are left out: a
    live lab that resumed from earlier state settles in fewer rounds
    than a cold boot of the same tree, by design.
    """
    digest = hashlib.sha256()
    entries = 0
    for machine in sorted(lab.network.machines):
        digest.update(("#%s\n" % machine).encode())
        for table in (lab.igp.routes(machine), lab.bgp_result.selected.get(machine, {})):
            for line in sorted("%s %r" % item for item in table.items()):
                digest.update(line.encode())
                digest.update(b"\n")
                entries += 1
    report = lab.convergence_report
    digest.update(
        repr((report.status, report.period, report.components, sorted(report.quarantined))).encode()
    )
    return digest.hexdigest(), entries


def reachability_sample(ctx, lab) -> list[str]:
    """Seeded machines that own a loopback, the ping targets."""
    candidates = [
        name for name in sorted(lab.network.machines)
        if lab.network.device(name).loopback is not None
    ]
    rng = ctx.rng("reachability")
    return sorted(rng.sample(candidates, min(REACHABILITY_SAMPLE, len(candidates))))


def reaches(lab, source: str, target: str) -> bool:
    """A ping that follows the probe past the dataplane's 30-hop TTL.

    22 of the 1 339 806 ordered pairs of NREN 1.0 have a loop-free path
    longer than 30 hops (uk_r11 to lv_r11), which ``Dataplane.ping``
    reports as "max hops exceeded"; whether a sample holds one depends
    on the seed.  Such a probe is resumed from the last machine it
    visited until it arrives, is dropped or loops.
    """
    loopback = lab.network.device(target).loopback
    resumed = set()
    while source not in resumed:
        resumed.add(source)
        trace = lab.dataplane.trace(source, loopback)
        if trace.reached:
            return True
        if trace.reason != "max hops exceeded":
            return False
        source = trace.hops[-1][0]
    return False


def check_reachability(ctx, lab, matrix: dict, all_reachable: bool) -> None:
    """Every sampled pair must answer, or none where the design forwards nothing."""
    wrong = sorted(
        pair for pair, ok in matrix.items()
        if ok != all_reachable and not (all_reachable and reaches(lab, *pair))
    )
    ctx.op(
        bool(matrix) and not wrong,
        what="reachability: %d of %d sampled pairs are not %s, first %s"
        % (len(wrong), len(matrix), "reachable" if all_reachable else "unreachable", wrong[:1]),
    )


def check_validation(ctx, report) -> None:
    ctx.op(report.ok, what="validation failed: %s" % report.summary())


def record_digests(ctx, lab_dir: str, lab) -> None:
    ctx.digests["config_digest"] = config_digest(lab_dir)
    ctx.digests["state_digest"], ctx.digests["state_entries"] = state_digest(lab)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def observed_entry(ctx, counters: dict | None) -> dict:
    """What expected.json pins for this run's workload.

    ``counters`` are the traced run's own per-layer values (not the
    filled-in ones); the plain run has none and pins digests only.
    """
    entry = {"digests": dict(ctx.digests)}
    if counters is not None:
        entry["counters"] = {
            name: counters[name]
            for name in EXACT_COUNTERS if name in counters and name not in SEEDED_COUNTERS
        }
        entry["seed"] = ctx.seed
        entry["seeded"] = {name: counters[name] for name in SEEDED_COUNTERS if name in counters}
    return entry


def first_difference(ctx, observed: dict, expected: dict) -> str | None:
    """The first pinned key whose value differs, or None."""
    for section in ("digests", "counters", "seeded"):
        if section not in observed:
            continue
        if section == "seeded" and expected.get("seed") != ctx.seed:
            continue
        for key, want in sorted(expected.get(section, {}).items()):
            got = observed[section].get(key)
            if got != want:
                return "%s.%s: expected %r, measured %r" % (section, key, want, got)
    return None


def check_expected(ctx, counters: dict | None = None) -> None:
    """Compare a paper-size run with expected.json; a mismatch fails every op."""
    if not ctx.paper:
        return
    expected = load_expected().get(ctx.workload)
    if expected is None:
        ctx.fail_all("expected.json has no entry for %s (run --update-expected)" % ctx.workload)
        return
    difference = first_difference(ctx, observed_entry(ctx, counters), expected)
    if difference is not None:
        ctx.fail_all("expected.json mismatch at %s" % difference)


def update_expected(ctx, counters: dict) -> None:
    expected = load_expected() if os.path.exists(EXPECTED_PATH) else {}
    expected[ctx.workload] = observed_entry(ctx, counters)
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
