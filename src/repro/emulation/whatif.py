"""What-if analysis: failure injection on a booted lab (§8).

"Emulation provides a way to support experimentation, testing, and
'what-if' analysis" — and the paper's conclusion suggests building
incident emulation on top of the system.  These helpers produce a new
lab with links or whole machines failed, so an experiment can compare
routing and reachability before and after an incident,
deterministically.

The original lab is never mutated: each helper forks it (sharing the
parsed intent — no re-parse, no deep copy) and applies the failure as a
live topology fault, reconverging the protocols incrementally from the
parent's state.  For failure *timelines* rather than single incidents,
see :mod:`repro.resilience` — a ``FaultSchedule`` drives the same fault
primitives against one running lab round by round.
"""

from __future__ import annotations

from typing import Iterable

from repro.emulation.lab import EmulatedLab


def fail_links(
    lab: EmulatedLab,
    pairs: Iterable[tuple[str, str]],
    max_rounds: int = 64,
) -> EmulatedLab:
    """A new lab with the links between each machine pair failed.

    Every segment shared by a pair is removed (both attached interfaces
    go down).  Raises when a pair shares no segment — failing a link
    that does not exist is almost certainly an experiment bug.
    """
    failed = lab.fork(converge=False)
    failed.max_rounds = max_rounds
    for left, right in pairs:
        failed.link_down(left, right, reconverge=False)
    failed.reconverge()
    return failed


def fail_node(lab: EmulatedLab, machine: str, max_rounds: int = 64) -> EmulatedLab:
    """A new lab with one machine powered off entirely."""
    failed = lab.fork(converge=False)
    failed.max_rounds = max_rounds
    failed.node_down(machine, reconverge=False)
    failed.reconverge()
    return failed


def reachability_matrix(lab: EmulatedLab, machines: Iterable[str] | None = None) -> dict:
    """Loopback-to-loopback reachability between the given machines.

    Returns ``{(src, dst): bool}``; the comparison input for before/after
    incident studies.  Machines absent from the (possibly degraded)
    fabric are skipped.
    """
    names = sorted(machines) if machines is not None else sorted(lab.network.machines)
    loopbacks = {
        name: lab.network.device(name).loopback
        for name in names
        if name in lab.network.machines
    }
    matrix: dict[tuple[str, str], bool] = {}
    for src in names:
        if src not in lab.network.machines:
            continue
        for dst in names:
            if src == dst or loopbacks.get(dst) is None:
                continue
            matrix[(src, dst)] = lab.dataplane.ping(src, loopbacks[dst])
    return matrix


def reachability_summary(
    lab: EmulatedLab, machines: Iterable[str] | None = None
) -> dict:
    """The reachability matrix condensed to the numbers reports roll up.

    ``{"pairs": N, "reachable": K, "fraction": K/N}`` — what a campaign
    trial records per scenario, instead of the full O(n²) matrix.
    """
    matrix = reachability_matrix(lab, machines)
    reachable = sum(1 for ok in matrix.values() if ok)
    return {
        "pairs": len(matrix),
        "reachable": reachable,
        "fraction": round(reachable / len(matrix), 4) if matrix else 1.0,
    }


def compare_reachability(before: dict, after: dict) -> dict:
    """Partition pairs into kept / lost / gained reachability."""
    kept = {pair for pair, ok in after.items() if ok and before.get(pair)}
    lost = {pair for pair, ok in before.items() if ok and not after.get(pair, False)}
    gained = {pair for pair, ok in after.items() if ok and not before.get(pair, False)}
    return {"kept": kept, "lost": lost, "gained": gained}
