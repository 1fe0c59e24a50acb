"""Shared fan-out helper for per-machine lab parsing.

Every platform parser has the same shape: a cheap global pass (the
wiring file) followed by fully independent per-machine work (reading
and parsing that machine's configuration files).  The per-machine part
is what ``jobs`` parallelises, reusing the engine's thread executor so the
same ``--jobs`` knob governs builds and boots alike.

Determinism: results are returned in the caller's machine order
regardless of completion order, so a parallel parse produces an intent
byte-identical to a serial one — the parallel-boot determinism tests
pin this down.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.emulation.intent import DeviceIntent, LabIntent
from repro.emulation.labtree import LabTree
from repro.engine.executors import ThreadExecutor, run_calls
from repro.exceptions import ConfigParseError
from repro.observability import metric_inc


def parse_machines(
    machines: Sequence[str],
    parse_one: Callable[[str], object],
    jobs: int = 1,
) -> Iterable[tuple[str, object]]:
    """Run ``parse_one`` per machine, serially or fanned out.

    Returns ``(machine, result)`` pairs in the order of ``machines``.
    Worker exceptions propagate to the caller exactly as in the serial
    path — parsers already convert per-device errors into
    ``boot_errors``, so anything escaping here is a genuine bug.
    """
    if jobs <= 1 or len(machines) <= 1:
        return [(machine, parse_one(machine)) for machine in machines]
    executor = ThreadExecutor(jobs)
    try:
        metric_inc("deploy.parallel_parses")
        results = run_calls(
            executor,
            [("parse:%s" % machine, parse_one, machine) for machine in machines],
        )
    finally:
        executor.shutdown()
    return list(zip(machines, results))


def parse_config_dir(
    tree: LabTree,
    lab: LabIntent,
    suffix: str,
    parse_config: Callable[[str, str], DeviceIntent],
    vendor: str,
    jobs: int = 1,
) -> None:
    """Parse each ``configs/<machine><suffix>``; a failed parse lands in ``boot_errors``."""
    if "configs" not in tree.listdir():
        raise ConfigParseError("no configs/ directory in %s" % tree.source, "configs")
    machines = sorted(
        entry[: -len(suffix)]
        for entry in tree.listdir("configs")
        if entry.endswith(suffix)
    )

    def parse_one(machine: str) -> DeviceIntent:
        try:
            return parse_config(tree.read("configs/" + machine + suffix), machine)
        except ConfigParseError as exc:
            device = DeviceIntent(name=machine, vendor=vendor)
            device.boot_errors.append(exc)
            return device

    for machine, device in parse_machines(machines, parse_one, jobs=jobs):
        lab.devices[machine] = device
