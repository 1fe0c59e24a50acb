"""The shared per-router pass of the Dynagen and Junosphere lab parsers.

Both platforms keep one configuration file per router under
``configs/``; each file is parsed on its own, in sorted machine order.
"""

from __future__ import annotations

from typing import Callable

from repro.emulation.intent import DeviceIntent, LabIntent
from repro.emulation.labtree import LabTree
from repro.exceptions import ConfigParseError


def parse_config_dir(
    tree: LabTree,
    lab: LabIntent,
    suffix: str,
    parse_config: Callable[[str, str], DeviceIntent],
    vendor: str,
) -> None:
    """Parse each ``configs/<machine><suffix>``; a failed parse lands in ``boot_errors``."""
    if "configs" not in tree.listdir():
        raise ConfigParseError("no configs/ directory in %s" % tree.source, "configs")
    machines = sorted(
        entry[: -len(suffix)]
        for entry in tree.listdir("configs")
        if entry.endswith(suffix)
    )
    for machine in machines:
        try:
            device = parse_config(tree.read("configs/" + machine + suffix), machine)
        except ConfigParseError as exc:
            device = DeviceIntent(name=machine, vendor=vendor)
            device.boot_errors.append(exc)
        lab.devices[machine] = device
