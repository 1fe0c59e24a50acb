"""The Resource Database (NIDB): compiled device-level state (§5.4)."""

from repro.nidb.database import (
    ConfigStanza,
    DeviceModel,
    Nidb,
    SharedStanza,
    changed_devices,
    stable_hash,
    subnet_items,
)
from repro.nidb.diff import AttributeChange, NidbDiff, diff_nidbs

__all__ = [
    "AttributeChange",
    "ConfigStanza",
    "DeviceModel",
    "Nidb",
    "NidbDiff",
    "SharedStanza",
    "changed_devices",
    "diff_nidbs",
    "stable_hash",
    "subnet_items",
]
