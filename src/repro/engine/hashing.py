"""Content-addressed cache keys for rendered device configurations.

A device's rendered output is a pure function of (a) its compiled NIDB
subtree and (b) the source text of every template and template-folder
file its render stanza references.  The cache key is therefore a stable
hash over exactly those inputs: change a link weight and only the two
endpoint devices' keys move; edit ``ospfd.conf.j2`` and every OSPF
router's key moves; touch nothing and a rebuild is all cache hits.

Device templates are node-scoped by design (§4.1 keeps "complicated
transformations" in the compiler), so no global state belongs in the
key.  The topology-level files (``lab.conf`` and friends) *do* depend
on every device, and get a key over the whole database.
"""

from __future__ import annotations

import hashlib
import os

from repro.nidb.database import DeviceModel, Nidb, stable_hash
from repro.render import template_source

#: Bump to invalidate every previously cached artifact (format changes).
ENGINE_CACHE_VERSION = 1


class TemplateHasher:
    """Memoises template-source hashes for one build run.

    The build engine makes a new one per build, so a template edited
    between two builds of one engine moves the keys of its devices.
    """

    def __init__(self):
        self._hashes: dict[str, str] = {}

    def source_hash(self, template_name: str) -> str:
        if template_name not in self._hashes:
            text = template_source(template_name)
            self._hashes[template_name] = hashlib.sha256(
                text.encode("utf-8")
            ).hexdigest()
        return self._hashes[template_name]


def _entry_template(entry) -> str:
    return str(entry["template"] if isinstance(entry, dict) else entry.template)


def _folder_source(folder) -> str:
    return str(folder["source"] if isinstance(folder, dict) else folder.source)


def _folder_hashes(folder) -> dict[str, str]:
    """``{relative path: content hash}`` for every file under a folder."""
    source = _folder_source(folder)
    hashes: dict[str, str] = {}
    if not os.path.isdir(source):
        return hashes
    for root, _, names in os.walk(source):
        relative_root = os.path.relpath(root, source)
        for name in sorted(names):
            relative = os.path.normpath(os.path.join(relative_root, name))
            with open(os.path.join(root, name), "rb") as handle:
                hashes[relative] = hashlib.sha256(handle.read()).hexdigest()
    return hashes


def device_cache_key(
    device: DeviceModel, fingerprint: str, hasher: TemplateHasher
) -> str:
    """The content-addressed key of one device's rendered artifact.

    ``fingerprint`` is ``device.fingerprint()``, taken once per build
    (the engine's :meth:`Nidb.fingerprints` map), and ``hasher`` is
    that build's template-source memo.
    """
    render = device.render
    templates: dict[str, str] = {}
    folders: dict[str, dict[str, str]] = {}
    if render:
        for entry in render.files or []:
            name = _entry_template(entry)
            templates[name] = hasher.source_hash(name)
        for folder in render.folders or []:
            folders[_folder_source(folder)] = _folder_hashes(folder)
    return stable_hash(
        {
            "version": ENGINE_CACHE_VERSION,
            "kind": "device",
            "fingerprint": fingerprint,
            "templates": templates,
            "folders": folders,
        }
    )


def topology_cache_key(
    nidb: Nidb, fingerprints: dict[str, str], hasher: TemplateHasher
) -> str:
    """The key of the topology-level files — moves when any device does.

    ``fingerprints`` is ``nidb.fingerprints()``, taken once per build.
    """
    templates: dict[str, str] = {}
    render = nidb.topology.render
    if render:
        for entry in render.files or []:
            name = _entry_template(entry)
            templates[name] = hasher.source_hash(name)
    return stable_hash(
        {
            "version": ENGINE_CACHE_VERSION,
            "kind": "topology",
            "topology": nidb.topology,
            "devices": sorted(fingerprints.items()),
            "templates": templates,
        }
    )
