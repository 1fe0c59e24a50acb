"""Cache keys: stability across compiles, sensitivity to real changes."""

from collections import Counter

import pytest

from repro.compilers import platform_compiler
from repro.design import design_network
from repro.engine import (
    BuildEngine,
    TemplateHasher,
    device_cache_key,
    topology_cache_key,
)
from repro.liveupdate import apply_edits, diff_designs, parse_edits
from repro.loader import fig5_topology, small_internet
from repro.nidb import DeviceModel, stable_hash


def _cost_edit():
    edit = '[{"kind": "cost", "link": ["as20r1", "as20r2"], "value": 17}]'
    return apply_edits(small_internet(), parse_edits(edit))


def _nidb():
    return platform_compiler("netkit", design_network(fig5_topology())).compile()


def test_stable_hash_is_order_insensitive():
    assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
    assert stable_hash({"a": 1}) != stable_hash({"a": 2})


def test_device_keys_stable_across_compiles():
    first, second = _nidb(), _nidb()
    hasher = TemplateHasher()
    for device in first:
        twin = second.node(device.node_id)
        assert device_cache_key(
            device, device.fingerprint(), hasher
        ) == device_cache_key(twin, twin.fingerprint(), hasher)


def test_device_key_tracks_compiled_state():
    nidb = _nidb()
    device = nidb.routers()[0]
    before = device_cache_key(device, device.fingerprint(), TemplateHasher())
    device.zebra.hostname = "renamed"
    assert device_cache_key(device, device.fingerprint(), TemplateHasher()) != before


def test_keys_differ_between_devices():
    nidb = _nidb()
    hasher = TemplateHasher()
    keys = {device_cache_key(device, device.fingerprint(), hasher) for device in nidb}
    assert len(keys) == len(nidb)


def test_topology_key_moves_with_any_device():
    first, second = _nidb(), _nidb()
    hasher = TemplateHasher()

    def key(nidb):
        return topology_cache_key(nidb, nidb.fingerprints(), hasher)

    assert key(first) == key(second)
    second.routers()[0].zebra.hostname = "renamed"
    assert key(first) != key(second)


def test_template_hasher_memoises():
    hasher = TemplateHasher()
    nidb = _nidb()
    device = nidb.routers()[0]
    device_cache_key(device, device.fingerprint(), hasher)
    assert hasher._hashes  # sources were read...
    first = dict(hasher._hashes)
    device_cache_key(device, device.fingerprint(), hasher)
    assert hasher._hashes == first  # ...and not re-read


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """``{device id: DeviceModel.fingerprint() calls}``, reset by the test."""
    calls = Counter()
    original = DeviceModel.fingerprint

    def counted(device):
        calls[str(device.node_id)] += 1
        return original(device)

    monkeypatch.setattr(DeviceModel, "fingerprint", counted)
    return calls


def test_each_build_fingerprints_every_device_once(fingerprint_calls, tmp_path):
    engine = BuildEngine(jobs=1)
    devices = set(small_internet().nodes)
    edited = _cost_edit()
    for run in (
        lambda: engine.build(small_internet(), output_dir=str(tmp_path)),  # cold
        lambda: engine.build(small_internet(), output_dir=str(tmp_path)),  # warm
        lambda: engine.incremental_update(edited),
    ):
        fingerprint_calls.clear()
        run()
        assert set(fingerprint_calls) == devices
        assert set(fingerprint_calls.values()) == {1}


def test_diff_designs_fingerprints_each_side_once(fingerprint_calls, tmp_path):
    edited = _cost_edit()
    diff_designs(small_internet(), edited, work_dir=str(tmp_path))
    assert set(fingerprint_calls) == set(small_internet().nodes)
    assert set(fingerprint_calls.values()) == {2}
