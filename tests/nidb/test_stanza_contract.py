"""The ``ConfigStanza`` storage contract the renderer and engine rely on.

Fields live in the instance ``__dict__``, so a template reading a set
field never reaches ``__getattr__``; names the class defines are
reserved; ``DeviceModel.node_id`` stays out of the compiled state; and
fingerprints (the build engine's cache keys) are unchanged by how the
fields are stored.
"""

import copy
import hashlib
import ipaddress
import json
import pickle

import pytest

from repro.compilers import platform_compiler
from repro.design import design_network
from repro.exceptions import CompilerError
from repro.loader import small_internet
from repro.nidb import ConfigStanza, DeviceModel, stable_hash
from repro.render import render_template

#: ``fingerprint()`` of every small_internet device before fields moved
#: into the instance ``__dict__``; the storage change must not move them.
SMALL_INTERNET_FINGERPRINTS = {
    "as100r1": "b496b3b02cebe0d5eafc11d87838098dd3737b55750bca7007b1454c7ab22b0d",
    "as100r2": "af976c43e7930679c7c86f9ef8981e4c470a34cbf9e16ac4b233eb7b563c9f2b",
    "as100r3": "4c08f86ff1a81d34c31e63fbca9c97c63e6c94b557951cd06177357840064317",
    "as1r1": "5b24b758a91ad56736ca393ac7720006256a9c227e52d987522115079070e31f",
    "as200r1": "7c464b053244f797184a84596d5914110b04986ea3e2bb8ec78125ba0542e9bd",
    "as20r1": "e2e21529f0ba20b86ce457cb39b5f1e20a3290f532e9c23725f54ff39d6b357d",
    "as20r2": "65de36119b5a4f44cf316ef49eeb2a7ba754b41d1e459c7677e81827eb17c385",
    "as20r3": "5ec517fa29bcfda60669978586abb35d4e79a54dcfccefee5eca7e5ef4a24ddb",
    "as300r1": "6b531a9d56380214cc50108a51b1cde24d72c75b781b9280d6daa2f1178e7da8",
    "as300r2": "e4767bedb2ac61f5797a417d2dff70f960315ff575bc0a67ea4fd2d9a350a745",
    "as300r3": "1a3bbea8acdaf6c8bd383e66a8c08fc7c36f8fbcf5d0c668e242f93a290554d8",
    "as300r4": "8f94191f82642c70166fa8e8e7ea8012be0ab30dbb12d940e3bb784999add17a",
    "as30r1": "b506f52685d3ec23a36ccaf1573685f247112af7bb110c9ebd44b38e8a9829fb",
    "as40r1": "0a578ebef136f18ed85cc50b1afc4cdeb9917302d933477cdd1766409eef3c2c",
}


def _device():
    device = DeviceModel("r1", hostname="r1", zebra={"hostname": "r1"})
    device.add_interface(id="eth0", ip_address="10.0.0.1", prefixlen=30)
    device.bgp = {"asn": 1, "ebgp_neighbors": [{"neighbor_ip": "10.0.0.2"}]}
    return device


class TestMissingNames:
    def test_missing_field_reads_none(self):
        assert ConfigStanza(a=1).b is None
        assert _device().zebra.password is None

    def test_dunder_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            ConfigStanza().__wrapped__
        assert not hasattr(ConfigStanza(), "__html__")


class TestReservedNames:
    @pytest.mark.parametrize("name", ["get", "require", "to_dict", "setdefault"])
    def test_stanza_method_names_are_refused(self, name):
        with pytest.raises(CompilerError, match=name):
            ConfigStanza(**{name: 1})
        with pytest.raises(CompilerError, match=name):
            setattr(ConfigStanza(), name, 1)
        with pytest.raises(CompilerError, match=name):
            ConfigStanza(nested={name: 1})

    @pytest.mark.parametrize("name", ["interface", "fingerprint", "node_id"])
    def test_device_names_are_refused(self, name):
        with pytest.raises(CompilerError, match=name):
            setattr(_device(), name, 1)

    def test_device_names_are_free_in_plain_stanzas(self):
        assert ConfigStanza(interface="eth0").interface == "eth0"


class TestCopies:
    @pytest.mark.parametrize("clone", [pickle.loads, copy.deepcopy])
    def test_round_trip_compares_equal(self, clone):
        device = _device()
        payload = pickle.dumps(device) if clone is pickle.loads else device
        copied = clone(payload)
        assert copied == device
        assert copied.node_id == "r1"
        assert copied.interface("eth0").ip_address == "10.0.0.1"
        assert copied.bgp.ebgp_neighbors[0].neighbor_ip == "10.0.0.2"
        assert copied.missing is None


class TestDeviceState:
    def test_node_id_is_not_a_field(self):
        device = _device()
        assert device.node_id == "r1"
        assert "node_id" not in device.to_dict()
        assert "node_id" not in device

    def test_small_internet_fingerprints_are_pinned(self):
        nidb = platform_compiler("netkit", design_network(small_internet())).compile()
        assert nidb.fingerprints() == SMALL_INTERNET_FINGERPRINTS


def _plain_hash(value) -> str:
    """The reference encoding: plain JSON values, other leaves as ``str``."""
    payload = json.dumps(value, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class TestStableHash:
    """Hashing a stanza tree in place equals hashing its ``to_dict()``."""

    @pytest.mark.parametrize("platform", ["netkit", "dynagen", "junosphere", "cbgp"])
    def test_fingerprints_hash_the_plain_dump(self, platform):
        anm = design_network(small_internet())
        nidb = platform_compiler(platform, anm).compile()
        for device in nidb:
            plain = {"id": str(device.node_id), "state": device.to_dict()}
            assert device.fingerprint() == _plain_hash(plain)
        assert stable_hash(nidb.topology) == _plain_hash(nidb.topology.to_dict())

    def test_non_json_leaves_hash_like_the_plain_dump(self):
        stanza = ConfigStanza(
            address=ipaddress.ip_interface("10.0.0.1/30"),
            neighbors=[
                {"ip": ipaddress.ip_address("10.0.0.2"), "asn": 2},
                {"ip": ipaddress.ip_address("10.0.0.6"), "asn": 3},
            ],
        )
        value = {"state": stanza, "pair": ("first", stanza.neighbors[0])}
        plain = {
            "state": stanza.to_dict(),
            "pair": ["first", stanza.neighbors[0].to_dict()],
        }
        assert stable_hash(value) == _plain_hash(plain)

    def test_stanzas_with_equal_names_but_other_values_differ(self):
        first = ConfigStanza(hostname="r1", asn=1)
        second = ConfigStanza(hostname="r1", asn=2)
        assert repr(first) == repr(second)
        assert stable_hash(first) != stable_hash(second)
        assert stable_hash({"peers": [first]}) != stable_hash({"peers": [second]})


def _bgp_device(neighbors: int) -> DeviceModel:
    device = DeviceModel(
        "r1",
        zebra={"hostname": "r1", "password": "1234"},
        bgp={
            "asn": 1,
            "router_id": "192.168.0.1",
            "networks": ["10.0.0.0/16"],
            "ibgp_neighbors": [],
        },
    )
    device.bgp.ebgp_neighbors = [
        {
            "neighbor": "peer%d" % index,
            "neighbor_ip": "10.%d.%d.2" % (index // 256, index % 256),
            "remote_asn": 100 + index,
            "description": "peer%d" % index,
            "local_pref": 200 if index % 2 else None,
            "med": index if index % 3 == 0 else None,
        }
        for index in range(neighbors)
    ]
    return device


def test_rendering_bgpd_never_falls_back_for_set_fields(monkeypatch):
    """Work count: set fields are plain attribute reads, not ``__getattr__``."""
    device = _bgp_device(100)
    fallbacks = []
    original = ConfigStanza.__getattr__

    def counting(self, name):
        fallbacks.append((name, name in self))
        return original(self, name)

    monkeypatch.setattr(ConfigStanza, "__getattr__", counting)
    text = render_template("quagga/bgpd.conf.j2", node=device)
    assert text.count(" remote-as ") == 100
    assert [name for name, was_set in fallbacks if was_set] == []
    # the fallbacks left are the template's probes for unset options
    assert {name for name, _ in fallbacks} <= {
        "as_path_prepend", "community", "deny_prefixes_in", "deny_prefixes_out",
    }
