"""Campaign specs: matrix expansion, hashing, sharding, validation."""

import json
import os

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.spec import KNOWN_SPEC_KEYS
from repro.exceptions import CampaignError

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

MATRIX = {
    "name": "matrix",
    "topologies": ["fig5", "bad_gadget"],
    "platforms": ["netkit", "cbgp"],
    "fault_schedules": [None, {"inline": "at 2 link_down r1 r2"}],
}


def test_axes_expand_as_cartesian_product():
    spec = CampaignSpec.from_dict(MATRIX)
    assert len(spec) == 2 * 2 * 2
    assert {trial.platform for trial in spec} == {"netkit", "cbgp"}
    assert {trial.topology for trial in spec} == {"fig5", "bad_gadget"}


def test_expansion_is_deterministic():
    first = CampaignSpec.from_dict(MATRIX)
    second = CampaignSpec.from_dict(json.loads(json.dumps(MATRIX)))
    assert [t.spec_hash for t in first] == [t.spec_hash for t in second]
    assert [t.sequence for t in first] == list(range(len(first)))


def test_hash_tracks_content_not_position():
    spec = CampaignSpec.from_dict(MATRIX)
    hashes = {trial.spec_hash for trial in spec}
    assert len(hashes) == len(spec)  # every cell distinct
    # the same cell recreated in a different matrix keeps its hash
    single = CampaignSpec.from_dict(
        {"name": "one", "topologies": ["fig5"], "platforms": ["netkit"]}
    )
    assert single.trials[0].spec_hash in hashes


def test_overrides_change_the_hash():
    base = {"name": "o", "topologies": ["fig5"], "platforms": ["netkit"]}
    plain = CampaignSpec.from_dict(base).trials[0]
    bounded = CampaignSpec.from_dict({**base, "max_rounds": 9}).trials[0]
    assert plain.spec_hash != bounded.spec_hash
    assert bounded.override("max_rounds") == 9


def test_schedule_canonicalised_from_file_or_inline(tmp_path):
    schedule_file = tmp_path / "inc.fault"
    schedule_file.write_text("at 2 link_down r1 r2\n")
    inline = CampaignSpec.from_dict(
        {
            "name": "s",
            "topologies": ["fig5"],
            "platforms": ["netkit"],
            "fault_schedules": [{"inline": "at 2 link_down r1 r2"}],
        }
    )
    from_file = CampaignSpec.from_dict(
        {
            "name": "s",
            "topologies": ["fig5"],
            "platforms": ["netkit"],
            "fault_schedules": ["inc.fault"],
        },
        base_dir=str(tmp_path),
    )
    assert inline.trials[0].spec_hash == from_file.trials[0].spec_hash


def test_explicit_trials_append_after_the_product():
    spec = CampaignSpec.from_dict(
        {
            "name": "x",
            "topologies": ["fig5"],
            "platforms": ["netkit"],
            "trials": [
                {
                    "topology": "fig5",
                    "platform": "netkit",
                    "overrides": {"inject_fault": "build"},
                }
            ],
        }
    )
    assert len(spec) == 2
    assert spec.trials[-1].override("inject_fault") == "build"


def test_shards_partition_the_matrix():
    spec = CampaignSpec.from_dict(MATRIX)
    shards = [spec.shard(index, 3) for index in range(3)]
    ids = [trial.spec_hash for shard in shards for trial in shard]
    assert sorted(ids) == sorted(trial.spec_hash for trial in spec)
    assert len(ids) == len(set(ids))


def test_load_resolves_relative_paths_beside_the_file(tmp_path):
    (tmp_path / "spec.json").write_text(
        json.dumps(
            {
                "name": "filed",
                "directory": "results",
                "topologies": ["fig5"],
                "platforms": ["netkit"],
            }
        )
    )
    spec = CampaignSpec.load(tmp_path / "spec.json")
    assert spec.base_dir == str(tmp_path)
    assert spec.resolve_path("results") == str(tmp_path / "results")


@pytest.mark.parametrize(
    "data",
    [
        {"topologies": ["fig5"], "platforms": ["netkit"]},  # no name
        {"name": "n", "platforms": ["netkit"]},  # no topologies
        {"name": "n", "topologies": ["fig5"], "platforms": []},  # empty axis
        {
            "name": "n",
            "topologies": ["fig5"],
            "platforms": ["netkit"],
            "overrides": [{"typo": 1}],
        },
        {
            "name": "n",
            "topologies": ["fig5"],
            "platforms": ["netkit"],
            "overrides": [{"inject_fault": "teardown"}],  # unknown stage
        },
        {
            "name": "n",
            "topologies": ["fig5", "fig5"],  # duplicate cells
            "platforms": ["netkit"],
        },
    ],
)
def test_invalid_specs_are_rejected(data):
    with pytest.raises(CampaignError):
        CampaignSpec.from_dict(data)


def test_bad_shard_bounds():
    spec = CampaignSpec.from_dict(MATRIX)
    with pytest.raises(CampaignError):
        spec.shard(3, 3)
    with pytest.raises(CampaignError):
        spec.shard(0, 0)


def test_example_campaign_hashes_are_pinned():
    """Validation never moves a valid spec's resume keys."""
    spec = CampaignSpec.load(os.path.join(EXAMPLES, "campaign_bad_gadget.json"))
    assert [trial.spec_hash[:16] for trial in spec] == [
        "1abb85158e773c84",  # netkit
        "169d07df139f7d1f",  # dynagen
        "710ee2a874e2abf9",  # junosphere
        "4bd457ae23b9a7ab",  # cbgp
        "b882aae46311885a",  # netkit, inject_fault: deploy
    ]


def test_typed_values_keep_their_hashes():
    spec = CampaignSpec.from_dict(
        {
            "name": "typed",
            "topologies": ["fig5"],
            "platforms": ["netkit"],
            "max_rounds": 12,
            "deploy": False,
            "reachability": True,
            "boot_jobs": 2,
            "overrides": [{}, {"verify_live": False, "max_rounds": 7}],
        }
    )
    assert [trial.spec_hash[:16] for trial in spec] == [
        "10ddebd39677f498",
        "259bef4ece7bdcef",
    ]


BASE = {"name": "n", "topologies": ["fig5"], "platforms": ["netkit"]}


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"deploy": "false"}, "'deploy'"),  # bool("false") is True
        ({"reachability": 1}, "'reachability'"),
        ({"max_rounds": "abc"}, "'max_rounds'"),
        ({"max_rounds": True}, "'max_rounds'"),
        ({"boot_jobs": 2.5}, "'boot_jobs'"),
        ({"overrides": [{"max_rounds": "abc"}]}, "'max_rounds'"),
        ({"overrides": [{"verify_live": "no"}]}, "'verify_live'"),
        ({"trials": [{**BASE, "overrides": {"deploy": 0}}]}, "'deploy'"),
    ],
)
def test_typed_values_are_checked_not_coerced(extra, named):
    with pytest.raises(CampaignError, match=named):
        CampaignSpec.from_dict({**BASE, **extra})


@pytest.mark.parametrize(
    "key",
    [
        "max_round",  # a typo
        "spf_mode",   # removed: the control plane has one mode
        "bgp_mode",
    ],
)
def test_unknown_top_level_keys_are_rejected(key):
    with pytest.raises(CampaignError, match="unknown campaign spec key") as error:
        CampaignSpec.from_dict({**BASE, key: 1})
    assert repr(key) in str(error.value)
    assert ", ".join(KNOWN_SPEC_KEYS) in str(error.value)


def test_removed_override_keys_are_rejected():
    with pytest.raises(CampaignError, match="unknown override 'spf_mode'"):
        CampaignSpec.from_dict({**BASE, "overrides": [{"spf_mode": "full"}]})
