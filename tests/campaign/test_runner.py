"""The sharded campaign runner: resume, quarantine, shared cache."""

import os

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, ResultStore, run_campaign
from repro.exceptions import CampaignError


def build_only_spec(**extra) -> dict:
    """A fast campaign: render only, no emulated boot."""
    return {
        "name": "fast",
        "topologies": ["fig5"],
        "platforms": ["netkit", "cbgp"],
        "deploy": False,
        **extra,
    }


def test_run_campaign_accepts_a_dict(tmp_path):
    result = run_campaign(build_only_spec(), directory=tmp_path)
    assert result.executed == 2
    assert result.ok
    statuses = {record.trial_id: record.status for record in result.records}
    assert set(statuses.values()) == {"ok"}
    assert len(ResultStore(tmp_path).records()) == 2


def test_rerun_executes_only_the_delta(tmp_path):
    spec = build_only_spec()
    first = run_campaign(spec, directory=tmp_path)
    second = run_campaign(spec, directory=tmp_path)
    assert first.executed == 2
    assert second.executed == 0
    assert len(second.skipped) == 2
    # extending the matrix re-runs just the new cells
    third = run_campaign(
        build_only_spec(platforms=["netkit", "cbgp", "dynagen"]),
        directory=tmp_path,
    )
    assert third.executed == 1
    assert third.records[0].platform == "dynagen"


def test_trials_share_one_artifact_cache(tmp_path):
    # two trials identical up to the fault schedule: the second must
    # reuse every rendered artifact from the first
    spec = {
        "name": "shared",
        "topologies": ["fig5"],
        "platforms": ["netkit"],
        "deploy": False,
        "fault_schedules": [None, {"inline": "at 2 link_down r1 r2"}],
    }
    result = run_campaign(spec, directory=tmp_path)
    assert result.executed == 2
    warm = result.records[1].engine
    assert warm["cache_hits"] > 0
    assert warm["rendered_devices"] == 0
    assert warm["cached_devices"] > 0
    assert result.cache_hits > 0


def test_pool_run_counts_the_cache_hits_of_its_workers(tmp_path):
    # three trials over one build and two pool workers: the third trial
    # starts only after a worker finished, so it reads the cache back
    spec = {
        "name": "pooled",
        "topologies": ["fig5"],
        "platforms": ["netkit"],
        "deploy": False,
        "fault_schedules": [
            None,
            {"inline": "at 2 link_down r1 r2"},
            {"inline": "at 3 link_down r1 r2"},
        ],
    }
    result = run_campaign(spec, directory=tmp_path, jobs=2)
    assert result.executed == 3
    assert result.degraded_to is None
    assert result.cache_hits > 0
    assert result.cache_hits == sum(
        record.engine["cache"]["hits"] for record in result.records
    )
    assert result.cache_misses == sum(
        record.engine["cache"]["misses"] for record in result.records
    )


def test_pool_workers_build_against_the_runners_cache(tmp_path):
    # a caller-supplied cache (the service's) is the one pool workers
    # open, not the store's default <directory>/cache
    from repro.engine import ArtifactCache

    cache = ArtifactCache(str(tmp_path / "shared-cache"))
    runner = CampaignRunner(
        CampaignSpec.from_dict(build_only_spec()),
        directory=str(tmp_path / "results"),
        jobs=2,
        cache=cache,
    )
    result = runner.run()
    assert result.executed == 2
    assert os.listdir(os.path.join(cache.directory, "objects"))
    assert not os.path.exists(runner.store.cache_dir())


def test_failed_trial_is_quarantined_not_fatal(tmp_path):
    spec = build_only_spec(
        trials=[
            {
                "topology": "fig5",
                "platform": "netkit",
                "overrides": {"deploy": False, "inject_fault": "build"},
            }
        ]
    )
    result = run_campaign(spec, directory=tmp_path)
    assert result.executed == 3
    assert len(result.failed) == 1
    assert "fault injected at build stage" in result.failed[0].error
    # the failure is in the index and counts as completed on resume
    assert run_campaign(spec, directory=tmp_path).executed == 0


def test_retry_failed_reexecutes_only_failures(tmp_path):
    spec = build_only_spec(
        trials=[
            {
                "topology": "fig5",
                "platform": "netkit",
                "overrides": {"deploy": False, "inject_fault": "build"},
            }
        ]
    )
    run_campaign(spec, directory=tmp_path)
    retried = run_campaign(spec, directory=tmp_path, retry_failed=True)
    assert retried.executed == 1
    assert not retried.records[0].ok  # still injected, still quarantined


def test_shards_cover_the_matrix_without_overlap(tmp_path):
    spec = build_only_spec(platforms=["netkit", "cbgp", "dynagen", "junosphere"])
    left = run_campaign(spec, directory=tmp_path, shard=(0, 2))
    right = run_campaign(spec, directory=tmp_path, shard=(1, 2))
    assert left.executed == 2
    assert right.executed == 2
    assert len(ResultStore(tmp_path).latest()) == 4


def test_limit_bounds_one_invocation(tmp_path):
    spec = build_only_spec()
    assert run_campaign(spec, directory=tmp_path, limit=1).executed == 1
    assert run_campaign(spec, directory=tmp_path).executed == 1  # the rest


def test_deployed_trial_records_convergence_and_reachability(tmp_path):
    result = run_campaign(
        {"name": "boot", "topologies": ["fig5"], "platforms": ["netkit"]},
        directory=tmp_path,
    )
    record = result.records[0]
    assert record.convergence["status"] == "converged"
    assert record.reachability["fraction"] == 1.0
    assert "deploy" in record.timings


def test_runner_requires_a_directory_somewhere():
    spec = CampaignSpec.from_dict(build_only_spec())
    with pytest.raises(CampaignError):
        CampaignRunner(spec)


def test_parallel_jobs_produce_the_same_index(tmp_path):
    spec = build_only_spec(platforms=["netkit", "cbgp", "dynagen"])
    result = run_campaign(spec, directory=tmp_path, jobs=2)
    assert result.executed == 3
    assert result.ok
    hashes = {record.spec_hash for record in ResultStore(tmp_path).records()}
    assert hashes == {t.spec_hash for t in CampaignSpec.from_dict(spec)}
