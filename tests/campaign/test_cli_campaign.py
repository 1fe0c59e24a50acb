"""CLI round trips for `repro campaign run|status|report`."""

import json

import pytest

from repro.campaign import ResultStore
from repro.cli import main

SPEC = {
    "name": "cli_matrix",
    "topologies": ["fig5"],
    "platforms": ["netkit", "cbgp"],
    "deploy": False,
    "trials": [
        {
            "topology": "fig5",
            "platform": "netkit",
            "overrides": {"deploy": False, "inject_fault": "build"},
        },
        # differs from the matrix's netkit cell only in overrides, so its
        # rendering must come entirely from the shared artifact cache
        {
            "topology": "fig5",
            "platform": "netkit",
            "overrides": {"deploy": False, "max_rounds": 10},
        },
    ],
}


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


@pytest.fixture()
def campaign_dir(tmp_path):
    return str(tmp_path / "results")


def test_run_survives_a_failed_trial(spec_file, campaign_dir, capsys):
    assert main(["campaign", "run", spec_file, "-o", campaign_dir, "-j", "2"]) == 0
    out = capsys.readouterr().out
    assert "4 executed (1 failed)" in out
    assert "fault injected at build stage" in out
    # the quarantined failure is in the index alongside the successes
    records = ResultStore(campaign_dir).records()
    assert sorted(record.status for record in records) == ["failed", "ok", "ok", "ok"]


def test_run_with_profile_captures_per_trial_profiles(spec_file, campaign_dir, tmp_path):
    import os

    # an explicit prefix: bare --profile writes profile.collapsed into the cwd
    prefix = str(tmp_path / "profile")
    assert main(["campaign", "run", spec_file, "-o", campaign_dir,
                 "--profile", prefix, "--quiet"]) == 0
    assert os.path.exists(prefix + ".collapsed")
    store = ResultStore(campaign_dir)
    ok_records = [record for record in store.records() if record.ok]
    assert ok_records
    for record in ok_records:
        assert record.profile, "trial record carries no profile summary"
        assert os.path.exists(record.profile["collapsed"])
        assert os.path.exists(record.profile["table"])
        table = open(record.profile["table"]).read()
        assert "hot functions" in table or "function" in table


def test_strict_run_exits_nonzero_on_failures(spec_file, campaign_dir):
    assert main(["campaign", "run", spec_file, "-o", campaign_dir, "--strict"]) == 1


def test_rerun_resumes_with_zero_executed(spec_file, campaign_dir, capsys):
    assert main(["campaign", "run", spec_file, "-o", campaign_dir, "--quiet"]) == 0
    assert main(["campaign", "run", spec_file, "-o", campaign_dir, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["executed"] == 0
    assert len(data["resumed"]) == 4
    assert data["exit_code"] == 0


def test_resume_after_interrupt(spec_file, campaign_dir, capsys):
    # --limit models an interrupted campaign: only part of the matrix ran
    assert main(["campaign", "run", spec_file, "-o", campaign_dir, "--limit", "1", "--quiet"]) == 0
    assert main(["campaign", "status", spec_file, "-o", campaign_dir, "--quiet"]) == 3
    assert main(["campaign", "run", spec_file, "-o", campaign_dir, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["executed"] == 3  # only the delta
    assert main(["campaign", "status", spec_file, "-o", campaign_dir, "--quiet"]) == 0


def test_trials_share_the_artifact_cache(spec_file, campaign_dir, capsys):
    # serial run: the explicit max_rounds trial executes after the plain
    # netkit cell and must render nothing at all
    assert main(["campaign", "run", spec_file, "-o", campaign_dir, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    warm = [
        t["engine"]
        for t in data["trials"]
        if t["platform"] == "netkit"
        and t["status"] == "ok"
        and t["engine"].get("rendered_devices") == 0
    ]
    assert len(warm) == 1
    assert warm[0]["cache_hits"] > 0
    assert warm[0]["cached_devices"] > 0
    assert data["cache_hits"] > 0


def test_status_before_any_run_is_pending(spec_file, campaign_dir, capsys):
    assert main(["campaign", "status", spec_file, "-o", campaign_dir]) == 3
    assert "4 pending" in capsys.readouterr().out


def test_report_renders_the_outcome_table(spec_file, campaign_dir, capsys):
    main(["campaign", "run", spec_file, "-o", campaign_dir, "--quiet"])
    assert main(["campaign", "report", spec_file, "-o", campaign_dir]) == 0
    out = capsys.readouterr().out
    assert "| topology | platform | outcome | trials | time (s) |" in out
    assert "FAILED" in out
    # report also accepts the campaign directory directly, and csv
    assert main(["campaign", "report", campaign_dir, "--format", "csv"]) == 0
    assert "trial_id,topology,platform" in capsys.readouterr().out


def test_report_missing_index_is_an_error(spec_file, campaign_dir, capsys):
    assert main(["campaign", "report", spec_file, "-o", campaign_dir]) == 2
    assert "no campaign index" in capsys.readouterr().err


def test_report_baseline_comparison(spec_file, campaign_dir, capsys):
    main(["campaign", "run", spec_file, "-o", campaign_dir, "--quiet"])
    assert (
        main(
            [
                "campaign", "report", spec_file,
                "-o", campaign_dir, "--baseline", campaign_dir,
            ]
        )
        == 0
    )
    assert "0 regression(s)" in capsys.readouterr().out


def test_sharded_runs_cover_the_matrix(spec_file, campaign_dir):
    assert main(["campaign", "run", spec_file, "-o", campaign_dir, "--shard", "0/2", "--quiet"]) == 0
    assert main(["campaign", "status", spec_file, "-o", campaign_dir, "--quiet"]) == 3
    assert main(["campaign", "run", spec_file, "-o", campaign_dir, "--shard", "1/2", "--quiet"]) == 0
    assert main(["campaign", "status", spec_file, "-o", campaign_dir, "--quiet"]) == 0


def test_bad_shard_and_bad_spec_exit_2(spec_file, campaign_dir, tmp_path, capsys):
    assert main(["campaign", "run", spec_file, "-o", campaign_dir, "--shard", "9"]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["campaign", "run", str(broken)]) == 2
    assert main(["campaign", "run", str(tmp_path / "absent.json")]) == 2


def test_keyboard_interrupt_exits_130(monkeypatch, spec_file, capsys):
    from repro import cli

    def interrupted(args, out):
        raise KeyboardInterrupt

    monkeypatch.setitem(
        cli.__dict__, "_cmd_campaign", interrupted
    )
    assert main(["campaign", "run", spec_file]) == 130
    assert "interrupted" in capsys.readouterr().err


def test_status_accepts_a_results_directory(spec_file, campaign_dir, capsys):
    """The spec is recoverable from the stored index: `repro campaign
    status <dir>` needs no spec file at all."""
    assert main(["campaign", "run", spec_file, "-o", campaign_dir,
                 "--limit", "1", "--quiet"]) == 0
    capsys.readouterr()
    assert main(["campaign", "status", campaign_dir]) == 3
    out = capsys.readouterr().out
    assert "campaign cli_matrix" in out
    assert "3 pending" in out
    # finish the matrix: the directory view flips to complete/exit 0
    assert main(["campaign", "run", spec_file, "-o", campaign_dir, "--quiet"]) == 0
    assert main(["campaign", "status", campaign_dir, "--quiet"]) == 0


def test_status_on_a_directory_without_spec_json_explains(tmp_path, capsys):
    empty = tmp_path / "not_a_campaign"
    empty.mkdir()
    assert main(["campaign", "status", str(empty)]) == 2
    assert "spec" in capsys.readouterr().err


def test_run_on_a_directory_is_rejected(spec_file, campaign_dir, capsys):
    assert main(["campaign", "run", spec_file, "-o", campaign_dir,
                 "--quiet"]) == 0
    assert main(["campaign", "run", campaign_dir]) == 2
    assert "directory" in capsys.readouterr().err
