"""Unit tests for the command-line interface."""

import os

import pytest

from repro.cli import main
from repro.loader import fig5_topology, save_graphml


@pytest.fixture()
def topology_file(tmp_path):
    path = tmp_path / "fig5.graphml"
    save_graphml(fig5_topology(), path)
    return str(path)


def test_info_builtin(capsys):
    assert main(["info", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "overlay ospf" in out
    assert "overlay ebgp" in out


def test_info_from_file(topology_file, capsys):
    assert main(["info", topology_file]) == 0
    assert "overlay phy: 5 nodes" in capsys.readouterr().out


def test_build_renders_lab(tmp_path, capsys):
    assert main(["build", "fig5", "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "rendered" in out
    assert os.path.exists(tmp_path / "localhost" / "netkit" / "lab.conf")


def test_build_other_platform(tmp_path):
    assert main(["build", "fig5", "--platform", "cbgp", "-o", str(tmp_path)]) == 0
    assert os.path.exists(tmp_path / "localhost" / "cbgp" / "network.cli")


def test_build_with_rule_subset(tmp_path, capsys):
    assert (
        main(["build", "fig5", "--rules", "phy", "ipv4", "isis", "-o", str(tmp_path)])
        == 0
    )
    quagga_dir = tmp_path / "localhost" / "netkit" / "r1" / "etc" / "quagga"
    assert (quagga_dir / "isisd.conf").exists()
    assert not (quagga_dir / "ospfd.conf").exists()


def test_verify_clean_topology(capsys):
    assert main(["verify", "small_internet"]) == 0
    out = capsys.readouterr().out
    assert "static verification passed" in out
    assert "oscillation-free" in out


def test_verify_flags_bad_gadget(capsys):
    assert main(["verify", "bad_gadget"]) == 1
    assert "risks oscillation" in capsys.readouterr().out


def test_deploy(capsys):
    assert main(["deploy", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "lstart" in out
    assert "lab up: 5 machines, BGP converged" in out


def test_measure(capsys):
    assert main(["measure", "fig5", "-c", "show ip bgp summary", "-H", "r3", "r5"]) == 0
    out = capsys.readouterr().out
    assert "=== r3 ===" in out
    assert "local AS number 1" in out


def test_measure_json_reports_per_host_results(capsys):
    import json

    assert (
        main(["measure", "fig5", "-c", "show ip bgp summary", "-H", "r3", "--json"])
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["failures"] == []
    (result,) = data["results"]
    assert result["machine"] == "r3"
    assert result["ok"] is True
    assert result["error"] is None
    assert "local AS number 1" in result["output"]


def test_measure_failed_host_is_reported_and_nonzero(capsys):
    import json

    assert (
        main(
            [
                "measure", "fig5", "-c", "show ip bgp summary",
                "-H", "r3", "nosuch", "--json",
            ]
        )
        == 1
    )
    data = json.loads(capsys.readouterr().out)
    assert data["failures"] == ["nosuch"]
    by_machine = {result["machine"]: result for result in data["results"]}
    assert by_machine["r3"]["ok"] is True
    assert by_machine["nosuch"]["ok"] is False
    assert by_machine["nosuch"]["error"]
    assert data["exit_code"] == 1


def test_measure_failed_host_text_output(capsys):
    assert (
        main(["measure", "fig5", "-c", "show ip bgp summary", "-H", "nosuch"]) == 1
    )
    out = capsys.readouterr().out
    assert "FAILED:" in out
    assert "1/1 measurements failed: nosuch" in out


def test_keyboard_interrupt_exits_130(monkeypatch, capsys):
    from repro import cli

    def interrupted(args, out):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_info", interrupted)
    assert main(["info", "fig5"]) == 130
    assert "interrupted" in capsys.readouterr().err


def test_measure_traceroute_maps_path(capsys):
    assert main(["measure", "fig5", "-c", "traceroute -naU 192.168.128.1", "-H", "r1"]) == 0
    out = capsys.readouterr().out
    assert "mapped:" in out
    assert "AS path:" in out


def test_visualize_html(tmp_path, capsys):
    output = str(tmp_path / "view.html")
    assert main(["visualize", "fig5", "--overlay", "ebgp", "-o", output]) == 0
    assert open(output).read().startswith("<!DOCTYPE html>")


def test_visualize_json(tmp_path):
    output = str(tmp_path / "view.json")
    assert main(["visualize", "fig5", "--overlay", "ospf", "-o", output]) == 0
    import json

    data = json.loads(open(output).read())
    assert data["overlay"] == "ospf"


def test_missing_file_is_error(capsys):
    assert main(["info", "/nonexistent/net.graphml"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_topology_is_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"nodes\": []}")
    assert main(["build", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


class TestWhatIf:
    def test_requires_a_failure(self, capsys):
        assert main(["whatif", "fig5"]) == 2
        assert "nothing to fail" in capsys.readouterr().err

    def test_redundant_link_failure_exits_zero(self, capsys):
        assert main(["whatif", "small_internet", "--fail-link", "as100r1", "as100r2"]) == 0
        out = capsys.readouterr().out
        assert "pairs lost: 0" in out

    def test_partition_exits_nonzero(self, capsys):
        code = main([
            "whatif", "small_internet",
            "--fail-link", "as1r1", "as30r1",
            "--fail-link", "as30r1", "as300r1",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "lost as100r1 -> as30r1" in out

    def test_fail_node(self, capsys):
        assert main(["whatif", "small_internet", "--fail-node", "as1r1"]) == 0
        assert "pairs kept:" in capsys.readouterr().out


class TestProfileFlag:
    """`--profile` wraps any subcommand in the dual profiler."""

    def test_deploy_profile_prints_tables_and_writes_stacks(
            self, tmp_path, capsys):
        prefix = str(tmp_path / "prof")
        assert main(["deploy", "fig5", "--profile", prefix]) == 0
        out = capsys.readouterr().out
        assert "span hotspots" in out
        assert "hot functions" in out
        assert "collapsed stacks:" in out
        collapsed = prefix + ".collapsed"
        assert os.path.exists(collapsed)
        for line in open(collapsed).read().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1

    def test_profile_json_payload_names_real_hot_paths(self, tmp_path, capsys):
        import json

        prefix = str(tmp_path / "prof")
        assert main(["deploy", "fig5", "--profile", prefix, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        profile = data["profile"]
        assert profile["collapsed_file"] == prefix + ".collapsed"
        assert profile["elapsed_seconds"] > 0
        assert profile["hot_functions"]
        # the sampled stacks walk through the pipeline's own frames
        stacks = open(profile["collapsed_file"]).read()
        assert "repro/" in stacks
        hotspots = profile["span_hotspots"]
        assert any(row["name"] == "deploy" for row in hotspots)


class TestDiff:
    def test_identical(self, capsys):
        assert main(["diff", "fig5", "fig5"]) == 0
        assert "identical" in capsys.readouterr().out

    def test_changed_cost(self, tmp_path, capsys):
        from repro.loader import save_graphml, small_internet

        graph = small_internet()
        graph.edges["as100r1", "as100r2"]["ospf_cost"] = 42
        path = tmp_path / "tweak.graphml"
        save_graphml(graph, path)
        assert main(["diff", "small_internet", str(path)]) == 1
        out = capsys.readouterr().out
        assert "~ as100r1" in out
        assert "ospf_cost: 1 -> 42" in out

    def test_added_device(self, tmp_path, capsys):
        from repro.loader import line_topology, save_graphml

        save_graphml(line_topology(3), tmp_path / "a.graphml")
        save_graphml(line_topology(4), tmp_path / "b.graphml")
        assert main(["diff", str(tmp_path / "a.graphml"), str(tmp_path / "b.graphml")]) == 1
        out = capsys.readouterr().out
        assert "+ r4" in out


class TestLiveUpdateCli:
    """`repro diff --plan` / `repro apply`: exit codes, plan files,
    journals, and clean termination on pipes and signals."""

    COST_EDIT = '[{"kind": "cost", "link": ["as20r1", "as20r2"], "value": 17}]'

    def test_diff_plan_identical_exits_zero(self, capsys):
        assert main(["diff", "small_internet", "small_internet", "--plan"]) == 0
        assert "plan:" in capsys.readouterr().out

    def test_diff_plan_nonempty_exits_one(self, tmp_path, capsys):
        from repro.loader import save_graphml, small_internet

        graph = small_internet()
        graph.edges["as20r1", "as20r2"]["ospf_cost"] = 17
        path = tmp_path / "tweak.graphml"
        save_graphml(graph, path)
        plan_out = str(tmp_path / "plan.json")
        assert (
            main(["diff", "small_internet", str(path), "--plan-out", plan_out])
            == 1
        )
        out = capsys.readouterr().out
        assert "set_cost" in out
        from repro.liveupdate import DiffPlan

        plan = DiffPlan.load(plan_out)
        assert len(plan) > 0
        assert plan.platform == "netkit"

    @pytest.mark.parametrize(
        "command, flags, code", [("diff", ["--plan"], 1), ("apply", [], 0)]
    )
    def test_dry_run_leaves_tmpdir_untouched(
        self, command, flags, code, tmp_path, monkeypatch
    ):
        import tempfile

        from repro.loader import save_graphml, small_internet

        graph = small_internet()
        graph.edges["as20r1", "as20r2"]["ospf_cost"] = 17
        edited = tmp_path / "tweak.graphml"
        save_graphml(graph, edited)
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", None)
        assert main([command, "small_internet", str(edited), *flags]) == code
        assert tempfile.gettempdir() == str(scratch)
        assert os.listdir(scratch) == []

    def test_apply_dry_run_exits_zero(self, capsys):
        assert (
            main(["apply", "small_internet", "--delta", self.COST_EDIT]) == 0
        )
        out = capsys.readouterr().out
        assert "edit: cost as20r1-as20r2 -> 17" in out
        assert "dry run" in out

    def test_apply_without_target_is_error(self, capsys):
        assert main(["apply", "small_internet"]) == 2
        assert "target design" in capsys.readouterr().err

    def test_apply_live_verify_rollback(self, tmp_path, capsys):
        journal_dir = str(tmp_path / "journal")
        assert (
            main([
                "apply", "small_internet", "--delta", self.COST_EDIT,
                "--verify", "--rollback", "--journal", journal_dir,
                "--plan-out", str(tmp_path / "plan.json"),
            ])
            == 0
        )
        out = capsys.readouterr().out
        assert "apply:" in out
        assert "verify: equivalent" in out
        assert "rollback verify: equivalent" in out
        assert os.listdir(journal_dir)
        assert os.path.exists(tmp_path / "plan.json")

    def test_apply_interrupt_exits_130(self, monkeypatch, capsys):
        from repro import cli

        def interrupted(args, out):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_apply", interrupted)
        assert main(["apply", "small_internet", "--delta", "[]"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_apply_sigterm_exits_143(self, monkeypatch, capsys):
        from repro import cli
        from repro.exceptions import TerminationRequested

        def terminated(args, out):
            raise TerminationRequested()

        monkeypatch.setattr(cli, "_cmd_apply", terminated)
        assert main(["apply", "small_internet", "--delta", "[]"]) == 143
        assert "terminated" in capsys.readouterr().err

    def test_diff_broken_pipe_exits_zero(self, monkeypatch, tmp_path):
        # `repro diff ... | head` closing the pipe early is normal use,
        # not a crash: the handler must swallow the late flush too
        import sys as _sys

        from repro import cli

        def broken(args, out):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_cmd_diff", broken)
        sink = open(tmp_path / "sink", "w")
        monkeypatch.setattr(_sys, "stdout", sink)
        assert main(["diff", "fig5", "fig5", "--plan"]) == 0


# -- the option surface ------------------------------------------------------
_OBSERVABILITY = {
    "--trace", "--chrome-trace", "--profile", "--profile-interval",
    "--metrics", "--timings", "--quiet", "--json",
}
_COMMON = _OBSERVABILITY | {
    "-h", "--help", "--platform", "--rules", "-o", "--output",
    "--strict", "--no-strict", "--retries", "--deadline",
}
_JOBS = {"-j", "--jobs"}

#: Every subcommand's option strings.  Pinned as sets, not ``--help``
#: text, which differs across Python versions.
CLI_OPTIONS = {
    "info": _COMMON,
    "build": _COMMON | _JOBS | {"--cache-dir", "--no-cache", "--incremental"},
    "verify": _COMMON,
    "deploy": _COMMON,
    "measure": _COMMON | {
        "-c", "--command", "-H", "--hosts", "--traffic", "--traffic-seed",
    },
    "visualize": _COMMON | {"--overlay"},
    "whatif": _COMMON | {"--fail-link", "--fail-node"},
    "chaos": _COMMON | {"--schedule", "--event"},
    "diff": _COMMON | {"--plan", "--plan-out"},
    "apply": _COMMON | {
        "--delta", "--live", "--verify", "--rollback", "--journal",
        "--apply-deadline", "--plan-out",
    },
    "campaign": _OBSERVABILITY | _JOBS | {
        "-h", "--help", "-o", "--campaign-dir", "--shard", "--cache-dir",
        "--limit", "--retry-failed", "--trial-deadline", "--stall-after",
        "--retries", "--strict", "--no-strict", "--format", "--baseline",
    },
    "traffic": (_COMMON - {"--profile", "--profile-interval"}) | {
        "--topology", "--profile", "--seed", "--scale", "--schedule",
        "--event", "--max-links",
    },
    "serve": _OBSERVABILITY | _JOBS | {
        "-h", "--help", "--host", "--port", "--data-dir", "--db",
        "--workers", "--quota", "--aging", "--trial-deadline", "--base-dir",
    },
}


def _subcommand_options() -> dict:
    import argparse

    from repro.cli import build_parser

    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: {option for action in sub._actions for option in action.option_strings}
        for name, sub in commands.choices.items()
    }


def test_every_subcommand_has_its_pinned_options():
    assert _subcommand_options() == CLI_OPTIONS


def test_jobs_only_on_the_pooled_commands():
    with_jobs = {
        name for name, options in _subcommand_options().items() if options & _JOBS
    }
    assert with_jobs == {"build", "campaign", "serve"}
