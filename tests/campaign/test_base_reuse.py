"""Campaign trials that share a base change no record.

Consecutive trials on one (input graph, platform, rules, cache) base
re-render the last ``ok`` trial's compiled engine and, when the render's
artifact keys match, build their lab from its parsed intent.  The
campaign below runs small_internet and bad_gadget on every platform
under three round budgets, then a run of explicit trials where each one
that mutates its lab (fault schedule, live design delta, traffic) is
followed by one that reuses the base; then a rules change, a graph
change on the same platform, and a trial that times out mid-deploy.

It runs as is and with the slot forced to miss (the from-scratch path),
inline and over two pool workers; every record must be equal once the
timing fields are taken out.  Inline, each lab that measures what it
booted must equal a fresh ``EmulatedLab.boot`` of that trial's tree.
"""

import os
import re

import pytest

import repro.emulation
from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.campaign import runner
from repro.emulation import EmulatedLab, LabSnapshot
from repro.render import add_template_directory, renderer

SI, BG = "small_internet", "bad_gadget"
PLATFORMS = ["netkit", "dynagen", "junosphere", "cbgp"]
NO_IBGP = ["phy", "ipv4", "ospf", "ebgp", "dns"]
SCHEDULE = "at 2 link_down as20r1 as20r2\nat 4 link_up as20r1 as20r2"
DELTA = [{"kind": "cost", "link": ["as20r1", "as20r2"], "value": 17}]
TRAFFIC = {
    "name": "web",
    "duration": 1.0,
    "classes": [
        {"name": "web", "kind": "request_response", "qps": 40,
         "request_bytes": 400, "response_bytes": 4000, "pair_count": 4},
    ],
}
HANG = {"inject_hang": "deploy", "hang_seconds": 1.0, "trial_deadline_s": 0.3}


def _trial(topology, max_rounds, **extra):
    overrides = {"max_rounds": max_rounds, **extra.pop("overrides", {})}
    return {"topology": topology, "platform": "netkit", "overrides": overrides, **extra}


SPEC = {
    "name": "reuse",
    "topologies": [SI, BG],
    "platforms": PLATFORMS,
    "overrides": [{"max_rounds": rounds} for rounds in (3, 4, 30)],
    "trials": [
        _trial(SI, 30, fault_schedule={"inline": SCHEDULE}),
        _trial(SI, 5),
        _trial(SI, 30, design_delta=DELTA, overrides={"verify_live": True}),
        _trial(SI, 6),
        _trial(SI, 30, traffic_profile=TRAFFIC),
        _trial(SI, 7),
        _trial(SI, 8, rules=NO_IBGP),  # same graph and platform, other rules
        _trial(SI, 9),
        _trial(BG, 9),  # same platform and rules, other graph
        _trial(BG, 10, overrides=HANG),
        _trial(BG, 11),  # after a timed-out trial: built afresh
    ],
}
#: ``engine.base_reused`` of each trial inline, in expansion order
EXPECTED_REUSE = [False, True, True] * 8 + [
    False, True, True, True, True, True, False, False, False, True, False,
]


class _NeverHolds:
    """A base slot that keeps nothing: every trial builds from scratch."""

    base = property(lambda self: None, lambda self, value: None)


def _comparable(record: dict, jobs: int) -> dict:
    """A record without its wall-clock, its paths and, across workers,
    its per-trial split of cache hits and misses."""
    record = dict(record)
    for key in ("timings", "duration_seconds", "run_dir", "finished_at"):
        record.pop(key)
    if record["error"]:
        record["error"] = re.sub(r"\(ran [\d.]+s\)", "(ran -)", record["error"])
    engine = record["engine"] = dict(record["engine"])
    engine.pop("base_reused")
    if jobs > 1:
        for key in ("cache_hits", "cache_misses", "rendered_devices", "cached_devices", "cache"):
            engine.pop(key)
    if record["liveupdate"]:
        live = record["liveupdate"] = dict(record["liveupdate"])
        live["apply"] = {
            key: value for key, value in live["apply"].items()
            if key not in ("duration_seconds", "journal_path")
        }
    return record


def _run(directory, jobs: int) -> dict:
    result = run_campaign(SPEC, directory=directory, jobs=jobs)
    assert result.executed == len(EXPECTED_REUSE)
    return {record.trial_id: record.to_dict() for record in ResultStore(directory).records()}


@pytest.fixture
def booted(monkeypatch):
    """Each inline trial's lab as measured: ``{tree: (max_rounds, snapshot)}``."""
    seen = {}
    real = repro.emulation.reachability_summary

    def spy(lab):
        seen[lab.source] = (lab.max_rounds, LabSnapshot.of(lab))
        return real(lab)

    monkeypatch.setattr(repro.emulation, "reachability_summary", spy)
    return seen


def _assert_booted_labs_equal_fresh_boots(booted: dict, records: dict) -> None:
    trials = {trial.trial_id: trial for trial in CampaignSpec.from_dict(SPEC).trials}
    checked = 0
    for trial_id, record in records.items():
        trial = trials[trial_id]
        if record["status"] != "ok" or trial.schedule or trial.delta:
            continue  # the lab measured is not the lab booted
        tree = os.path.join(record["run_dir"], "rendered", "localhost", record["platform"])
        max_rounds, snapshot = booted[tree]
        fresh = LabSnapshot.of(EmulatedLab.boot(tree, max_rounds=max_rounds, strict=False))
        assert snapshot.diff(fresh) is None, trial_id
        checked += record["engine"]["base_reused"]
    assert checked >= 20


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_reused_base_changes_no_record(tmp_path, monkeypatch, booted, jobs):
    reused = _run(tmp_path / "reused", jobs)
    with monkeypatch.context() as patch:
        patch.setattr(runner, "_BaseSlot", _NeverHolds)
        fresh = _run(tmp_path / "fresh", jobs)

    assert not any(record["engine"]["base_reused"] for record in fresh.values())
    assert {key: _comparable(record, jobs) for key, record in reused.items()} == {
        key: _comparable(record, jobs) for key, record in fresh.items()
    }
    statuses = sorted(record["status"] for record in reused.values())
    assert statuses == ["ok"] * (len(EXPECTED_REUSE) - 1) + ["timed_out"]
    if jobs == 1:
        order = [trial.trial_id for trial in CampaignSpec.from_dict(SPEC).trials]
        assert [reused[trial_id]["engine"]["base_reused"] for trial_id in order] == (
            EXPECTED_REUSE
        )
        assert all("load_build" not in reused[trial_id]["timings"]
                   for trial_id in order if reused[trial_id]["engine"]["base_reused"]
                   and reused[trial_id]["status"] == "ok")
        _assert_booted_labs_equal_fresh_boots(booted, reused)


def test_a_template_edited_between_trials_is_parsed_afresh(tmp_path, monkeypatch, booted):
    monkeypatch.setattr(renderer, "_EXTRA_TEMPLATE_DIRS", [])
    monkeypatch.setattr(renderer, "_ENVIRONMENT", None)
    template = tmp_path / "templates" / "quagga" / "ospfd.conf.j2"
    template.parent.mkdir(parents=True)
    template.write_text(renderer.template_source("quagga/ospfd.conf.j2"))
    add_template_directory(tmp_path / "templates")
    real_inject = runner._maybe_inject

    def edit_before_the_second_build(overrides, stage):
        if stage == "build" and overrides.get("max_rounds") == 31:
            text = template.read_text()
            template.write_text(text.replace("{{ interface.ospf_cost }}", "{{ interface.ospf_cost + 7 }}"))
            add_template_directory(tmp_path / "templates")  # drops the loaded environment
        real_inject(overrides, stage)

    monkeypatch.setattr(runner, "_maybe_inject", edit_before_the_second_build)
    spec = {
        "name": "template",
        "topologies": [SI],
        "platforms": ["netkit"],
        "overrides": [{"max_rounds": rounds} for rounds in (30, 31, 32)],
    }
    result = run_campaign(spec, directory=tmp_path / "store")
    assert result.ok
    first, second, third = result.records
    assert [record.engine["base_reused"] for record in result.records] == [False, True, True]
    assert second.engine["rendered_devices"] > 0  # the edit moved the OSPF routers' keys
    labs = []
    for record in result.records:
        tree = os.path.join(record.run_dir, "rendered", "localhost", "netkit")
        max_rounds, snapshot = booted[tree]
        fresh = LabSnapshot.of(EmulatedLab.boot(tree, max_rounds=max_rounds, strict=False))
        assert snapshot.diff(fresh) is None, record.trial_id
        labs.append(snapshot)
    assert labs[0].diff(labs[1]) is not None  # the edited costs reached the lab
    assert labs[1].diff(labs[2]) is None
