"""Work counts of a campaign whose trials share one base.

Eight trials differ only in ``max_rounds``: the base is designed,
compiled and parsed once, every trial still boots its own lab, and each
trial restores its own tree with the same cache lookups as a campaign
that builds every trial from scratch.
"""

import pytest

import repro.engine.engine
from repro.campaign import run_campaign
from repro.compilers.platform_base import PlatformCompiler
from repro.emulation import EmulatedLab
from repro.emulation.parsing import LAB_PARSERS

ROUNDS = list(range(30, 38))


@pytest.fixture
def calls(monkeypatch):
    counts = {"design": 0, "compile": 0, "parse": 0, "lab": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        repro.engine.engine, "design_network",
        counted("design", repro.engine.engine.design_network),
    )
    monkeypatch.setattr(PlatformCompiler, "compile", counted("compile", PlatformCompiler.compile))
    monkeypatch.setitem(LAB_PARSERS, "netkit", counted("parse", LAB_PARSERS["netkit"]))
    monkeypatch.setattr(EmulatedLab, "__init__", counted("lab", EmulatedLab.__init__))
    return counts


def test_one_base_is_designed_compiled_and_parsed_once(tmp_path, calls):
    spec = {
        "name": "work",
        "topologies": ["small_internet"],
        "platforms": ["netkit"],
        "overrides": [{"max_rounds": rounds} for rounds in ROUNDS],
    }
    result = run_campaign(spec, directory=tmp_path)

    assert result.ok and result.executed == len(ROUNDS)
    assert calls == {"design": 1, "compile": 1, "parse": 1, "lab": len(ROUNDS)}
    # 14 device artifacts and the topology files, looked up once per trial
    assert [record.engine["cache"] for record in result.records] == (
        [{"hits": 0, "misses": 15}] + [{"hits": 15, "misses": 0}] * (len(ROUNDS) - 1)
    )
    assert [
        (record.engine["cache_hits"], record.engine["cache_misses"])
        for record in result.records
    ] == [(0, 14)] + [(14, 0)] * (len(ROUNDS) - 1)
    assert (result.cache_hits, result.cache_misses) == (15 * (len(ROUNDS) - 1), 15)
    assert [record.convergence["deadline"] for record in result.records] == ROUNDS
