"""Failure-isolated builds: partial reports, retries, cache corruption."""

import json
import os

import pytest

from repro.engine import ArtifactCache, BuildEngine
from repro.engine import engine as engine_module
from repro.engine.cache import text_sha
from repro.engine.engine import _attempt, _DeviceRenderer, _Failure, _Outcome
from repro.exceptions import EngineError, TransientError
from repro.loader import small_internet
from repro.observability import Telemetry
from repro.resilience import RetryPolicy

VICTIM = "as100r1"
#: inline render (1) and the process-pool render (2)
JOBS = (1, 2)


@pytest.fixture
def sabotage(monkeypatch):
    """Make the VICTIM device's render raise; returns the installer.

    The patch is on the module-level render function, so pool workers
    forked after it see it too.
    """
    original = engine_module._render_artifact

    def install(error=EngineError("render sabotaged"), times=None):
        calls = {"n": 0}

        def render(device, *args):
            if str(device.node_id) == VICTIM:
                calls["n"] += 1
                if times is None or calls["n"] <= times:
                    raise error
            return original(device, *args)

        monkeypatch.setattr(engine_module, "_render_artifact", render)
        return calls

    return install


def _boom():
    raise EngineError("kaboom")


class TestSchedulerIsolation:
    """The per-task isolation every phase and device render runs under."""

    def test_strict_mode_still_raises(self, tmp_path, monkeypatch):
        with pytest.raises(EngineError, match="kaboom"):
            _attempt("bad", _boom, None, strict=True)
        monkeypatch.setattr(BuildEngine, "_load", lambda self, source: _boom())
        engine = BuildEngine(output_dir=tmp_path, use_cache=False)
        with pytest.raises(EngineError, match="kaboom"):
            engine.build(small_internet())

    def test_non_strict_isolates_and_cascades(self, tmp_path, monkeypatch):
        failure = _attempt("bad", _boom, None, strict=False)
        assert failure == _Failure("bad", "EngineError: kaboom")
        assert _attempt("good", lambda: "fine", None, strict=False) == "fine"

        compiled = []
        monkeypatch.setattr(BuildEngine, "_load", lambda self, source: _boom())
        monkeypatch.setattr(BuildEngine, "_compile", lambda self: compiled.append(1))
        engine = BuildEngine(output_dir=tmp_path, strict=False, use_cache=False)
        report = engine.build(small_internet())
        # a failed load fails alone; compile and render downstream never run
        assert report.failed_tasks == {"load_build": "EngineError: kaboom"}
        assert compiled == []
        assert report.rendered_devices == [] and report.devices_total == 0
        assert not os.path.exists(os.path.join(engine.lab_dir, "lab.conf"))

    def test_pool_tasks_isolated_too(self, tmp_path, sabotage):
        sabotage()
        engine = BuildEngine(output_dir=tmp_path, jobs=2, use_cache=False)
        engine._load(small_internet())
        engine._compile()
        devices = engine._context_devices()
        renderer = _DeviceRenderer(
            devices, engine.nidb.topology, engine.lab_dir, None, strict=False
        )
        misses = [(str(device.node_id), None) for device in devices if device.render]
        outcomes = engine._render_misses(renderer, misses)
        # a worker's failure comes back as a record, in order, not as an error
        assert len(outcomes) == len(misses) > 2
        for (device_id, _key), outcome in zip(misses, outcomes):
            if device_id == VICTIM:
                assert outcome == _Failure(
                    "render.%s" % VICTIM, "EngineError: render sabotaged"
                )
            else:
                assert isinstance(outcome, _Outcome)
                assert outcome.artifact.owner == device_id

    def test_retry_policy_recovers_transients(self):
        state = {"calls": 0}

        def flaky():
            state["calls"] += 1
            if state["calls"] < 3:
                raise TransientError("warming up")
            return "warm"

        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        assert _attempt("flaky", flaky, policy, strict=True) == "warm"
        assert state["calls"] == 3

    def test_telemetry_counts_failures(self, tmp_path, monkeypatch):
        monkeypatch.setattr(BuildEngine, "_compile", lambda self: _boom())
        telemetry = Telemetry()
        report = BuildEngine(
            output_dir=tmp_path, strict=False, use_cache=False
        ).build(small_internet(), telemetry=telemetry)
        assert set(report.failed_tasks) == {"compile"}
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["engine.tasks_failed"] == 1


class TestEnginePartialBuilds:
    def test_render_failure_yields_partial_report(self, tmp_path, sabotage):
        sabotage()
        for jobs in JOBS:
            engine = BuildEngine(
                output_dir=tmp_path / str(jobs), jobs=jobs, strict=False,
                use_cache=False,
            )
            report = engine.build(small_internet())
            assert not report.ok
            assert set(report.failed_tasks) == {"render.%s" % VICTIM}
            assert "render sabotaged" in report.failed_tasks["render.%s" % VICTIM]
            # every other device still rendered
            assert len(report.rendered_devices) == report.devices_total - 1
            assert VICTIM not in report.rendered_devices
            assert os.path.exists(os.path.join(engine.lab_dir, "lab.conf"))
            assert "FAILED" in report.summary()

    def test_strict_engine_preserves_abort(self, tmp_path, sabotage):
        sabotage()
        for jobs in JOBS:
            engine = BuildEngine(
                output_dir=tmp_path / str(jobs), jobs=jobs, use_cache=False
            )
            with pytest.raises(EngineError, match="sabotaged"):
                engine.build(small_internet())

    def test_compile_failure_reports_instead_of_crashing(self, tmp_path, monkeypatch):
        engine = BuildEngine(output_dir=tmp_path, strict=False, use_cache=False)

        def sabotage(self):
            raise EngineError("compile sabotaged")

        monkeypatch.setattr(BuildEngine, "_compile", sabotage)
        report = engine.build(small_internet())
        assert not report.ok
        assert set(report.failed_tasks) == {"compile"}
        assert report.rendered_devices == []
        assert "FAILED" in report.summary()

    @pytest.mark.parametrize("jobs", JOBS)
    def test_retry_policy_recovers_transient_renders(self, tmp_path, sabotage, jobs):
        calls = sabotage(TransientError("warming up"), times=2)
        engine = BuildEngine(
            output_dir=tmp_path, jobs=jobs, use_cache=False,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0),
        )
        report = engine.build(small_internet())
        assert report.ok
        assert VICTIM in report.rendered_devices
        assert len(report.rendered_devices) == report.devices_total
        if jobs == 1:  # a pool worker's counter stays in the worker
            assert calls["n"] == 3

    @pytest.mark.parametrize("jobs", JOBS)
    def test_telemetry_counts_failures(self, tmp_path, sabotage, jobs):
        sabotage()
        telemetry = Telemetry()
        BuildEngine(
            output_dir=tmp_path, jobs=jobs, strict=False, use_cache=False
        ).build(small_internet(), telemetry=telemetry)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["engine.tasks_failed"] == 1


class TestCacheCorruption:
    def _cache_with_object(self, tmp_path):
        from repro.engine import Artifact

        cache = ArtifactCache(tmp_path)
        cache.put(
            Artifact(
                key="c" * 64,
                owner="r1",
                files=[{"path": "r1.conf", "sha": text_sha("hello"),
                        "size": 5, "text": "hello"}],
            )
        )
        cache.clear_memory()
        return cache

    def test_tampered_text_evicts_and_counts(self, tmp_path):
        cache = self._cache_with_object(tmp_path)
        object_path = cache._object_path("c" * 64)
        with open(object_path) as handle:
            data = json.load(handle)
        data["files"][0]["text"] = "hellp"  # bit flip, sha now stale
        with open(object_path, "w") as handle:
            json.dump(data, handle)

        telemetry = Telemetry()
        with telemetry.activate():
            assert cache.get("c" * 64) is None
        assert not os.path.exists(object_path), "corrupt object not evicted"
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["engine.cache_corrupt"] == 1
        assert counters["engine.cache_misses"] == 1

    def test_unreadable_object_also_evicted(self, tmp_path):
        cache = self._cache_with_object(tmp_path)
        object_path = cache._object_path("c" * 64)
        with open(object_path, "w") as handle:
            handle.write("{truncated")
        telemetry = Telemetry()
        with telemetry.activate():
            assert cache.get("c" * 64) is None
        assert not os.path.exists(object_path)
        assert telemetry.metrics.snapshot()["counters"]["engine.cache_corrupt"] == 1

    def test_intact_object_unaffected(self, tmp_path):
        cache = self._cache_with_object(tmp_path)
        found = cache.get("c" * 64)
        assert found is not None and found.files[0]["text"] == "hello"
