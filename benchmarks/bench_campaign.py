"""Campaign throughput: trials/min cold versus shared-artifact-cache.

A campaign's trials run through one shared content-addressed artifact
cache, so trials that differ only in scenario (fault schedule, round
deadline) reuse each other's rendered configurations.  This harness
measures how much that sharing is worth:

* **cold** — six trials over six distinct (topology, platform) cells:
  nothing can be reused, every trial renders from scratch;
* **shared** — six trials of the same (topology, platform) cell under
  different round deadlines: everything after the first render comes
  from the cache.

Both campaigns skip deployment (``deploy: false``) so the number is
pure build throughput, the part the cache accelerates.
"""

import tempfile
import time

from repro.campaign import run_campaign

from _util import record, update_pipeline_record

VARIANTS = 6

COLD_SPEC = {
    "name": "bench_cold",
    "topologies": ["fig5", "bad_gadget"],
    "platforms": ["netkit", "cbgp", "dynagen"],
    "deploy": False,
}

SHARED_SPEC = {
    "name": "bench_shared",
    "topologies": ["fig5"],
    "platforms": ["netkit"],
    "deploy": False,
    "overrides": [{"max_rounds": 10 + index} for index in range(VARIANTS)],
}


def _throughput(spec):
    directory = tempfile.mkdtemp(prefix="bench_campaign_")
    started = time.perf_counter()
    result = run_campaign(spec, directory=directory)
    elapsed = time.perf_counter() - started
    assert result.ok and result.executed == VARIANTS
    return {
        "trials": result.executed,
        "seconds": round(elapsed, 4),
        "trials_per_min": round(result.executed * 60.0 / elapsed, 1),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
    }


def test_campaign_throughput():
    cold = _throughput(COLD_SPEC)
    shared = _throughput(SHARED_SPEC)
    assert cold["cache_hits"] == 0
    assert shared["cache_hits"] > 0
    record(
        "campaign_throughput",
        [
            "cold    %(trials)d trials in %(seconds).2fs -> "
            "%(trials_per_min).1f trials/min "
            "(cache %(cache_hits)d hit / %(cache_misses)d miss)" % cold,
            "shared  %(trials)d trials in %(seconds).2fs -> "
            "%(trials_per_min).1f trials/min "
            "(cache %(cache_hits)d hit / %(cache_misses)d miss)" % shared,
            "speedup %.2fx"
            % (shared["trials_per_min"] / cold["trials_per_min"]),
        ],
    )
    update_pipeline_record(
        campaign={
            "cold": cold,
            "shared_cache": shared,
            "speedup": round(
                shared["trials_per_min"] / cold["trials_per_min"], 2
            ),
        }
    )
