"""repro.engine: an incremental, content-addressed build engine.

The compile→render half of the pipeline as one straight-line build
(:mod:`~repro.engine.engine`) whose per-device artifacts are cached by
content hash (:mod:`~repro.engine.hashing`, :mod:`~repro.engine.cache`);
``jobs>1`` renders the cache misses over a process pool.  Entry points:
:class:`BuildEngine` for full builds and :func:`incremental_update` for
change-driven rebuilds.  :mod:`~repro.engine.executors` holds the
serial/thread/process executors the campaign runner and the lab boot
fan out over.
"""

from repro.engine.cache import Artifact, ArtifactCache, file_sha, text_sha
from repro.engine.executors import (
    EXECUTOR_KINDS,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_jobs,
    make_executor,
)
from repro.engine.engine import (
    BuildEngine,
    BuildReport,
    graph_delta,
    incremental_update,
)
from repro.engine.hashing import (
    ENGINE_CACHE_VERSION,
    TemplateHasher,
    device_cache_key,
    topology_cache_key,
)

__all__ = [
    "Artifact",
    "ArtifactCache",
    "BuildEngine",
    "BuildReport",
    "ENGINE_CACHE_VERSION",
    "EXECUTOR_KINDS",
    "ProcessExecutor",
    "SerialExecutor",
    "TemplateHasher",
    "ThreadExecutor",
    "default_jobs",
    "device_cache_key",
    "file_sha",
    "graph_delta",
    "incremental_update",
    "make_executor",
    "text_sha",
    "topology_cache_key",
]
