"""The engine layer: persistent artifact caching and parallel execution.

Sits between the core simulator and the experiment harness:

- :mod:`repro.engine.cache` — a content-addressed artifact cache
  (calibrated profiles, columnar annotations, service results) with an
  in-memory LRU over an atomic on-disk store of framed, checksummed
  entries, keyed by inputs and a salt hashed from the simulation sources,
  and safe to share between worker processes.
- :mod:`repro.engine.runner` — :class:`EngineRunner`, which fans a batch of
  ``(workload, variant, config)`` jobs across a process pool with per-job
  timeout, retry-once and a structured :class:`RunReport`.

The Workbench (:mod:`repro.harness.experiment`) builds on the cache; the
sweep helpers (:mod:`repro.harness.sweeps`), the CLI and the figure benches
build on the runner.  The names below are exported lazily, so a single run,
which reads the cache but never starts a pool, does not import the runner
(or ``multiprocessing``).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": (
        "ArtifactCache",
        "CacheStats",
        "DiskTierStats",
        "PruneResult",
        "content_key",
        "resolve_cache_dir",
        "stable_token",
    ),
    ".runner": (
        "EngineRunner",
        "JobResult",
        "JobSpec",
        "RunReport",
        "execute_job",
    ),
    ".serialize": ("from_jsonable", "to_jsonable"),
})

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "DiskTierStats",
    "EngineRunner",
    "JobResult",
    "JobSpec",
    "PruneResult",
    "RunReport",
    "content_key",
    "execute_job",
    "from_jsonable",
    "resolve_cache_dir",
    "stable_token",
    "to_jsonable",
]
