"""Shardable simulation execution.

The epoch MLP model is an additive accounting over a linear instruction
stream, so a long MLPsim run can be cut into segments and merged exactly —
provided the cuts land where the machine carries no state across them.
This package supplies the three pieces:

- :mod:`repro.shard.plan` — the deterministic segmenter.  A run over the
  whole trace records every *quiescent* epoch boundary it passes (store
  buffer/queue drained, no in-flight serializer or deferred work, no
  speculative prefetch beyond the cursor); :func:`~repro.shard.plan.build_plan`
  picks cuts nearest the requested even split.  The record is cached by
  the job's inputs in the artifact cache; planning never simulates.
- :mod:`repro.shard.merge` — exact whole-run reconstruction from per-shard
  :class:`~repro.core.results.SimulationResult` parts.
- :mod:`repro.shard.execute` — planning from the recorded log (a job with
  none runs as one whole-trace shard that records it) and one shard as an
  engine job: run the whole trace from the shard's start to its planned
  boundary, plus the ``kill@M`` fault the recovery tests drive.  A failed
  shard is recomputed from its start.

Reachable through the facade as :func:`repro.api.shard_plan` and
``api.run(..., shards=N)``.

Unlike the other packages, this one binds its names eagerly: ``repro.api``
imports :func:`shard_plan_for`, which loads every submodule here anyway,
and the benchmark's layer spans (``perfbench/layers.py``) replace
``shard_plan_for`` and ``merge_results`` on this package, which only a real
module attribute allows.  None of the submodules imports the service, the
pool runner or ``repro.obs``.
"""

from .merge import merge_results
from .plan import ShardPlan, build_plan
from .execute import run_shard_job, shard_plan_for

__all__ = [
    "ShardPlan",
    "build_plan",
    "merge_results",
    "run_shard_job",
    "shard_plan_for",
]
