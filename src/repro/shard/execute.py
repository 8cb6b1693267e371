"""Shard planning and execution.

:func:`shard_plan_for` turns an engine :class:`~repro.engine.runner.JobSpec`
into a :class:`~repro.shard.plan.ShardPlan` from the job's recorded
quiescent log alone: it loads no trace and runs no simulation, so the
fleet coordinator plans without either.  With no log recorded yet it
returns ``None`` and the job runs as one whole-trace shard
(:func:`shard_specs`), whose plan takes its length from its result
(:func:`settled_plan`).  ``EngineRunner.run_sharded``, ``api.run(shards=)``,
``mlpsim run --shards`` and the fleet all plan this way.

:func:`run_shard_job` executes one shard: it runs a fresh simulator over
the **whole** annotated trace from the shard's start to its planned stop
(``MlpSimulator.run(start=, stop=)``), so lookahead near the boundary sees
the same instructions the unsharded run saw, the trace's skip tables are
the ones every other job over it uses, and the run stops exactly at the
planned boundary (the simulator refuses a non-quiescent overshoot).  A
shard spanning the whole trace logs its quiescent boundaries as it runs
and records them for the next run of the same inputs.  A shard that dies
is recomputed from its start by whoever runs it next: the engine's retry
round, or the fleet worker that leases it after the first one was evicted.

``JobSpec.fault`` drives the recovery tests and the CI fault smoke.  The
one fault, ``"kill@M"``, kills the attempt about to simulate the shard
whose span holds trace position *M* (``os._exit`` in a pool worker, an
exception on the serial path).  It fires once per job: a marker file under
the cache records the firing, so it survives the worker's death and the
retry demonstrates real recovery instead of dying again.
"""

from __future__ import annotations

import dataclasses
import os
from typing import List, Optional, TYPE_CHECKING

from ..core.backend import resolve_backend
from ..core.results import SimulationResult
from ..engine.cache import ArtifactCache, content_key
from ..errors import FaultInjectedError, ShardBoundaryError
from .plan import PROBE_KIND, ShardPlan, build_plan, probe_key

if TYPE_CHECKING:
    from ..core.window import WindowObserver
    from ..engine.runner import JobSpec
    from ..harness.experiment import ExperimentSettings, Workbench

__all__ = [
    "kill_position",
    "run_shard_job",
    "settled_plan",
    "shard_plan_for",
    "shard_specs",
]


def shard_plan_for(
    artifacts: ArtifactCache,
    settings: "ExperimentSettings",
    spec: "JobSpec",
    shards: int,
) -> Optional[ShardPlan]:
    """The shard plan for the run *spec* describes, or ``None`` while no
    run of it has recorded its quiescent log in *artifacts*.

    Replanning at another shard count reuses the same record.
    """
    recorded = artifacts.get(PROBE_KIND, probe_key(settings, spec))
    if recorded is None:
        return None
    instructions, points = recorded
    return build_plan(instructions, points, shards)


def shard_specs(
    spec: "JobSpec", plan: Optional[ShardPlan],
) -> List["JobSpec"]:
    """The engine jobs that run *spec* under *plan*: one per span, or one
    whole-trace shard (which records the log) when *plan* is ``None``."""
    spans = plan.shards if plan is not None else ((0, -1),)
    base = spec.describe()
    return [
        dataclasses.replace(
            spec,
            shard_start=lo,
            shard_stop=hi,
            label=f"{base} shard[{lo}:{hi if hi >= 0 else ''})",
        )
        for lo, hi in spans
    ]


def settled_plan(
    plan: Optional[ShardPlan], requested: int, merged: SimulationResult,
) -> ShardPlan:
    """*plan*, or for a run that had none, the one-shard plan its whole-
    trace *merged* result spans."""
    if plan is not None:
        return plan
    return ShardPlan(
        instructions=merged.instructions, requested=requested, cuts=(),
    )


# ---------------------------------------------------------------- faults --

#: Fired-marker fallback for cache-less (memory-only) runs.
_FIRED_IN_PROCESS: set = set()


def kill_position(fault: str) -> int:
    """The trace position *M* of a ``"kill@M"`` fault spec."""
    kind, sep, raw = fault.partition("@")
    if kind != "kill" or not sep:
        raise ValueError(f"unknown fault spec {fault!r}; expected 'kill@M'")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"fault position in {fault!r} must be an integer"
        ) from None


def _claim_firing(cache: ArtifactCache, token: str) -> bool:
    """Atomically claim the job's one firing; False if it already fired."""
    if cache.directory is None:
        if token in _FIRED_IN_PROCESS:
            return False
        _FIRED_IN_PROCESS.add(token)
        return True
    marker = cache.directory / "faults" / f"kill-{token}.fired"
    marker.parent.mkdir(parents=True, exist_ok=True)
    try:
        marker.touch(exist_ok=False)
    except FileExistsError:
        return False
    return True


def _inject_fault(bench: "Workbench", spec: "JobSpec", start: int,
                  stop: int) -> None:
    """Kill this attempt if *spec*'s fault targets the span [start:stop)."""
    at = kill_position(spec.fault)
    if not start <= at < stop:
        return
    # Every shard of a sharded job carries the fault; keying the marker by
    # the whole job makes it fire once per job, not once per shard.
    whole_job = dataclasses.replace(
        spec, shard_start=-1, shard_stop=-1, label="",
    )
    token = content_key("fault", whole_job, bench.settings)
    if not _claim_firing(bench.artifacts, token):
        return
    from ..engine import runner

    if runner._WORKER_BENCH is not None:
        os._exit(17)  # a pool worker is disposable: die like a crash
    raise FaultInjectedError(f"fault injection: {spec.fault} fired")


def run_shard_job(
    bench: "Workbench",
    spec: "JobSpec",
    observer: Optional["WindowObserver"] = None,
) -> SimulationResult:
    """Simulate the shard *spec* describes against *bench*."""
    annotated = bench.annotated(
        spec.workload, spec.variant, spec.memory_config, spec.sharing,
        spec.tag,
    )
    config = bench.resolved_config(
        spec.workload, spec.variant, spec.config, **dict(spec.core_changes),
    )
    n = len(annotated)
    start = spec.shard_start if spec.shard_start >= 0 else 0
    stop = spec.shard_stop if spec.shard_stop >= 0 else n
    if not (0 <= start < stop <= n):
        raise ShardBoundaryError(
            f"shard span [{start}:{stop}) is invalid for a trace of "
            f"{n} instructions"
        )
    if spec.fault:
        _inject_fault(bench, spec, start, stop)
    # The last shard runs to the end of the trace, where the final drain
    # commits what is still in flight.
    stop_at: Optional[int] = stop if stop < n else None
    # A whole-trace shard logs every quiescent boundary it passes: the
    # record later runs of these inputs are split at.
    log: Optional[List] = [] if start == 0 and stop_at is None else None

    # Every backend honours the shard span and is bit-identical to the
    # reference loop, so shard merging stays exact regardless of which one
    # runs the segment.
    backend = resolve_backend(spec.backend or None)
    result = backend.simulate(
        config, annotated, observer=observer, start=start, stop=stop_at,
        quiescent_log=log,
    )
    if log is not None:
        bench.artifacts.put(
            PROBE_KIND, probe_key(bench.settings, spec), (n, log),
        )
    return result
