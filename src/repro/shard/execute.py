"""Shard planning and execution against a Workbench.

:func:`shard_plan_for` turns an engine :class:`~repro.engine.runner.JobSpec`
into a :class:`~repro.shard.plan.ShardPlan`: it resolves the job's effective
configuration and annotated trace exactly the way the simulation path does,
then probes (or cache-hits) the quiescent boundary log and picks cuts.

:func:`run_shard_job` executes one shard (or a whole-trace checkpointed
run — a "shard" spanning ``[0:n)``):

1. slice nothing — the shard runs the trace **suffix** from its start
   position with an explicit stop, so lookahead near the boundary sees the
   same instructions the unsharded run saw;
2. resume from the latest verified checkpoint when one exists (a corrupt
   one is discarded and the shard restarts from its beginning);
3. checkpoint every K instructions through the
   :class:`~repro.shard.checkpoint.CheckpointStore`, firing any armed
   fault injector at save time;
4. stop exactly at the planned boundary (the simulator refuses a
   non-quiescent overshoot) and return the result delta plus resume
   metadata.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from ..core.backend import resolve_backend
from ..core.results import SimulationResult
from ..core.snapshot import SimulatorSnapshot
from ..engine.cache import content_key
from ..errors import CheckpointCorruptError, ShardBoundaryError
from .checkpoint import CheckpointStore, FaultInjector
from .plan import (
    ShardPlan,
    build_plan,
    plan_cache_key,
    probe_quiescent_points,
    trace_fingerprint,
)

if TYPE_CHECKING:
    from ..core.window import WindowObserver
    from ..engine.runner import JobSpec
    from ..harness.experiment import Workbench
    from ..obs.profile import PhaseProfiler
    from ..obs.trace import Tracer

__all__ = ["ShardOutcome", "run_shard_job", "shard_plan_for"]


@dataclass
class ShardOutcome:
    """What one shard execution produced, beyond the result itself.

    ``resumed_pos`` is the *absolute* trace position the run restarted
    from (``-1`` when it started fresh) — the recovery tests assert on it
    to prove completed work was not redone.  ``checkpoint_token`` is the
    cache key a later ``mlpsim resume <token>`` can use.
    """

    result: SimulationResult
    resumed_pos: int = -1
    checkpoints_written: int = 0
    checkpoint_token: str = ""


def shard_plan_for(
    bench: "Workbench", spec: "JobSpec", shards: int,
) -> ShardPlan:
    """A deterministic shard plan for the run *spec* describes.

    The probe (one serial simulation logging quiescent boundaries) is
    cached in the bench's artifact cache by (configuration, trace
    fingerprint); replanning at a different shard count reuses it.
    """
    annotated = bench.annotated(
        spec.workload, spec.variant, spec.memory_config, spec.sharing,
        spec.tag,
    )
    config = bench.resolved_config(
        spec.workload, spec.variant, spec.config, **dict(spec.core_changes),
    )
    config_key = content_key("simconfig", config)
    fingerprint = trace_fingerprint(annotated)
    points = bench.artifacts.get_or_create(
        "shard-probe",
        plan_cache_key(config_key, fingerprint),
        lambda: probe_quiescent_points(
            annotated, config, spec.backend or None,
        ),
    )
    return build_plan(
        len(annotated), points, shards,
        config_key=config_key, fingerprint=fingerprint,
    )


def _in_pool_worker() -> bool:
    from ..engine import runner
    return runner._WORKER_BENCH is not None


def run_shard_job(
    bench: "Workbench",
    spec: "JobSpec",
    observer: Optional["WindowObserver"] = None,
    profiler: Optional["PhaseProfiler"] = None,
    tracer: Optional["Tracer"] = None,
) -> ShardOutcome:
    """Execute one shard/checkpointed simulate job against *bench*."""
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
    suffix = annotated[start:] if start else annotated
    stop_rel: Optional[int] = (stop - start) if stop < n else None

    store = CheckpointStore(bench.artifacts)
    token = store.token(spec, bench.settings)
    checkpointing = spec.checkpoint_every > 0

    resume: Optional[SimulatorSnapshot] = None
    resumed_pos = -1
    if checkpointing:
        try:
            resume = store.load(spec, bench.settings)
        except CheckpointCorruptError:
            if tracer is not None:
                tracer.event(
                    "checkpoint_corrupt", job=spec.describe(), token=token,
                )
            store.discard(spec, bench.settings)
            resume = None
        if resume is not None:
            resumed_pos = start + resume.pos
            if tracer is not None:
                tracer.event(
                    "shard_resume", job=spec.describe(),
                    pos=resumed_pos, token=token,
                )

    injector = None
    if spec.fault:
        # The fault fires once per job, not once per shard: every shard of
        # a sharded job carries it, and shards racing to it in one pool
        # round would otherwise fire again, one by one, in later rounds.
        whole_job = dataclasses.replace(
            spec, shard_start=-1, shard_stop=-1, label="",
        )
        injector = FaultInjector(
            spec.fault, bench.artifacts,
            store.token(whole_job, bench.settings),
        )
    written = 0

    def sink(snapshot: SimulatorSnapshot) -> None:
        nonlocal written
        key = store.save(spec, bench.settings, snapshot)
        written += 1
        if tracer is not None:
            tracer.event(
                "checkpoint", job=spec.describe(),
                pos=start + snapshot.pos, token=key,
            )
        if injector is None:
            return
        if injector.corrupts_next_save(snapshot):
            record = store.load_record(key)
            assert record is not None
            bench.artifacts.put(
                CheckpointStore.KIND, key,
                dataclasses.replace(record, digest="0" * 64),
            )
            injector.terminate(_in_pool_worker())
        elif injector.should_kill(snapshot):
            injector.terminate(_in_pool_worker())

    # Every backend honours the shard hooks (resume/stop/checkpoint) and is
    # bit-identical to the reference loop, so shard merging stays exact
    # regardless of which one runs the segment.
    backend = resolve_backend(spec.backend or None)
    kwargs = dict(
        observer=observer,
        resume=resume,
        stop=stop_rel,
        checkpoint_every=spec.checkpoint_every,
        checkpoint_sink=sink if checkpointing else None,
    )
    if profiler is not None:
        with profiler.phase("simulate"):
            result = backend.simulate(config, suffix, **kwargs)
    else:
        result = backend.simulate(config, suffix, **kwargs)
    return ShardOutcome(
        result=result,
        resumed_pos=resumed_pos,
        checkpoints_written=written,
        checkpoint_token=token if checkpointing else "",
    )
