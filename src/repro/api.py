"""The unified entry point for running, sweeping and remoting simulations.

Three execution surfaces accreted as the codebase grew — the serial
:class:`~repro.harness.experiment.Workbench`, the process-pool
:class:`~repro.engine.runner.EngineRunner` and the HTTP
:class:`~repro.service.client.ServiceClient` — each with its own
construction ritual.  This module is the single documented front door over
all three:

- :func:`run` — one simulation, one result::

      from repro import api

      result = api.run("database", store_prefetch="sp2")
      print(result.epi_per_1000)

- :func:`sweep` — a configuration grid, executed in parallel through the
  engine's worker pool with artifact caching::

      spec = api.SweepSpec.build(
          "database", store_queue=[16, 32, 64],
          store_prefetch=["sp0", "sp1", "sp2"],
      )
      records = api.sweep(spec)
      best = min(records, key=lambda r: r.epi_per_1000)

- :func:`estimate` — the analytical EPI prediction behind ``mlpsim
  estimate``: no trace read, no simulation run, sub-millisecond::

      guess = api.estimate("database", scout="hws2")
      print(guess.predicted_epi_per_1000)

- :func:`connect` — the same verbs against a running ``mlpsim serve``::

      client = api.connect("http://127.0.0.1:8137")
      receipt = client.submit_sweep("database", store_queue=[16, 32])
      report = client.result(receipt["id"])

:func:`run`, :func:`sweep` (via the ``contexts``/``scheduler`` axes)
and :func:`estimate` all accept the SMT axis: ``contexts=N``
runs N hardware contexts over one shared memory system and returns a
:class:`~repro.smt.results.SmtResult` with per-context breakdowns plus
STP/ANTT/fairness aggregates; ``scheduler=`` picks the thread-scheduling
policy (``round_robin``, ``icount``, ``mlp``)::

    smt = api.run("oltp_java", contexts=2, scheduler="mlp")
    print(smt.stp, smt.antt, smt.contexts[0].epi_per_1000)

:func:`workbench` constructs the underlying serial workbench for repeated
interactive runs that should share one annotated-trace cache.

Since v2.0 this module (plus the ``mlpsim`` CLI and the service protocol)
is the *only supported entry-point surface*: the deprecated aliases
(``repro.Workbench``, ``repro.harness.Workbench``,
``repro.harness.sweeps.sweep``/``sweep_workloads``, the
``repro.service.metrics`` shim) have been removed per the DESIGN.md
timeline.  The underlying classes are still importable from their
canonical homes (``repro.harness.experiment.Workbench`` et al.) for
extension and testing.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, List, Mapping, Optional, Union

from ._lazy import lazy_exports
from .config import SimulationConfig
from .core.results import SimulationResult
from .harness.experiment import ExperimentSettings, Workbench
from .harness.sweeps import (
    SweepRecord,
    SweepSpec,
    coerce_axis_value,
    valid_axes,
)
from .shard.execute import shard_plan_for
from .shard.plan import ShardPlan

if TYPE_CHECKING:
    from .engine.runner import EngineRunner, JobResult, JobSpec
    from .obs.options import ObsOptions
    from .service.client import ServiceClient
    from .smt import SmtResult

# A single run needs only the imports above.  The pool runner, the
# estimator, SMT, tracing and the service client load when a
# function below first uses them, or when one of these names is read.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".engine.runner": (
        "EngineRunner", "JobResult", "JobSpec", "RunReport", "ShardedReport",
    ),
    ".estimate": ("EpiEstimate", "estimate"),
    ".obs.options": ("ObsOptions",),
    ".service.client": ("ServiceClient",),
    ".smt": ("SmtResult", "valid_schedulers"),
})

__all__ = [
    "EngineRunner",
    "EpiEstimate",
    "ExperimentSettings",
    "JobResult",
    "JobSpec",
    "ObsOptions",
    "RunReport",
    "ServiceClient",
    "ShardPlan",
    "ShardedReport",
    "SimulationConfig",
    "SimulationResult",
    "SmtResult",
    "SweepRecord",
    "SweepSpec",
    "Workbench",
    "connect",
    "estimate",
    "run",
    "shard_plan",
    "sweep",
    "valid_axes",
    "valid_schedulers",
    "workbench",
]


def _resolve_obs(
    trace: Union[str, Path, None], obs: Optional[ObsOptions],
) -> Optional[ObsOptions]:
    """``trace=`` is sugar for ``obs=ObsOptions.for_trace(trace)``."""
    if trace is not None and obs is not None:
        raise ValueError(
            "pass either trace= (a trace directory) or obs= "
            "(full ObsOptions), not both"
        )
    if trace is not None:
        from .obs.options import ObsOptions

        return ObsOptions.for_trace(trace)
    return obs


def workbench(
    settings: Optional[ExperimentSettings] = None,
    cache_dir: Any = "auto",
) -> Workbench:
    """A serial workbench for repeated runs sharing one trace cache.

    ``cache_dir="auto"`` persists artifacts under ``$REPRO_CACHE_DIR`` or
    ``.repro-cache``; pass ``None`` for in-memory caching only.
    """
    return Workbench(settings or ExperimentSettings(), cache_dir=cache_dir)


def _coerce_core_changes(core_changes: Mapping[str, Any]) -> dict:
    """Type every knob through the sweep axes.

    Unknown knob names raise ``ValueError`` listing the valid axes —
    the same actionable error surface as the CLI and the service.
    """
    return {
        name: coerce_axis_value(name, value)
        for name, value in core_changes.items()
    }


def run(
    profile: Union[str, JobSpec, Mapping[str, Any]],
    config: Optional[SimulationConfig] = None,
    *,
    variant: str = "pc",
    settings: Optional[ExperimentSettings] = None,
    cache_dir: Any = "auto",
    bench: Optional[Workbench] = None,
    trace: Union[str, Path, None] = None,
    obs: Optional[ObsOptions] = None,
    shards: int = 1,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    contexts: int = 1,
    scheduler: str = "",
    **core_changes: Any,
) -> Union[SimulationResult, SmtResult]:
    """Simulate one workload *profile* under one configuration.

    *profile* names a calibrated workload (``"database"``, ``"tpcw"``,
    ``"specjbb"``, ``"specweb"``) — or is a whole :class:`JobSpec` (or an
    equivalent mapping, the shape ``ServiceClient.submit_simulate`` also
    accepts), whose workload/variant/config/core-changes/backend seed the
    run and explicit keyword arguments override.  *variant* selects the
    trace flavour (``"pc"``, ``"wc"``, ``"pc_sle"``, ...).  *config*
    overrides the whole :class:`SimulationConfig`; *core_changes* tweak
    individual core fields (``store_prefetch="sp2"``, ``store_queue=64``,
    ...) — see :func:`valid_axes` for the accepted names; an unknown name
    raises ``ValueError`` listing them.  Pass *bench* (from
    :func:`workbench`) to reuse an annotated trace across calls.

    *backend* selects the execution backend — ``"event"`` (event-driven
    epoch skipping) or ``"reference"`` (the golden tick loop).  ``None``
    defers to ``$REPRO_BACKEND`` and then ``"event"``.  Backends are
    bit-identical, so this only changes execution speed::

        result = api.run("database", backend="reference")

    *shards* > 1 runs through the fault-tolerant sharded execution path
    (a failed shard is recomputed from its start): the trace is cut at the
    quiescent boundaries an earlier run of the same inputs recorded and the
    segments fan out across *workers* processes.  The first such run has
    no record, so it runs as one shard and records one.  The returned
    result is bit-identical to an unsharded run either way.

    *trace* names a directory to write a JSONL epoch trace into
    (rendered by ``mlpsim trace`` / ``mlpsim obs report``); *obs* passes
    full :class:`ObsOptions` instead.  They are mutually exclusive, and
    neither perturbs the simulation result.

    *contexts* > 1 runs an SMT simulation: N hardware contexts sharing
    the SMAC and lock lines, each running one component of the *profile*
    mix (``"database+specjbb"`` or a named mix like ``"oltp_java"``;
    a single workload name replicates).  *scheduler* picks the policy
    (see :func:`valid_schedulers`).  Returns an :class:`SmtResult`
    instead of a :class:`SimulationResult`; ``contexts=1`` is
    bit-identical to the single-context pipeline under every policy.
    SMT runs do not compose with *shards*/*trace*.
    """
    options = _resolve_obs(trace, obs)
    if not isinstance(profile, str):
        from .engine.runner import JobSpec

        base = JobSpec.coerce(profile)
        merged = dict(base.core_changes)
        merged.update(core_changes)
        core_changes = merged
        if variant == "pc":
            variant = base.variant
        if config is None:
            config = base.config
        if backend is None and base.backend:
            backend = base.backend
        if contexts == 1 and base.contexts > 1:
            contexts = base.contexts
        if not scheduler and base.scheduler:
            scheduler = base.scheduler
        profile = base.workload
    core_changes = _coerce_core_changes(core_changes)
    if contexts > 1:
        if shards > 1:
            raise ValueError(
                "contexts= cannot be combined with shards= "
                "(SMT runs are not shardable)"
            )
        if options is not None:
            raise ValueError(
                "contexts= cannot be combined with trace=/obs= "
                "(SMT contexts drive their own shared-SMAC observers)"
            )
        from .smt import run_smt

        if bench is None:
            bench = workbench(settings, cache_dir)
        return run_smt(
            bench, profile, contexts=contexts, scheduler=scheduler,
            variant=variant, config=config, **core_changes,
        )
    if scheduler:
        raise ValueError(
            "scheduler= only applies to SMT runs; pass contexts > 1"
        )
    if shards > 1:
        if bench is not None:
            raise ValueError(
                "bench= cannot be combined with shards= "
                "(sharded runs execute through an EngineRunner)"
            )
        from .engine.runner import EngineRunner, JobSpec

        runner = EngineRunner(
            settings=settings or ExperimentSettings(),
            cache_dir=cache_dir,
            workers=workers,
            obs=options,
        )
        spec = JobSpec(
            workload=profile,
            variant=variant,
            config=config,
            core_changes=tuple(sorted(core_changes.items())),
            backend=backend or "",
        )
        report = runner.run_sharded(spec, shards)
        report.raise_on_failure()
        assert report.merged is not None
        return report.merged
    if bench is None:
        bench = workbench(settings, cache_dir)
    if options is None or options.trace_dir is None:
        return bench.run(
            profile, variant=variant, config=config, backend=backend,
            **core_changes,
        )
    from .obs.recorder import EpochTimelineRecorder

    tracer = options.open_tracer()
    try:
        observer = (
            EpochTimelineRecorder(tracer, label=f"{profile}/{variant}")
            if options.trace_epochs else None
        )
        return bench.run(
            profile, variant=variant, config=config, observer=observer,
            backend=backend, **core_changes,
        )
    finally:
        tracer.close()


def sweep(
    spec: Union[SweepSpec, Mapping[str, Any]],
    *,
    settings: Optional[ExperimentSettings] = None,
    cache_dir: Any = "auto",
    workers: Optional[int] = None,
    job_timeout: float = 600.0,
    runner: Optional[EngineRunner] = None,
    trace: Union[str, Path, None] = None,
    obs: Optional[ObsOptions] = None,
    backend: Optional[str] = None,
    shards: int = 1,
) -> List[SweepRecord]:
    """Execute a sweep *spec* and return one record per grid point.

    *spec* is a :class:`SweepSpec` (build one with
    :meth:`SweepSpec.build`) or an equivalent mapping with ``workloads``,
    ``axes`` and optionally ``variant`` keys — the same shape the service
    protocol accepts.  The grid fans out across *workers* processes
    (default ``min(4, cpus)``) sharing the persistent artifact cache;
    records come back workload-major in grid order, deterministically.

    *shards* > 1 runs every grid point through the fault-tolerant sharded
    path (:meth:`EngineRunner.run_sharded`) — traces split at recorded
    quiescent boundaries (a point's first run is one shard that records
    them), failed shards retry, results stay bit-identical.

    *backend* runs every grid point on the named execution backend.
    Results are bit-identical across backends.

    *trace* names a directory the engine (every worker process) writes
    JSONL trace files into; *obs* passes full :class:`ObsOptions`.
    Mutually exclusive; ignored if an explicit *runner* is supplied (the
    runner already carries its own obs configuration).
    """
    from .engine.runner import EngineRunner, JobResult, RunReport

    options = _resolve_obs(trace, obs)
    if runner is not None and options is not None:
        raise ValueError(
            "trace=/obs= cannot be combined with an explicit runner; "
            "configure EngineRunner(obs=...) instead"
        )
    if not isinstance(spec, SweepSpec):
        try:
            workloads = spec["workloads"]
            axes = dict(spec["axes"])
        except (TypeError, KeyError) as exc:
            raise TypeError(
                "spec must be a SweepSpec or a mapping with 'workloads' "
                "and 'axes' keys"
            ) from exc
        spec = SweepSpec.build(workloads, spec.get("variant", "pc"), **axes)
    if runner is None:
        runner = EngineRunner(
            settings=settings or ExperimentSettings(),
            cache_dir=cache_dir,
            workers=workers,
            job_timeout=job_timeout,
            obs=options,
        )
    jobs = spec.to_jobs()
    if backend:
        from dataclasses import replace

        jobs = [replace(job, backend=backend) for job in jobs]
    if shards > 1:
        # Each grid point runs as its own sharded execution; synthesize a
        # grid-ordered report from the merged results so spec.records()
        # pairs them exactly like the unsharded path.
        merged_jobs: List[JobResult] = []
        wall_time = 0.0
        for job in jobs:
            sharded = runner.run_sharded(job, shards)
            sharded.raise_on_failure()
            wall_time += sharded.wall_time
            merged_jobs.append(JobResult(
                spec=job,
                status="ok",
                result=sharded.merged,
                wall_time=sharded.wall_time,
            ))
        report = RunReport(
            jobs=merged_jobs, wall_time=wall_time, workers=runner.workers,
        )
    else:
        report = runner.run(jobs)
    return spec.records(report)


def shard_plan(
    profile: str,
    shards: int = 4,
    *,
    variant: str = "pc",
    config: Optional[SimulationConfig] = None,
    settings: Optional[ExperimentSettings] = None,
    cache_dir: Any = "auto",
    bench: Optional[Workbench] = None,
    **core_changes: Any,
) -> Optional[ShardPlan]:
    """The deterministic shard plan a sharded :func:`run` would use now.

    Reads the quiescent boundaries an earlier sharded run of the same
    inputs recorded in the artifact cache; it simulates nothing and loads
    no trace.  ``None`` means no run has recorded them yet, so the next
    sharded run is one whole-trace shard.  Inspect ``plan.shards`` for
    the spans, ``plan.shard_count`` for how many shards the trace actually
    supports (boundary-starved traces yield fewer than requested, never
    unsafe cuts).
    """
    from .engine.runner import JobSpec

    if bench is None:
        bench = workbench(settings, cache_dir)
    spec = JobSpec(
        workload=profile,
        variant=variant,
        config=config,
        core_changes=tuple(sorted(_coerce_core_changes(core_changes).items())),
    )
    return shard_plan_for(bench.artifacts, bench.settings, spec, shards)


def connect(
    url: str,
    *,
    timeout: float = 30.0,
    retries: int = 3,
    backoff: float = 0.1,
) -> ServiceClient:
    """A client for a running simulation service (``mlpsim serve``).

    The returned :class:`ServiceClient` speaks the versioned wire protocol
    and mirrors this module's verbs: ``submit`` (and the
    ``submit_sweep``/``submit_simulate``/``submit_figure`` conveniences),
    ``result`` and ``cancel``.  ``result`` and ``wait`` long-poll
    (``GET /v1/jobs/<id>?wait=S``): the server answers as the job ends,
    each request holding for at most half of *timeout* (and the server's
    30 s cap).  ``status(job_id, wait=S)`` makes one such request.
    """
    from .service.client import ServiceClient

    return ServiceClient(
        url, timeout=timeout, retries=retries, backoff=backoff,
    )
