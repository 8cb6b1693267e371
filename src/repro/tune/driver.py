"""The tuning loop: generations of ask → dedup → prune → evaluate → tell.

:func:`run_tune` drives one :class:`TuneSpec` to a :class:`TuneResult`.
Per generation it asks the strategy for candidates, then filters them in
cost order before any simulation runs:

1. **invalid** — combinations :class:`CoreConfig` rejects (grid spaces
   can contain ``rob < issue_window`` points) are skipped outright;
2. **dedup** — candidates already scored this run, or whose evaluation
   artifact exists in the shared :class:`ArtifactCache` (``tune-eval``
   kind, keyed by workload/variant/candidate/settings — strategy-blind,
   so a genetic run reuses a grid run's measurements), are served from
   cache and counted in ``tune_candidates_deduped_total``;
3. **resume** — candidates present in the persisted
   :class:`~repro.tune.state.TuneStateStore` record are served from the
   checkpoint (a killed run re-evaluates nothing it completed);
4. **prune** — the ECM-style :class:`~repro.tune.pruner.TunePruner`
   skips candidates predicted ≥ margin worse than the measured
   incumbent, feeding the strategy a prediction rescaled onto the
   measured-EPI scale so selection still learns the region is bad.

Survivors run as one :class:`EngineRunner` batch — the tuner population
exercises the same parallel engine paths as a sweep — under a
``tune_generation`` tracer span, and the state record is re-persisted
after every generation.  Only *measured* candidates consume budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..engine.cache import ArtifactCache, content_key, resolve_cache_dir
from ..engine.runner import EngineRunner, JobSpec
from ..engine import serialize
from ..harness.experiment import ExperimentSettings
from ..obs.options import ObsOptions
from ..workloads import WORKLOADS
from .pruner import TunePruner
from .space import Candidate, SearchSpace, canonical_candidate
from .state import TuneStateStore
from .strategies import STRATEGIES, make_tuner

__all__ = [
    "TuneObservation",
    "TuneResult",
    "TuneSpec",
    "TuneTelemetry",
    "run_tune",
]

#: ArtifactCache kind for per-candidate measured-EPI artifacts.
EVAL_KIND = "tune-eval"

#: Generations with zero new measurements before the loop gives up —
#: stops a tiny space from spinning forever under a large budget.
_MAX_STALL_GENERATIONS = 3


@dataclass(frozen=True)
class TuneSpec:
    """A serializable tuning request — the wire form of ``mlpsim tune``.

    The same role :class:`~repro.harness.sweeps.SweepSpec` plays for
    sweeps: hashable, content-tokenizable (the resume token hashes it)
    and round-trippable through the service protocol.
    """

    workload: str
    space: SearchSpace
    variant: str = "pc"
    strategy: str = "genetic"
    budget: int = 16
    seed: int = 0
    backend: str = ""
    #: SMT hardware contexts every evaluation runs with (1 = classic
    #: single-context tuning; >1 tunes the aggregate SMT metric).
    contexts: int = 1
    #: SMT scheduling policy ("" = the default) — only meaningful with
    #: ``contexts > 1``.
    scheduler: str = ""

    def __post_init__(self) -> None:
        if not self.workload:
            raise ValueError("a tune spec needs a workload")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown tune strategy {self.strategy!r}; valid "
                f"strategies: {', '.join(STRATEGIES)}"
            )
        if self.budget < 1:
            raise ValueError(
                f"tune budget must be >= 1 evaluation, got {self.budget}"
            )
        if self.contexts < 1:
            raise ValueError(
                f"tune contexts must be >= 1, got {self.contexts}"
            )
        if self.scheduler:
            from ..smt.schedulers import resolve_scheduler

            resolve_scheduler(self.scheduler)

    @classmethod
    def build(
        cls,
        workload: str,
        space: Union[SearchSpace, Mapping[str, Any]],
        *,
        variant: str = "pc",
        strategy: str = "genetic",
        budget: int = 16,
        seed: int = 0,
        backend: str = "",
        contexts: int = 1,
        scheduler: str = "",
    ) -> "TuneSpec":
        """The ergonomic constructor: accepts a mapping of axis values
        (coerced like sweep axes) in place of a built space."""
        if not isinstance(space, SearchSpace):
            space = SearchSpace.build(space)
        return cls(
            workload=workload, space=space, variant=variant,
            strategy=strategy, budget=budget, seed=seed, backend=backend,
            contexts=contexts, scheduler=scheduler,
        )

    def describe(self) -> str:
        return (
            f"tune:{self.workload}/{self.variant} {self.strategy} "
            f"budget={self.budget} seed={self.seed}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return serialize.to_jsonable(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TuneSpec":
        spec = serialize.from_jsonable(data)
        if not isinstance(spec, cls):
            raise serialize.SerializeError(
                f"expected a TuneSpec payload, decoded "
                f"{type(spec).__name__}"
            )
        return spec


@dataclass(frozen=True)
class TuneObservation:
    """One scored candidate: where the score came from and when."""

    candidate: Candidate
    epi_per_1000: float
    generation: int
    source: str  # "measured" | "cache" | "resumed"

    @property
    def knobs(self) -> Dict[str, Any]:
        return dict(self.candidate)


@dataclass(frozen=True)
class TuneResult:
    """The outcome of one tuning run."""

    spec: TuneSpec
    settings: ExperimentSettings
    best: Candidate
    best_epi_per_1000: float
    history: Tuple[TuneObservation, ...]
    evaluations: int
    deduped: int
    pruned: int
    resumed: int
    invalid: int
    generations: int
    wall_time: float
    token: str

    @property
    def best_knobs(self) -> Dict[str, Any]:
        return dict(self.best)

    def summary(self) -> str:
        knobs = " ".join(
            f"{name}={getattr(value, 'value', value)}"
            for name, value in self.best
        )
        return (
            f"{self.spec.describe()}: best {self.best_epi_per_1000:.3f} "
            f"EPI/1000 [{knobs}] after {self.evaluations} evaluations "
            f"({self.deduped} deduped, {self.pruned} pruned, "
            f"{self.resumed} resumed) in {self.generations} generations"
        )

    def to_dict(self) -> Dict[str, Any]:
        return serialize.to_jsonable(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TuneResult":
        result = serialize.from_jsonable(data)
        if not isinstance(result, cls):
            raise serialize.SerializeError(
                f"expected a TuneResult payload, decoded "
                f"{type(result).__name__}"
            )
        return result


class TuneTelemetry:
    """Counters a tuning driver reports, shaped for ``/metrics`` gauges."""

    def __init__(self) -> None:
        self.runs = 0
        self.generations = 0
        self.proposed = 0
        self.evaluated = 0
        self.deduped = 0
        self.pruned = 0
        self.resumed = 0
        self.best_epi_per_1000 = 0.0

    def note_result(self, result: TuneResult) -> None:
        self.runs += 1
        self.generations += result.generations
        self.proposed += len(result.history) + result.pruned + result.invalid
        self.evaluated += result.evaluations
        self.deduped += result.deduped
        self.pruned += result.pruned
        self.resumed += result.resumed
        self.best_epi_per_1000 = result.best_epi_per_1000

    def register_metrics(self, registry: Any) -> None:
        """Expose the counters on a
        :class:`repro.obs.metrics.MetricsRegistry`."""
        registry.gauge(
            "tune_runs_total", lambda: self.runs,
            help="tuning runs completed",
        )
        registry.gauge(
            "tune_generations_total", lambda: self.generations,
            help="tuning generations executed",
        )
        registry.gauge(
            "tune_candidates_evaluated_total", lambda: self.evaluated,
            help="candidates measured by simulation (budget consumed)",
        )
        registry.gauge(
            "tune_candidates_deduped_total", lambda: self.deduped,
            help="candidates served from the artifact cache / this run",
        )
        registry.gauge(
            "tune_candidates_pruned_total", lambda: self.pruned,
            help="candidates skipped by the analytical pruner",
        )
        registry.gauge(
            "tune_candidates_resumed_total", lambda: self.resumed,
            help="candidates served from a resumed tuning checkpoint",
        )
        registry.gauge(
            "tune_best_epi_per_1000", lambda: self.best_epi_per_1000,
            help="EPI/1000 insts of the last completed run's winner",
        )


def _eval_token(
    spec: TuneSpec, settings: ExperimentSettings, candidate: Candidate,
) -> str:
    """Key for one candidate's measured EPI.

    Strategy, budget, seed and backend are deliberately excluded:
    backends are bit-identical and strategies measure the same quantity,
    so any tuning run over the same workload/variant/settings shares
    every other run's measurements.
    """
    return content_key(
        EVAL_KIND, spec.workload, spec.variant, candidate, settings,
    )


def _job_for(
    spec: TuneSpec, candidate: Candidate, generation: int,
) -> JobSpec:
    knobs = " ".join(
        f"{name}={getattr(value, 'value', value)}"
        for name, value in candidate
    )
    return JobSpec(
        workload=spec.workload,
        variant=spec.variant,
        core_changes=candidate,
        backend=spec.backend,
        contexts=spec.contexts,
        scheduler=spec.scheduler,
        label=f"tune[{spec.strategy} g{generation}] {knobs}",
    )


def run_tune(
    spec: TuneSpec,
    *,
    settings: Optional[ExperimentSettings] = None,
    cache_dir: Any = "auto",
    workers: Optional[int] = None,
    runner: Optional[EngineRunner] = None,
    cache: Optional[ArtifactCache] = None,
    obs: Optional[ObsOptions] = None,
    margin: float = 0.30,
    resume: bool = True,
    telemetry: Optional[TuneTelemetry] = None,
) -> TuneResult:
    """Execute *spec* and return the :class:`TuneResult`.

    Pass *runner* to evaluate through an existing engine (the service
    does; its settings win), *cache* to share an existing artifact cache
    for state/dedup (defaults to one over the runner's directory).
    ``resume=False`` ignores persisted state (the checkpoint record is
    still written, so a later run can resume this one).
    """
    if runner is None:
        runner = EngineRunner(
            settings=settings or ExperimentSettings(),
            cache_dir=cache_dir,
            workers=workers,
            obs=obs,
        )
    settings = runner.settings
    if cache is None:
        directory = resolve_cache_dir(runner.cache_dir)
        cache = ArtifactCache(directory) if directory is not None else None

    tuner = make_tuner(
        spec.strategy, spec.space, spec.seed, budget=spec.budget,
    )
    store = TuneStateStore(cache) if cache is not None else None
    token = store.token(spec, settings) if store is not None else ""
    known = store.load(spec, settings) if (store and resume) else {}
    profile = WORKLOADS.get(spec.workload)
    pruner = TunePruner(profile, margin=margin) if profile else None
    tracer = obs.open_tracer() if obs and obs.trace_dir else None

    seen: Dict[Candidate, float] = {}
    history: List[TuneObservation] = []
    evaluations = deduped = pruned = resumed = invalid = 0
    generations = 0
    best: Optional[Candidate] = None
    stall = 0
    started = time.monotonic()
    try:
        # Resumed candidates count against the budget: the interrupted
        # attempt already paid for them, and a finished run must resume
        # to the identical result instead of exploring further.
        while (
            evaluations + resumed < spec.budget
            and not tuner.exhausted
            and stall < _MAX_STALL_GENERATIONS
        ):
            batch = tuner.ask(spec.budget - evaluations - resumed)
            if not batch:
                break
            scored: Dict[Candidate, float] = {}
            to_measure: List[Candidate] = []
            for raw in batch:
                candidate = canonical_candidate(raw)
                if candidate in scored or candidate in to_measure:
                    deduped += 1
                    continue
                if not spec.space.is_valid(candidate):
                    invalid += 1
                    continue
                if candidate in seen:
                    deduped += 1
                    scored[candidate] = seen[candidate]
                    continue
                if candidate in known:
                    resumed += 1
                    seen[candidate] = scored[candidate] = known[candidate]
                    history.append(TuneObservation(
                        candidate, known[candidate], generations, "resumed",
                    ))
                    continue
                if cache is not None:
                    hit = cache.get(
                        EVAL_KIND, _eval_token(spec, settings, candidate),
                    )
                    if hit is not None:
                        deduped += 1
                        seen[candidate] = scored[candidate] = hit
                        history.append(TuneObservation(
                            candidate, hit, generations, "cache",
                        ))
                        continue
                if (
                    pruner is not None
                    and best is not None
                    and pruner.should_prune(candidate, best)
                ):
                    pruned += 1
                    # Rescale the prediction onto the measured scale so
                    # the strategy's selection still sees "bad here".
                    predicted = pruner.predict(candidate)
                    anchor = pruner.predict(best) or 1.0
                    scored[candidate] = seen[best] * (predicted / anchor)
                    continue
                to_measure.append(candidate)

            measured_now = 0
            if to_measure:
                span = (
                    tracer.span(
                        "tune_generation",
                        generation=generations,
                        strategy=spec.strategy,
                        workload=spec.workload,
                        candidates=len(to_measure),
                    ) if tracer is not None else None
                )
                try:
                    jobs = [
                        _job_for(spec, candidate, generations)
                        for candidate in to_measure
                    ]
                    report = runner.run(jobs)
                    report.raise_on_failure()
                finally:
                    if span is not None:
                        span.__exit__(None, None, None)
                for candidate, job in zip(to_measure, report.jobs):
                    epi = job.result.epi_per_1000
                    seen[candidate] = scored[candidate] = epi
                    evaluations += 1
                    measured_now += 1
                    history.append(TuneObservation(
                        candidate, epi, generations, "measured",
                    ))
                    if cache is not None:
                        cache.put(
                            EVAL_KIND,
                            _eval_token(spec, settings, candidate),
                            epi,
                        )
                if store is not None:
                    store.save(spec, settings, seen)
            if seen:
                best = min(seen, key=seen.get)  # type: ignore[arg-type]
            tuner.tell(scored)
            generations += 1
            stall = 0 if measured_now else stall + 1
    finally:
        if tracer is not None:
            tracer.close()

    if best is None:
        raise ValueError(
            f"{spec.describe()} evaluated no candidates "
            f"(space size {spec.space.size()}, all points invalid?)"
        )
    result = TuneResult(
        spec=spec,
        settings=settings,
        best=best,
        best_epi_per_1000=seen[best],
        history=tuple(history),
        evaluations=evaluations,
        deduped=deduped,
        pruned=pruned,
        resumed=resumed,
        invalid=invalid,
        generations=generations,
        wall_time=time.monotonic() - started,
        token=token,
    )
    if telemetry is not None:
        telemetry.note_result(result)
    return result


serialize.register(TuneSpec, TuneObservation, TuneResult)
