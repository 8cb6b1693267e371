"""Generic parameter sweeps over MLPsim configurations.

The figure drivers hard-code the paper's sweeps; this module provides the
general tool for new studies: give it a workbench, a workload and a grid of
core-configuration axes, get back one record per point with the headline
metrics, ready for tabulation or plotting.

Execution goes through :func:`repro.api.sweep` (the pre-v2 module-level
``sweep``/``sweep_workloads`` entry points were removed per the DESIGN.md
timeline)::

    from repro import api

    spec = api.SweepSpec.build(
        "database",
        store_queue=[16, 32, 64],
        store_prefetch=["sp0", "sp1", "sp2"],
    )
    records = api.sweep(spec)
    best = min(records, key=lambda r: r.epi_per_1000)

``api.sweep`` fans the grid out across worker processes; records come
back in grid order with numbers bit-identical to serial execution (the
pipeline is deterministic and the workers share the artifact cache).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

from ..config import ConsistencyModel, ScoutMode, StorePrefetchMode
from ..core.results import SimulationResult
from ..engine import serialize

if TYPE_CHECKING:
    from ..engine.runner import JobSpec, RunReport

#: Named-value axes: the string spellings accepted on the CLI and over the
#: service protocol for enum-typed core-configuration fields.
AXIS_ENUMS: Dict[str, Dict[str, Any]] = {
    "store_prefetch": {mode.value: mode for mode in StorePrefetchMode},
    "scout": {mode.value: mode for mode in ScoutMode},
    "consistency": {model.value: model for model in ConsistencyModel},
}

#: Boolean policy knobs on :class:`repro.config.CoreConfig`.
AXIS_BOOLS = ("sle", "prefetch_past_serializing", "perfect_stores")

#: Integer sizing knobs on :class:`repro.config.CoreConfig`.
AXIS_INTS = (
    "issue_window", "rob", "load_buffer", "store_buffer", "store_queue",
    "coalesce_bytes",
)

#: Job-level axes: sweepable like knobs but carried on the
#: :class:`~repro.engine.runner.JobSpec` itself rather than inside
#: ``core_changes`` — ``contexts`` (SMT hardware contexts) and
#: ``scheduler`` (the SMT thread-scheduling policy).
AXIS_JOB = ("contexts", "scheduler")


def valid_axes() -> Dict[str, str]:
    """Every sweepable axis name mapped to a description of its values.

    These are the scalar fields of :class:`repro.config.CoreConfig` (the
    nested ``branch`` predictor config is not sweepable through an axis)
    plus the job-level SMT axes ``contexts`` and ``scheduler``.
    """
    from ..smt.schedulers import valid_schedulers

    axes = {name: "int" for name in AXIS_INTS}
    axes.update({name: "bool ('true'/'false')" for name in AXIS_BOOLS})
    axes.update({
        name: f"one of {sorted(mapping)}"
        for name, mapping in AXIS_ENUMS.items()
    })
    axes["contexts"] = "int >= 1 (SMT hardware contexts)"
    axes["scheduler"] = f"one of {valid_schedulers()}"
    return dict(sorted(axes.items()))


def _axis_error(name: str, value: Any, expected: str) -> ValueError:
    return ValueError(
        f"bad value {value!r} for axis {name!r}: expected {expected}"
    )


def coerce_axis_value(name: str, value: Any) -> Any:
    """Turn one externally-supplied axis value into its typed form.

    Strings naming enum members (``"sp1"``, ``"hws2"``, ``"wc"``) become the
    enum; ``"true"``/``"false"`` become booleans; integer-looking strings
    become ints.  An unknown axis name, or a value the axis's type cannot
    represent, raises ``ValueError`` spelling out the valid axis names and
    the expected values — the message the CLI and the service return
    verbatim, so a typo comes back actionable instead of as a bare
    ``KeyError`` deep in config construction.
    """
    if name == "contexts":
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                raise _axis_error(name, value, "an integer >= 1") from None
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise _axis_error(name, value, "an integer >= 1")
        return value
    if name == "scheduler":
        from ..smt.schedulers import resolve_scheduler

        if not isinstance(value, str):
            raise _axis_error(name, value, "a scheduler name")
        return resolve_scheduler(value).name
    mapping = AXIS_ENUMS.get(name)
    if mapping is not None:
        if isinstance(value, str):
            try:
                return mapping[value.lower()]
            except KeyError:
                raise _axis_error(
                    name, value, f"one of {sorted(mapping)}"
                ) from None
        if value in mapping.values():
            return value
        raise _axis_error(name, value, f"one of {sorted(mapping)}")
    if name in AXIS_BOOLS:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise _axis_error(name, value, "a bool or 'true'/'false'")
    if name in AXIS_INTS:
        if isinstance(value, bool):
            raise _axis_error(name, value, "an integer")
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                raise _axis_error(name, value, "an integer") from None
        raise _axis_error(name, value, "an integer")
    lines = ", ".join(
        f"{axis} ({expected})" for axis, expected in valid_axes().items()
    )
    raise ValueError(
        f"unknown sweep axis {name!r}; valid axes: {lines}"
    )


@dataclass(frozen=True)
class SweepRecord:
    """One point of a sweep: the knob values and the measured metrics."""

    workload: str
    variant: str
    point: Tuple[Tuple[str, Any], ...]
    epi_per_1000: float
    mlp: float
    store_mlp: float
    store_overlap_fraction: float
    store_bandwidth_overhead: float

    @property
    def knobs(self) -> Dict[str, Any]:
        return dict(self.point)

    def label(self) -> str:
        """Compact ``knob=value`` rendering for table rows."""
        return " ".join(
            f"{name}={getattr(value, 'value', value)}"
            for name, value in self.point
        )


@dataclass(frozen=True)
class SweepSpec:
    """A serializable sweep request: workloads x a grid of axes.

    This is the wire form of a sweep — what ``mlpsim submit`` posts to the
    service and what the service hashes for in-flight deduplication.  Axes
    are stored as ``((name, (value, ...)), ...)`` so the spec is hashable
    and tokenizes stably for :func:`repro.engine.cache.content_key`.
    """

    workloads: Tuple[str, ...]
    variant: str = "pc"
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("a sweep spec needs at least one workload")
        if not self.axes:
            raise ValueError("a sweep spec needs at least one axis")

    @classmethod
    def build(
        cls,
        workloads: str | Sequence[str],
        variant: str = "pc",
        **axes: Sequence[Any],
    ) -> "SweepSpec":
        """The ergonomic constructor: coerces axis values (enum names,
        ``"true"``/``"false"``, numeric strings) into their typed form."""
        if isinstance(workloads, str):
            workloads = (workloads,)
        return cls(
            workloads=tuple(workloads),
            variant=variant,
            axes=tuple(
                (name, tuple(coerce_axis_value(name, v) for v in values))
                for name, values in axes.items()
            ),
        )

    @property
    def axes_dict(self) -> Dict[str, List[Any]]:
        return {name: list(values) for name, values in self.axes}

    def points(self) -> List[Tuple[Tuple[str, Any], ...]]:
        return grid_points(self.axes_dict)

    def to_jobs(self) -> "List[JobSpec]":
        """The grid as runner jobs: workload-major, grid order within.

        The job-level axes (``contexts``, ``scheduler``) are lifted out of
        the point onto the :class:`~repro.engine.runner.JobSpec` itself;
        everything else travels as ``core_changes``.
        """
        from ..engine.runner import JobSpec

        jobs = []
        for workload in self.workloads:
            for point in self.points():
                knobs = tuple(
                    (name, value) for name, value in point
                    if name not in AXIS_JOB
                )
                job_fields = dict(
                    (name, value) for name, value in point
                    if name in AXIS_JOB
                )
                jobs.append(JobSpec(
                    workload=workload,
                    variant=self.variant,
                    core_changes=knobs,
                    contexts=int(job_fields.get("contexts", 1)),
                    scheduler=str(job_fields.get("scheduler", "")),
                ))
        return jobs

    def records(self, report: "RunReport") -> List[SweepRecord]:
        """Pair this spec's grid with a report from :meth:`to_jobs` jobs."""
        report.raise_on_failure()
        points = self.points()
        expected = len(self.workloads) * len(points)
        if len(report.jobs) != expected:
            raise ValueError(
                f"report has {len(report.jobs)} jobs, spec expects {expected}"
            )
        jobs = iter(report.jobs)
        return [
            _record(workload, self.variant, point, next(jobs).result)
            for workload in self.workloads
            for point in points
        ]

    def to_dict(self) -> Dict[str, Any]:
        return serialize.to_jsonable(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        spec = serialize.from_jsonable(data)
        if not isinstance(spec, cls):
            raise serialize.SerializeError(
                f"expected a SweepSpec payload, decoded {type(spec).__name__}"
            )
        return spec


def _record(
    workload: str,
    variant: str,
    point: Tuple[Tuple[str, Any], ...],
    result: SimulationResult,
) -> SweepRecord:
    return SweepRecord(
        workload=workload,
        variant=variant,
        point=point,
        epi_per_1000=result.epi_per_1000,
        mlp=result.mlp,
        store_mlp=result.store_mlp,
        store_overlap_fraction=result.store_overlap_fraction,
        store_bandwidth_overhead=result.store_bandwidth_overhead,
    )


def grid_points(
    axes: Dict[str, Sequence[Any]],
) -> List[Tuple[Tuple[str, Any], ...]]:
    """The cartesian product of *axes* as ``((name, value), ...)`` points."""
    if not axes:
        raise ValueError("a sweep needs at least one axis")
    names = list(axes)
    return [
        tuple(zip(names, values))
        for values in itertools.product(*(axes[name] for name in names))
    ]


def best_point(
    records: Sequence[SweepRecord],
    metric: str = "epi_per_1000",
    minimize: bool = True,
) -> SweepRecord:
    """The record optimizing *metric* (ties go to the earliest grid point)."""
    if not records:
        raise ValueError("no records to choose from")
    chooser = min if minimize else max
    return chooser(records, key=lambda r: getattr(r, metric))


def pareto_front(
    records: Sequence[SweepRecord],
    metrics: Sequence[str] = ("epi_per_1000", "store_bandwidth_overhead"),
) -> List[SweepRecord]:
    """Records not dominated on all of *metrics* (all minimized).

    Useful for cost/performance trade-offs such as EPI vs prefetch
    bandwidth — the axis along which the paper positions the SMAC.
    """
    front: List[SweepRecord] = []
    for candidate in records:
        candidate_values = [getattr(candidate, m) for m in metrics]
        dominated = False
        for other in records:
            if other is candidate:
                continue
            other_values = [getattr(other, m) for m in metrics]
            if all(o <= c for o, c in zip(other_values, candidate_values)) \
                    and any(o < c for o, c in zip(other_values, candidate_values)):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return front


serialize.register(SweepSpec, SweepRecord)
