"""Calibration of workload profiles against the paper's Table 1.

A profile's miss-probability knobs steer the generator, but the *achieved*
off-chip miss rates emerge from the interaction of the generated addresses
with the real cache simulation (cold lines that happen to be resident,
shared lines re-fetched after remote invalidates, and so on).  Calibration
closes the loop: generate, measure through the memory hierarchy, and scale
the steering multipliers proportionally, iterating until every rate lands
within tolerance of its Table 1 target.

A caller that goes on to annotate the calibrated trace (the Workbench)
passes a :class:`RunPass`: each round then generates and annotates the
run-length trace once, measures the calibration window on that same pass,
and the last round's trace and annotation are handed back for reuse.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence

from ..config import BranchPredictorConfig, MemoryConfig
from ..errors import CalibrationError
from ..frontend import BranchPredictor
from ..isa import Instruction
from ..memory import AnnotatedTrace, MemorySystem, annotate_trace
from ..memory.hierarchy import HierarchyStats, MemoryCounters
from .generator import WorkloadGenerator
from .profiles import WorkloadProfile


@dataclass(frozen=True)
class MeasuredRates:
    """Achieved per-100-instruction statistics for a generated trace."""

    store_frequency: float
    store_miss_per_100: float
    load_miss_per_100: float
    inst_miss_per_100: float

    def __str__(self) -> str:
        return (
            f"stores/100={self.store_frequency:.2f} "
            f"store-miss/100={self.store_miss_per_100:.3f} "
            f"load-miss/100={self.load_miss_per_100:.3f} "
            f"inst-miss/100={self.inst_miss_per_100:.3f}"
        )


@dataclass
class RunPass:
    """The run-length pass every calibration round measures.

    Given to :func:`calibrate_profile`, it makes each round generate
    *total* instructions and annotate them once, with a *branch* predictor
    and the statistics reset at *warmup*, exactly as the run itself will.
    The calibration window's counters are sampled on that pass.  Cache
    state depends on neither the predictor nor the reset, so the measured
    rates equal those of a calibration-only trace.  Afterwards ``trace``,
    ``annotated`` and ``counters`` hold the last round's pass, which is the
    one that measured the returned profile.
    """

    total: int
    warmup: int
    branch: Optional[BranchPredictorConfig] = None
    trace: Optional[List[Instruction]] = None
    annotated: Optional[AnnotatedTrace] = None
    counters: Optional[MemoryCounters] = None


def measure_profile(
    profile: WorkloadProfile,
    memory_config: MemoryConfig | None = None,
    instructions: int = 120_000,
    warmup: int = 40_000,
    seed: int = 0,
    run: RunPass | None = None,
) -> MeasuredRates:
    """Generate a trace and measure its off-chip miss rates.

    The rates cover instructions ``[warmup, instructions)``.  With *run*,
    they are read off the run-length pass it describes (see
    :class:`RunPass`), which is left in *run*.
    """
    if instructions <= warmup:
        raise CalibrationError(
            f"calibration window [{warmup}, {instructions}) is empty: "
            f"the trace must run past the calibration warmup"
        )
    if run is None:
        run = RunPass(instructions, warmup)
    elif run.total < instructions:
        raise ValueError(
            f"run pass of {run.total} instructions is shorter than the "
            f"calibration trace ({instructions})"
        )
    run.trace = run.annotated = run.counters = None  # free the last round's
    memory = MemorySystem(memory_config or MemoryConfig())
    trace = WorkloadGenerator(profile, seed).generate(run.total)
    predictor = BranchPredictor(run.branch) if run.branch is not None else None
    samples: Dict[int, HierarchyStats] = {}
    # A reset inside the window clears counts the window needs: sample
    # just before it too, and add those back.
    bridged = warmup <= run.warmup < instructions
    points = sorted({warmup, instructions} | ({run.warmup} if bridged else set()))
    annotated = annotate_trace(
        _sampling(trace, points, memory, samples),
        memory, predictor=predictor, warmup=run.warmup,
    )
    window = HierarchyStats(**{
        field.name: getattr(samples[instructions], field.name)
        - getattr(samples[warmup], field.name)
        + (getattr(samples[run.warmup], field.name) if bridged else 0)
        for field in dataclasses.fields(HierarchyStats)
    })
    run.trace, run.annotated, run.counters = (
        trace, annotated, memory.counters(),
    )
    return _rates(window)


def _sampling(
    trace: Sequence[Instruction],
    points: Sequence[int],
    memory: MemorySystem,
    samples: Dict[int, HierarchyStats],
) -> Iterator[Instruction]:
    """Yield *trace*, copying ``memory.stats`` before each index in *points*.

    ``annotate_trace`` pulls the next instruction only once it has
    processed the previous one, and resets the statistics only after
    pulling the warmup instruction, so a sample at index ``i`` counts
    instructions ``[.., i)`` and a sample at the warmup index is taken
    before the reset.
    """
    remaining = iter(trace)
    position = 0
    for point in points:
        yield from islice(remaining, point - position)
        position = point
        samples[point] = dataclasses.replace(memory.stats)
    yield from remaining


def _rates(stats: HierarchyStats) -> MeasuredRates:
    return MeasuredRates(
        store_frequency=stats.per_100_instructions(stats.stores),
        store_miss_per_100=stats.store_miss_rate,
        load_miss_per_100=stats.load_miss_rate,
        inst_miss_per_100=stats.inst_miss_rate,
    )


def _scaled(current: float, target: float, measured: float) -> float:
    if measured <= 0:
        return current * 2.0 if target > 0 else current
    return max(0.05, min(20.0, current * target / measured))


def calibrate_profile(
    profile: WorkloadProfile,
    memory_config: MemoryConfig | None = None,
    instructions: int = 120_000,
    warmup: int = 40_000,
    iterations: int = 3,
    tolerance: float = 0.25,
    seed: int = 0,
    run: RunPass | None = None,
) -> WorkloadProfile:
    """Adjust steering multipliers until Table 1 rates are met.

    Returns the calibrated profile.  Raises :class:`CalibrationError` if
    after *iterations* rounds any rate is still off by more than
    *tolerance* (relative) — except rates whose targets are so small that
    the trace carries too few events to measure reliably.  Every round
    measures through :func:`measure_profile`, on *run*'s pass when given.
    """
    current = profile
    for _ in range(iterations):
        measured = measure_profile(
            current, memory_config, instructions, warmup, seed, run,
        )
        window = instructions - warmup
        if _within(current, measured, tolerance, window):
            return current
        current = current.with_(
            store_miss_scale=_scaled(
                current.store_miss_scale,
                current.store_miss_per_100,
                measured.store_miss_per_100,
            ),
            load_miss_scale=_scaled(
                current.load_miss_scale,
                current.load_miss_per_100,
                measured.load_miss_per_100,
            ),
            inst_miss_scale=_scaled(
                current.inst_miss_scale,
                current.inst_miss_per_100,
                measured.inst_miss_per_100,
            ),
        )
    measured = measure_profile(
        current, memory_config, instructions, warmup, seed, run,
    )
    if not _within(current, measured, tolerance, instructions - warmup):
        raise CalibrationError(
            f"{profile.name}: calibration did not converge; "
            f"targets (per 100) store={profile.store_miss_per_100} "
            f"load={profile.load_miss_per_100} inst={profile.inst_miss_per_100}, "
            f"achieved {measured}"
        )
    return current


def _within(
    profile: WorkloadProfile,
    measured: MeasuredRates,
    tolerance: float,
    window: int,
) -> bool:
    """Check every rate against its target with an event-count-aware bound.

    A rate of r per 100 instructions yields only ``r/100 * window`` events;
    for small windows the sampling noise (~2.5/sqrt(events) relative) can
    exceed any fixed tolerance, so the effective tolerance widens for
    rare-event targets instead of failing on noise.
    """
    pairs = (
        (profile.store_miss_per_100, measured.store_miss_per_100),
        (profile.load_miss_per_100, measured.load_miss_per_100),
        (profile.inst_miss_per_100, measured.inst_miss_per_100),
    )
    for target, achieved in pairs:
        if target < 0.02:
            continue  # too few events in any realistic trace to measure
        expected_events = target / 100.0 * window
        noise = 2.5 / math.sqrt(expected_events) if expected_events > 0 else 1.0
        effective = max(tolerance, noise)
        if abs(achieved - target) > effective * target:
            return False
    return True
