"""Analytical per-job cost estimation for fleet routing and admission.

The router and the admission controller need a cost signal *before* a job
runs — simulating to find out how expensive a simulation is would defeat
the point.  Following the ECM (Execution-Cache-Memory) modelling style
(see PAPERS.md), the estimate is assembled additively from workload
statistics the repo already owns: each :class:`~repro.workloads.profiles
.WorkloadProfile` publishes its instruction mix and off-chip miss rates
(Table 1 of the source paper), and the simulator's work per instruction
decomposes into

- a base per-instruction charge (dispatch/commit bookkeeping),
- an epoch charge: epochs close on serializing instructions and on
  store-buffer pressure, so predicted epochs/instruction follows the lock
  density plus the store-miss rate divided by the mean store burst length
  (a burst of clustered store misses shares one epoch),
- a miss charge for the memory-system work of the load/store/instruction
  misses themselves.

The absolute unit is arbitrary ("cost units" ~ predicted relative wall
time); routing only needs *ordering* and *proportions* to balance workers,
and admission control divides outstanding cost by the observed completion
rate (units/second) to compute a defensible ``Retry-After``.

Backends scale the estimate down by their speedups over the reference
loop (:data:`BACKEND_SPEEDUP`: ``event`` runs the core loop 2.15x faster,
the committed geomean of ``BENCH_backends.json``); shard spans scale it by
the fraction of the trace they cover.  A backend not in the table gets
the reference charge of 1.0 — overestimating is the safe direction for
admission control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..estimate import epochs_per_inst
from ..workloads import WORKLOADS, WorkloadProfile

if TYPE_CHECKING:
    from ..engine.runner import JobSpec
    from ..harness.experiment import ExperimentSettings

__all__ = [
    "BACKEND_SPEEDUP",
    "CostEstimate",
    "backend_speedup",
    "epochs_per_inst",
    "estimate_job_cost",
]

#: Relative per-instruction charges (dimensionless; calibrated so one
#: reference-backend instruction ~ 1 unit on an average profile).
_BASE_PER_INST = 0.55
_EPOCH_CHARGE = 14.0
_MISS_CHARGE = 6.0
_LOCK_CHARGE = 3.0

#: Core-loop throughput multipliers by effective backend (reference = 1):
#: the instructions/sec geomean ratios committed in BENCH_backends.json.
BACKEND_SPEEDUP: Dict[str, float] = {
    "reference": 1.0,
    "event": 2.15,
}


def backend_speedup(backend: str) -> float:
    """The speedup for one *backend*; 1.0 (reference charge) if unknown."""
    return BACKEND_SPEEDUP.get(backend, 1.0)


@dataclass(frozen=True)
class CostEstimate:
    """Predicted resource demand of one engine job.

    ``units`` is the scalar the router balances on; the component fields
    exist so ``mlpsim fleet status`` and tests can explain *why* a job was
    judged expensive.
    """

    units: float
    instructions: int
    predicted_epochs: float
    predicted_misses: float
    backend: str = "reference"

    def scaled(self, factor: float) -> "CostEstimate":
        return CostEstimate(
            units=self.units * factor,
            instructions=int(self.instructions * factor),
            predicted_epochs=self.predicted_epochs * factor,
            predicted_misses=self.predicted_misses * factor,
            backend=self.backend,
        )


# The epoch model itself is canonical in repro.estimate (the `estimate`
# verb); the top-of-module import above re-exports it so cost callers
# and tests keep their import path.


def _misses_per_inst(profile: WorkloadProfile) -> float:
    return (
        profile.store_miss_per_100
        + profile.load_miss_per_100
        + profile.inst_miss_per_100
    ) / 100.0


def estimate_job_cost(
    spec: "JobSpec",
    settings: "ExperimentSettings",
    profile: Optional[WorkloadProfile] = None,
) -> CostEstimate:
    """Estimate the cost of executing *spec* under *settings*.

    Pure arithmetic on published workload statistics — no trace is read,
    no simulation runs.  Shard spans (``shard_start``/``shard_stop``)
    prorate the whole-trace estimate by the span's share of the trace.
    """
    if profile is None:
        profile = WORKLOADS.get(spec.workload)
    total = max(1, settings.total)
    if profile is None:
        # Unknown workload (custom profile not registered here): charge a
        # neutral average so routing still balances by span length.
        per_inst = _BASE_PER_INST + _EPOCH_CHARGE * 0.004 + _MISS_CHARGE * 0.02
        epochs = 0.004 * total
        misses = 0.02 * total
    else:
        epi = epochs_per_inst(profile)
        mpi = _misses_per_inst(profile)
        per_inst = (
            _BASE_PER_INST
            + _EPOCH_CHARGE * epi
            + _MISS_CHARGE * mpi
            + _LOCK_CHARGE * (profile.locks_per_1000 / 1000.0)
        )
        epochs = epi * total
        misses = mpi * total

    backend = spec.effective_backend()
    speedup = backend_speedup(backend)
    if spec.action == "annotate":
        # Cache warming is generation + annotation, no simulation loop:
        # charge the base bookkeeping only.
        units = _BASE_PER_INST * total
        return CostEstimate(
            units=units, instructions=total,
            predicted_epochs=0.0, predicted_misses=misses, backend=backend,
        )
    estimate = CostEstimate(
        units=per_inst * total / speedup,
        instructions=total,
        predicted_epochs=epochs,
        predicted_misses=misses,
        backend=backend,
    )
    start = spec.shard_start if spec.shard_start >= 0 else 0
    stop = spec.shard_stop if spec.shard_stop >= 0 else total
    span = max(0, min(stop, total) - start)
    if span and span < total:
        estimate = estimate.scaled(span / total)
    return estimate
