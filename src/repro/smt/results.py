"""Per-context and aggregate results of one SMT multi-context run.

:class:`SmtResult` is shaped to drop into every consumer a
:class:`~repro.core.results.SimulationResult` already has: the headline
aggregate properties (``epi_per_1000``, ``mlp``, ``store_mlp``,
``store_overlap_fraction``, ``store_bandwidth_overhead``) carry the same
names and units, so sweep records and the CLI summary work unchanged
on multi-context runs.  On top it adds the multiprogram
metrics the scheduling literature compares policies by:

- **STP** (system throughput, a.k.a. weighted speedup):
  ``sum_i(baseline_slots_i / turnaround_slots_i)`` — slots each context
  would need alone over slots it took under sharing; N contexts with no
  interference score N.
- **ANTT** (average normalized turnaround time):
  ``mean_i(turnaround_slots_i / baseline_slots_i)`` — lower is better,
  1.0 is interference-free.
- **fairness**: ``min_i(NTT_i) / max_i(NTT_i)`` — 1.0 when every context
  is slowed equally, approaching 0 as one context is starved.

Baselines come from standalone single-context runs of the same traces
(computed by the simulator driver), so the normalization is exact, not
modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.results import SimulationResult
from ..engine import serialize


@dataclass(frozen=True)
class SmtContextResult:
    """One hardware context's measurements within an SMT run."""

    cid: int
    workload: str
    result: SimulationResult
    #: Slots where this context owned the pipeline for an epoch step.
    slots_granted: int
    #: Slots absorbed while another context ran (misses matured for free).
    slots_absorbed: int
    #: Slots lost spinning on locks held by other contexts.
    spin_slots: int
    #: Slot (1-based count) at which this context finished its trace.
    turnaround_slots: int
    #: Slots the same trace needs running alone on this core.
    baseline_slots: int

    @property
    def epi_per_1000(self) -> float:
        return self.result.epi_per_1000

    @property
    def normalized_turnaround(self) -> float:
        """NTT: turnaround under sharing over standalone turnaround."""
        if self.baseline_slots == 0:
            return 0.0
        return self.turnaround_slots / self.baseline_slots


@dataclass(frozen=True)
class SmtResult:
    """Everything one N-context run measured."""

    scheduler: str
    contexts: Tuple[SmtContextResult, ...]
    #: Slots until the last context finished (the run's makespan).
    total_slots: int
    #: Cross-context SMAC demotions (stale trained entries).
    smac_invalidations: int
    #: Contended lock acquires across contexts.
    lock_contentions: int

    # -- SimulationResult-compatible aggregates ---------------------------

    @property
    def instructions(self) -> int:
        return sum(c.result.instructions for c in self.contexts)

    @property
    def epoch_count(self) -> int:
        return sum(c.result.epoch_count for c in self.contexts)

    @property
    def total_misses(self) -> int:
        return sum(c.result.total_misses for c in self.contexts)

    @property
    def epi_per_1000(self) -> float:
        insts = self.instructions
        if insts == 0:
            return 0.0
        return 1000.0 * self.epoch_count / insts

    @property
    def mlp(self) -> float:
        epochs = self.epoch_count
        if epochs == 0:
            return 0.0
        return self.total_misses / epochs

    @property
    def sb_occupancy_hwm(self) -> int:
        """Highest store-buffer high-water mark any context reached."""
        return max(
            (c.result.sb_occupancy_hwm for c in self.contexts), default=0,
        )

    @property
    def sq_occupancy_hwm(self) -> int:
        """Highest store-queue high-water mark any context reached."""
        return max(
            (c.result.sq_occupancy_hwm for c in self.contexts), default=0,
        )

    def termination_histogram(self):
        """Merged per-context epoch termination counts (telemetry hook)."""
        merged: dict = {}
        for context in self.contexts:
            for cond, count in context.result.termination_histogram().items():
                merged[cond] = merged.get(cond, 0) + count
        return merged

    @property
    def store_mlp(self) -> float:
        store_epochs = misses = 0
        for context in self.contexts:
            for epoch in context.result.epochs:
                if epoch.store_misses > 0:
                    store_epochs += 1
                    misses += epoch.store_misses
        if store_epochs == 0:
            return 0.0
        return misses / store_epochs

    @property
    def store_overlap_fraction(self) -> float:
        overlapped = sum(
            c.result.fully_overlapped_stores for c in self.contexts
        )
        total = overlapped + sum(
            c.result.store_miss_count + c.result.accelerated_stores
            for c in self.contexts
        )
        if total == 0:
            return 0.0
        return overlapped / total

    @property
    def store_bandwidth_overhead(self) -> float:
        committed = sum(c.result.stores_committed for c in self.contexts)
        if committed == 0:
            return 0.0
        prefetches = sum(
            c.result.store_prefetch_requests for c in self.contexts
        )
        return prefetches / committed

    # -- multiprogram metrics ---------------------------------------------

    @property
    def stp(self) -> float:
        """System throughput (weighted speedup); N = no interference."""
        return sum(
            c.baseline_slots / c.turnaround_slots
            for c in self.contexts if c.turnaround_slots > 0
        )

    @property
    def antt(self) -> float:
        """Average normalized turnaround time; 1.0 = no interference."""
        if not self.contexts:
            return 0.0
        return sum(
            c.normalized_turnaround for c in self.contexts
        ) / len(self.contexts)

    @property
    def fairness(self) -> float:
        """min/max of per-context normalized turnaround, in (0, 1]."""
        ntts = [c.normalized_turnaround for c in self.contexts if c.baseline_slots]
        if not ntts:
            return 0.0
        worst = max(ntts)
        if worst == 0:
            return 0.0
        return min(ntts) / worst

    # -- rendering ---------------------------------------------------------

    def summary(self) -> str:
        """Aggregate digest plus one line per context."""
        lines = [
            f"contexts={len(self.contexts)} scheduler={self.scheduler} "
            f"slots={self.total_slots} "
            f"(EPI/1000={self.epi_per_1000:.3f}, STP={self.stp:.3f}, "
            f"ANTT={self.antt:.3f}, fairness={self.fairness:.3f}, "
            f"smac_inval={self.smac_invalidations}, "
            f"lock_contention={self.lock_contentions})"
        ]
        for c in self.contexts:
            lines.append(
                f"  ctx{c.cid} {c.workload}: "
                f"EPI/1000={c.epi_per_1000:.3f} "
                f"turnaround={c.turnaround_slots} "
                f"(baseline={c.baseline_slots}, "
                f"NTT={c.normalized_turnaround:.3f}, "
                f"granted={c.slots_granted}, spin={c.spin_slots})"
            )
        return "\n".join(lines)


serialize.register(SmtContextResult, SmtResult)
