"""Deterministic trace segmentation at epoch-safe boundaries.

A shard boundary must be a position the simulation passes through with no
machine state carried across it — otherwise a fresh simulator started on
the suffix would diverge.  Statically such positions cannot be recognized
(whether the store buffer is drained at position *p* depends on the whole
dynamics up to *p*), so cuts are chosen from the *quiescent log* of a real
run: every quiescent epoch boundary it passed (see
:func:`repro.core.window.is_quiescent`).  No run is made to get it.  A
sharded job whose log is not recorded yet runs as one whole-trace shard,
and that shard logs its quiescent boundaries as it goes
(:func:`repro.shard.execute.run_shard_job`), so the job's first run costs
one simulation and later runs of the same inputs split at the recorded
points.  Every backend logs the same points (the ``event`` backend never
skips an epoch boundary), so the record does not depend on which one ran.

The record is a ``shard-probe`` artifact keyed by the job's inputs
(:func:`probe_key`): the experiment settings plus the
:class:`~repro.engine.runner.JobSpec` without its shard bounds, label,
fault or backend.  It holds ``(trace length, points)``, so a planner —
the fleet coordinator included — reads it without loading the trace.

Exactness argument: at a quiescent boundary every comparison the simulator
will make from then on is either positional (and all recorded state is
strictly behind the cursor) or epoch-relative (and every register is usable
*now*, exactly like a fresh scoreboard).  A shard therefore runs a fresh
simulator over the **whole** trace with its cursor starting at the shard's
boundary — not a truncated slice, so window-termination checks and scout
lookahead near the next boundary see the same instructions the unsharded
run saw — and stops at the next planned boundary.  Epoch records carry no
absolute positions, so per-shard records equal the unsharded run's records
over the same span, field for field.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from ..engine import serialize
from ..engine.cache import content_key
from ..errors import ShardBoundaryError

if TYPE_CHECKING:
    from ..engine.runner import JobSpec
    from ..harness.experiment import ExperimentSettings

__all__ = ["PROBE_KIND", "ShardPlan", "build_plan", "probe_key"]

#: The artifact-cache kind of recorded quiescent logs.
PROBE_KIND = "shard-probe"


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic segmentation of one simulation's trace.

    ``cuts`` are strictly increasing positions in ``(0, instructions)``; the
    plan yields ``len(cuts) + 1`` shards.  When the trace offers fewer
    quiescent boundaries than ``requested - 1``, or none are recorded yet,
    the plan degrades to the boundaries that exist (never to an unsafe
    cut): ``shard_count`` may be smaller than ``requested``.
    """

    instructions: int
    requested: int
    cuts: Tuple[int, ...]

    @property
    def bounds(self) -> Tuple[int, ...]:
        return (0,) + self.cuts + (self.instructions,)

    @property
    def shards(self) -> Tuple[Tuple[int, int], ...]:
        """``(start, stop)`` half-open spans, in trace order."""
        bounds = self.bounds
        return tuple(
            (bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)
        )

    @property
    def shard_count(self) -> int:
        return len(self.cuts) + 1

    def describe(self) -> str:
        spans = " ".join(f"[{a}:{b})" for a, b in self.shards)
        return (
            f"{self.shard_count} shard(s) over {self.instructions} "
            f"insts: {spans}"
        )

    def validate(self) -> None:
        last = 0
        for cut in self.cuts:
            if not (last < cut < self.instructions):
                raise ShardBoundaryError(
                    f"shard plan cuts {self.cuts} are not strictly "
                    f"increasing within (0, {self.instructions})"
                )
            last = cut


def build_plan(
    instructions: int, points: List[Tuple[int, int]], shards: int,
) -> ShardPlan:
    """Choose cuts from recorded quiescent *points* nearest an even split.

    Deterministic: for each interior target ``i * n / shards`` the nearest
    quiescent position wins (ties break low); duplicates collapse, so
    boundary-starved traces yield fewer shards rather than unsafe cuts.
    """
    if shards < 1:
        raise ShardBoundaryError(f"shard count must be >= 1, got {shards}")
    candidates = sorted({pos for pos, _ in points if 0 < pos < instructions})
    cuts: List[int] = []
    if shards > 1 and candidates:
        chosen = set()
        for i in range(1, shards):
            target = i * instructions // shards
            best = min(candidates, key=lambda pos: (abs(pos - target), pos))
            chosen.add(best)
        cuts = sorted(chosen)
    plan = ShardPlan(
        instructions=instructions, requested=shards, cuts=tuple(cuts),
    )
    plan.validate()
    return plan


def probe_key(settings: "ExperimentSettings", spec: "JobSpec") -> str:
    """Where the quiescent log of the run *spec* describes is recorded.

    The log depends on what is simulated, not on how or in which pieces:
    shard bounds, label, fault and backend are left out of the key, and
    the knobs count in any order (the wire keeps the submitted order).
    """
    whole = dataclasses.replace(
        spec, shard_start=-1, shard_stop=-1, label="", fault="", backend="",
        core_changes=tuple(sorted(spec.core_changes)),
    )
    return content_key(PROBE_KIND, settings, whole)


serialize.register(ShardPlan)
