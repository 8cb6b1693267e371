"""Deterministic trace segmentation at epoch-safe boundaries.

A shard boundary must be a position the simulation passes through with no
machine state carried across it — otherwise a fresh simulator started on
the suffix would diverge.  Statically such positions cannot be recognized
(whether the store buffer is drained at position *p* depends on the whole
dynamics up to *p*), so the segmenter runs one instrumented *probe*
simulation that logs every quiescent epoch boundary (see
:func:`repro.core.window.is_quiescent`), and cuts are chosen from that
log.  The probe costs one serial run per (configuration, trace) pair and is
cached as a ``shard-probe`` artifact, so a sweep of sharded runs — or a
re-run after a crash — pays it once.  The probe runs on the job's
execution backend: every backend logs the same quiescent points (the
``event`` backend never skips an epoch boundary), and the fast one turns
planning from one reference-speed simulation into one event-speed one.

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

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..config import SimulationConfig
from ..core.backend import resolve_backend
from ..engine import serialize
from ..engine.cache import content_key, stable_token
from ..errors import ShardBoundaryError
from ..memory.annotate import AnnotatedTrace

__all__ = [
    "ShardPlan",
    "build_plan",
    "probe_quiescent_points",
    "trace_fingerprint",
]


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic segmentation of one (trace, configuration) pair.

    ``cuts`` are strictly increasing positions in ``(0, instructions)``; the
    plan yields ``len(cuts) + 1`` shards.  When the trace offers fewer
    quiescent boundaries than ``requested - 1``, the plan degrades to the
    boundaries that exist (never to an unsafe cut): ``shard_count`` may be
    smaller than ``requested``.  ``config_key``/``trace_fingerprint``
    identify what was probed, so executing a plan against different inputs
    fails loudly instead of merging garbage.
    """

    instructions: int
    requested: int
    cuts: Tuple[int, ...]
    config_key: str = ""
    trace_fingerprint: str = ""

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


def probe_quiescent_points(
    trace: AnnotatedTrace,
    config: SimulationConfig,
    backend: Optional[str] = None,
) -> List[Tuple[int, int]]:
    """Every quiescent epoch boundary of one simulation, as (pos, cur).

    One full serial simulation of *trace* under *config* on *backend*
    (resolved like any job's: ``None`` means ``$REPRO_BACKEND`` or the
    default) — the cacheable half of shard planning.  The log does not
    depend on the backend, so neither does the ``shard-probe`` cache key.
    """
    log: List[Tuple[int, int]] = []
    resolve_backend(backend).simulate(config, trace, quiescent_log=log)
    return log


def build_plan(
    instructions: int,
    points: List[Tuple[int, int]],
    shards: int,
    config_key: str = "",
    fingerprint: str = "",
) -> ShardPlan:
    """Choose cuts from probed quiescent *points* nearest an even split.

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
        instructions=instructions,
        requested=shards,
        cuts=tuple(cuts),
        config_key=config_key,
        trace_fingerprint=fingerprint,
    )
    plan.validate()
    return plan


def trace_fingerprint(trace: AnnotatedTrace) -> str:
    """A cheap, stable identity for an annotated trace.

    Hashes the length plus a deterministic sample of (instruction,
    annotation) pairs — enough to tell traces apart without tokenizing
    hundreds of thousands of entries.  An :class:`AnnotatedTrace` keeps
    its fingerprint, so planning many jobs over one trace hashes it once.
    """
    fingerprint = getattr(trace, "fingerprint", None)
    if fingerprint is not None:
        return fingerprint
    n = len(trace)
    if n == 0:
        fingerprint = content_key("trace-fp", 0)
    else:
        step = max(1, n // 64)
        sample = [trace[i] for i in range(0, n, step)]
        sample.append(trace[-1])
        fingerprint = content_key("trace-fp", n, stable_token(sample))
    if isinstance(trace, AnnotatedTrace):
        trace.fingerprint = fingerprint
    return fingerprint


def plan_cache_key(
    config_key: str, fingerprint: str, extra: Optional[str] = None,
) -> str:
    """Artifact-cache key for a probe of one (configuration, trace) pair."""
    return content_key("shard-probe", config_key, fingerprint, extra)


serialize.register(ShardPlan)
