"""The per-core memory system: L1I + L1D + shared L2 (+ optional SMAC).

Write policies follow the paper's Section 2: the L1 data cache is
write-through and no-write-allocate, so a store's performance is determined
entirely by the shared L2; the L2 is write-back and write-allocate with MESI
state per line.  Cross-chip coherence arrives through :meth:`snoop_store` /
:meth:`snoop_load`, injected by the sharing model.

A store that misses the L2 (or hits it in Shared state and therefore needs a
cross-chip upgrade) is an *off-chip store miss*.  If a SMAC is configured and
owns the line, the store is accelerated: it still fetches data in the
background but commits without exposing the off-chip latency.  A single-chip
system (``single_chip=True``) behaves as if every store miss hits the SMAC,
because the lone L2 implicitly owns all of memory (paper Section 3.3.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

from ..config import MemoryConfig
from .cache import CacheStats, MesiState, SetAssociativeCache
from .smac import SmacStats, StoreMissAccelerator


class HitLevel(enum.Enum):
    """Where an access was satisfied."""

    L1 = "l1"
    L2 = "l2"
    MEMORY = "memory"


@dataclass(frozen=True, slots=True)
class AccessOutcome:
    """Classification of one memory access.

    ``off_chip`` is the property the epoch MLP model consumes.  ``smac_hit``
    marks an off-chip store miss whose invalidation penalty was hidden by the
    Store Miss Accelerator: it does not stall the store queue even though the
    data comes from memory.  ``upgrade`` marks a store that hit the L2 in
    Shared state and went off chip only for ownership.

    A :class:`MemorySystem` builds each distinct outcome once and returns
    the same object for every access it classifies alike.
    """

    level: HitLevel
    latency: int
    smac_hit: bool = False
    upgrade: bool = False
    off_chip: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "off_chip", self.level is HitLevel.MEMORY)


@dataclass
class HierarchyStats:
    """Counts for the paper's Table 1 (per-100-instruction miss rates)."""

    instructions: int = 0
    fetches: int = 0
    fetch_l2_misses: int = 0
    loads: int = 0
    load_l2_misses: int = 0
    stores: int = 0
    store_l2_misses: int = 0
    store_upgrades: int = 0
    smac_hits: int = 0
    smac_invalidated_hits: int = 0
    smac_coherence_invalidates: int = 0

    def per_100_instructions(self, count: int) -> float:
        if self.instructions == 0:
            return 0.0
        return 100.0 * count / self.instructions

    @property
    def store_miss_rate(self) -> float:
        """Off-chip store misses per 100 instructions (Table 1 row 2)."""
        return self.per_100_instructions(self.store_l2_misses)

    @property
    def load_miss_rate(self) -> float:
        """Off-chip load misses per 100 instructions (Table 1 row 3)."""
        return self.per_100_instructions(self.load_l2_misses)

    @property
    def inst_miss_rate(self) -> float:
        """Off-chip instruction misses per 100 instructions (Table 1 row 4)."""
        return self.per_100_instructions(self.fetch_l2_misses)

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


@dataclass(frozen=True)
class MemoryCounters:
    """The counters an annotation leaves behind, without the caches.

    ``stats`` feeds Table 1 and Figure 6, ``l1d`` the Table 3 estimate and
    ``smac`` (``None`` without a SMAC) the SMAC design-space example.  It is
    what the Workbench keeps and persists instead of the whole
    :class:`MemorySystem` with its tag arrays.
    """

    stats: HierarchyStats
    l1d: CacheStats
    smac: Optional[SmacStats] = None


class MemorySystem:
    """One core's view of the cache hierarchy.

    :meth:`fetch`, :meth:`load` and :meth:`store` run once per instruction
    of every annotated trace, so they return outcomes built here once and
    hold the attributes they touch in locals.
    """

    def __init__(
        self,
        config: MemoryConfig,
        single_chip: bool = False,
    ) -> None:
        self.config = config
        self.single_chip = single_chip
        self.l1i = SetAssociativeCache(config.l1i)
        self.l1d = SetAssociativeCache(config.l1d)
        self.l2 = SetAssociativeCache(config.l2)
        self.smac = (
            StoreMissAccelerator(config.smac) if config.smac is not None else None
        )
        self.stats = HierarchyStats()
        self._last_fetch_line = -1
        self._fetch_mask = ~(config.l1i.line_bytes - 1)
        self._load_mask = ~(config.l1d.line_bytes - 1)
        self._store_mask = ~(config.l2.line_bytes - 1)
        memory = config.memory_latency
        self._buffered = AccessOutcome(HitLevel.L1, 0)
        self._l1_hit = AccessOutcome(HitLevel.L1, config.l1_latency)
        self._l2_hit = AccessOutcome(HitLevel.L2, config.l2_latency)
        self._off_chip = AccessOutcome(HitLevel.MEMORY, memory)
        self._smac_hit = AccessOutcome(HitLevel.MEMORY, memory, smac_hit=True)
        self._upgrade = AccessOutcome(HitLevel.MEMORY, memory, upgrade=True)

    # -- instruction side ------------------------------------------------------

    def fetch(self, pc: int) -> AccessOutcome:
        """Fetch the instruction at *pc*; sequential same-line fetches
        reuse the line last fetched and never re-access the caches."""
        stats = self.stats
        stats.instructions += 1
        line = pc & self._fetch_mask
        if line == self._last_fetch_line:
            return self._buffered
        self._last_fetch_line = line
        stats.fetches += 1
        if self.l1i.lookup(line) is not None:
            return self._l1_hit
        if self.l2.lookup(line) is not None:
            self.l1i.fill(line, _EXCLUSIVE)
            return self._l2_hit
        stats.fetch_l2_misses += 1
        self._fill_l2(line, _EXCLUSIVE)
        self.l1i.fill(line, _EXCLUSIVE)
        return self._off_chip

    # -- data side ----------------------------------------------------------------

    def load(self, address: int) -> AccessOutcome:
        """Classify a data load."""
        self.stats.loads += 1
        line = address & self._load_mask
        l1d = self.l1d
        if l1d.lookup(line) is not None:
            return self._l1_hit
        if self.l2.lookup(line) is not None:
            l1d.fill(line, _EXCLUSIVE)
            return self._l2_hit
        self.stats.load_l2_misses += 1
        self._fill_l2(line, _EXCLUSIVE)
        l1d.fill(line, _EXCLUSIVE)
        return self._off_chip

    def store(self, address: int) -> AccessOutcome:
        """Classify a data store (write-through L1, write-allocate L2)."""
        stats = self.stats
        stats.stores += 1
        line = address & self._store_mask
        l2 = self.l2
        # Write-through, no-write-allocate L1: update on hit, never fill.
        self.l1d.lookup(line, write=True)
        existing = l2.probe(line)
        if existing is not None:
            # Read the state before the write marks the line Modified.
            owned = existing.state in _OWNED
            l2.lookup(line, write=True)
            if owned:
                return self._l2_hit
            # Hit in Shared state: ownership upgrade goes off chip.
            stats.store_l2_misses += 1
            stats.store_upgrades += 1
            return self._upgrade
        # True L2 store miss.
        stats.store_l2_misses += 1
        smac_hit = self.single_chip
        if not smac_hit and self.smac is not None:
            probe = self.smac.probe_store(address)
            smac_hit = probe.hit
            if probe.invalidated_hit:
                stats.smac_invalidated_hits += 1
        if smac_hit:
            stats.smac_hits += 1
        self._fill_l2(line, _MODIFIED, dirty=True)
        return self._smac_hit if smac_hit else self._off_chip

    # -- coherence side -----------------------------------------------------------

    def snoop_store(self, address: int) -> None:
        """A remote chip wrote *address*: invalidate everywhere.

        A dirty (Modified) L2 copy is written back before it is dropped.
        """
        line = self.l2.line_address(address)
        dropped = self.l2.invalidate(line)
        if dropped is not None and dropped.dirty:
            self.l2.stats.writebacks += 1
        self.l1d.invalidate(line)
        self.l1i.invalidate(line)
        if self.smac is not None and self.smac.snoop(address):
            self.stats.smac_coherence_invalidates += 1

    def snoop_load(self, address: int) -> None:
        """A remote chip read *address*: downgrade, surrender SMAC ownership.

        A dirty (Modified) L2 copy is written back as it becomes Shared.
        """
        line = self.l2.line_address(address)
        cached = self.l2.probe(line)
        if cached is not None:
            if cached.dirty:
                self.l2.stats.writebacks += 1
            cached.state = MesiState.SHARED
            cached.dirty = False
        if self.smac is not None and self.smac.snoop(address):
            self.stats.smac_coherence_invalidates += 1

    # -- helpers --------------------------------------------------------------------

    def _fill_l2(self, line: int, state: MesiState, dirty: bool = False) -> None:
        evicted = self.l2.fill(line, state, dirty)
        if evicted is None:
            return
        evicted_address, victim = evicted
        # An L1 copy of an evicted L2 line violates inclusion; drop it.
        self.l1d.invalidate(evicted_address)
        self.l1i.invalidate(evicted_address)
        if victim.state is _MODIFIED and self.smac is not None:
            # Data goes to memory; ownership is retained in the SMAC.
            self.smac.on_modified_evict(evicted_address)

    def counters(self) -> MemoryCounters:
        """A copy of the counters, detached from this memory system."""
        return MemoryCounters(
            stats=replace(self.stats),
            l1d=replace(self.l1d.stats),
            smac=replace(self.smac.stats) if self.smac is not None else None,
        )

    def reset_stats(self) -> None:
        """Clear all counters (end of warmup)."""
        self.stats.reset()
        self.l1i.stats.reset()
        self.l1d.stats.reset()
        self.l2.stats.reset()
        if self.smac is not None:
            self.smac.stats.reset()


_EXCLUSIVE = MesiState.EXCLUSIVE
_MODIFIED = MesiState.MODIFIED
_OWNED = (MesiState.MODIFIED, MesiState.EXCLUSIVE)
