"""A generic set-associative cache with true-LRU replacement.

Addresses are mapped line -> set -> tag in the usual way.  Lines carry a
MESI state so the same structure serves the coherent L2 and the (stateless,
always-Exclusive-or-Invalid) L1s.  The cache never models data contents —
only presence and state — which is all miss classification needs.

Each set is one insertion-ordered ``dict`` of tag -> :class:`CacheLine`,
least recently used first: a hit moves its tag to the end, a fill inserts
at the end and an eviction pops the first key.  An invalidate deletes the
key, so a later fill takes its place without evicting.  The paper assumes
true LRU, the only policy modelled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..config import CacheConfig


class MesiState(enum.Enum):
    """Classic MESI stable states of a cached line.

    The transitions live in :class:`~repro.memory.hierarchy.MemorySystem`:
    local fills enter Exclusive, a store makes a line Modified, a remote
    read (:meth:`~repro.memory.hierarchy.MemorySystem.snoop_load`)
    downgrades it to Shared and a remote write invalidates it.
    """

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


@dataclass(slots=True)
class CacheLine:
    """State of one line a cache holds (presence is membership in a set)."""

    tag: int = 0
    dirty: bool = False
    state: MesiState = MesiState.INVALID


@dataclass
class CacheStats:
    """Hit/miss/eviction counters, split by access intent."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    snoop_invalidates: int = 0

    @property
    def accesses(self) -> int:
        return (self.read_hits + self.read_misses
                + self.write_hits + self.write_misses)

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_ratio(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        self.read_hits = self.read_misses = 0
        self.write_hits = self.write_misses = 0
        self.evictions = self.writebacks = self.snoop_invalidates = 0


class SetAssociativeCache:
    """Set-associative cache tracking line presence and MESI state."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._ways = config.associativity
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._set_bits = self._set_mask.bit_length()
        # One recency-ordered dict per set: tag -> line, LRU first.
        self._sets: List[Dict[int, CacheLine]] = [
            {} for _ in range(config.num_sets)
        ]
        self.stats = CacheStats()

    # -- address mapping ---------------------------------------------------

    def line_address(self, address: int) -> int:
        """Truncate *address* to its line base."""
        return address & ~(self.config.line_bytes - 1)

    def _index(self, address: int) -> Tuple[Dict[int, CacheLine], int]:
        """The set *address* maps to, and its tag."""
        line_number = address >> self._line_shift
        return (self._sets[line_number & self._set_mask],
                line_number >> self._set_bits)

    # -- core operations ----------------------------------------------------

    def lookup(self, address: int, write: bool = False) -> Optional[CacheLine]:
        """Access the cache; return the line on hit (recency updated)."""
        line_number = address >> self._line_shift
        ways = self._sets[line_number & self._set_mask]
        tag = line_number >> self._set_bits
        line = ways.pop(tag, None)
        if line is None:
            if write:
                self.stats.write_misses += 1
            else:
                self.stats.read_misses += 1
            return None
        ways[tag] = line  # most recently used
        if write:
            line.dirty = True
            line.state = _MODIFIED
            self.stats.write_hits += 1
        else:
            self.stats.read_hits += 1
        return line

    def probe(self, address: int) -> Optional[CacheLine]:
        """Check presence without recency or counter updates (for snoops)."""
        ways, tag = self._index(address)
        return ways.get(tag)

    def fill(
        self,
        address: int,
        state: MesiState = MesiState.EXCLUSIVE,
        dirty: bool = False,
    ) -> Optional[Tuple[int, CacheLine]]:
        """Install a line; return ``(evicted_line_address, line)`` if a
        resident line had to be displaced (for writeback / SMAC hand-off)."""
        line_number = address >> self._line_shift
        set_index = line_number & self._set_mask
        ways = self._sets[set_index]
        tag = line_number >> self._set_bits
        line = ways.pop(tag, None)
        if line is not None:
            # Re-fill of an already-present line just updates state.
            line.state = state
            line.dirty = line.dirty or dirty
            ways[tag] = line
            return None
        evicted: Optional[Tuple[int, CacheLine]] = None
        if len(ways) == self._ways:
            victim_tag = next(iter(ways))
            victim = ways.pop(victim_tag)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
            evicted = (self._rebuild_address(set_index, victim_tag), victim)
        ways[tag] = CacheLine(tag, dirty, state)
        return evicted

    def invalidate(self, address: int) -> Optional[CacheLine]:
        """Drop a line (snoop); return what was there, if present."""
        ways, tag = self._index(address)
        line = ways.pop(tag, None)
        if line is not None:
            self.stats.snoop_invalidates += 1
        return line

    def _rebuild_address(self, set_index: int, tag: int) -> int:
        line_number = (tag << self._set_bits) | set_index
        return line_number << self._line_shift

    # -- introspection -------------------------------------------------------

    def resident_lines(self) -> Iterator[int]:
        """Yield the address of every resident line (testing/diagnostics)."""
        for set_index, ways in enumerate(self._sets):
            for tag in ways:
                yield self._rebuild_address(set_index, tag)

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(ways) for ways in self._sets)


_MODIFIED = MesiState.MODIFIED
