"""Differential tests: the cache and hierarchy against brute-force models.

``SetAssociativeCache`` keeps each set as one recency-ordered dict and
``MemorySystem`` classifies accesses without allocating.  Both are checked
here, operation by operation over seeded random streams, against the
plainest possible models: a list per set with the least recently used line
first, and a memory system written straight from the paper's write
policies on top of it.  Every hit, victim, evicted dirty copy, outcome and
counter must agree.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.config import CacheConfig, MemoryConfig, SmacConfig
from repro.memory import (
    HitLevel,
    MemorySystem,
    MesiState,
    SetAssociativeCache,
    StoreMissAccelerator,
)
from repro.memory.hierarchy import HierarchyStats

M, E, S = MesiState.MODIFIED, MesiState.EXCLUSIVE, MesiState.SHARED


class ListLru:
    """One list of ``[tag, dirty, state]`` per set, least recent first."""

    def __init__(self, config: CacheConfig) -> None:
        self.line_bytes = config.line_bytes
        self.num_sets = config.num_sets
        self.ways = config.associativity
        self.sets = [[] for _ in range(self.num_sets)]
        self.stats = dict.fromkeys(
            ("read_hits", "read_misses", "write_hits", "write_misses",
             "evictions", "writebacks", "snoop_invalidates"), 0,
        )

    def _locate(self, address):
        line = address // self.line_bytes
        ways = self.sets[line % self.num_sets]
        tag = line // self.num_sets
        for position, entry in enumerate(ways):
            if entry[0] == tag:
                return ways, tag, position
        return ways, tag, None

    def _address(self, address, tag):
        """The line address of *tag* in the set *address* maps to."""
        set_index = address // self.line_bytes % self.num_sets
        return (tag * self.num_sets + set_index) * self.line_bytes

    def lookup(self, address, write=False):
        ways, _, position = self._locate(address)
        kind = "write" if write else "read"
        if position is None:
            self.stats[f"{kind}_misses"] += 1
            return None
        entry = ways.pop(position)
        ways.append(entry)
        if write:
            entry[1], entry[2] = True, M
        self.stats[f"{kind}_hits"] += 1
        return entry

    def probe(self, address):
        ways, _, position = self._locate(address)
        return None if position is None else ways[position]

    def fill(self, address, state=E, dirty=False):
        ways, tag, position = self._locate(address)
        if position is not None:
            entry = ways.pop(position)
            entry[1], entry[2] = entry[1] or dirty, state
            ways.append(entry)
            return None
        evicted = None
        if len(ways) == self.ways:
            victim = ways.pop(0)
            self.stats["evictions"] += 1
            self.stats["writebacks"] += victim[1]
            evicted = (self._address(address, victim[0]), victim[1], victim[2])
        ways.append([tag, dirty, state])
        return evicted

    def invalidate(self, address):
        ways, _, position = self._locate(address)
        if position is None:
            return None
        self.stats["snoop_invalidates"] += 1
        return ways.pop(position)


def _view(line):
    """A real cache line as ``(dirty, state)``, or None."""
    return None if line is None else (line.dirty, line.state)


def _model_view(entry):
    return None if entry is None else (entry[1], entry[2])


GEOMETRIES = [
    CacheConfig(64, 1, 64),          # one line
    CacheConfig(256, 1, 64),         # direct mapped
    CacheConfig(256, 4, 64),         # fully associative
    CacheConfig(512, 2, 64),
    CacheConfig(2048, 4, 32),
    CacheConfig(4096, 8, 64),
]


@pytest.mark.parametrize("config", GEOMETRIES, ids=lambda c: (
    f"{c.size_bytes}B-{c.associativity}way-{c.line_bytes}B"
))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cache_matches_list_lru(config, seed):
    rng = random.Random(seed)
    cache = SetAssociativeCache(config)
    model = ListLru(config)
    # A few more distinct lines than the cache holds, so sets overflow.
    lines = [rng.randrange(1 << 20) * config.line_bytes
             for _ in range(2 * config.num_lines + 3)]
    for step in range(3000):
        address = rng.choice(lines) + rng.randrange(config.line_bytes)
        op = rng.random()
        where = f"step {step}"
        if op < 0.3:
            assert (_view(cache.lookup(address))
                    == _model_view(model.lookup(address))), where
        elif op < 0.45:
            assert (_view(cache.lookup(address, write=True))
                    == _model_view(model.lookup(address, write=True))), where
        elif op < 0.55:
            assert (_view(cache.probe(address))
                    == _model_view(model.probe(address))), where
        elif op < 0.85:
            state = rng.choice((M, E, S))
            dirty = rng.random() < 0.4
            evicted = cache.fill(address, state, dirty)
            expected = model.fill(address, state, dirty)
            if expected is None:
                assert evicted is None, where
            else:
                evicted_address, victim = evicted
                assert (evicted_address, victim.dirty, victim.state) \
                    == expected, where
        else:
            assert (_view(cache.invalidate(address))
                    == _model_view(model.invalidate(address))), where
        assert dataclasses.asdict(cache.stats) == model.stats, where
    resident = sorted(
        (entry[0] * model.num_sets + index) * config.line_bytes
        for index, ways in enumerate(model.sets) for entry in ways
    )
    assert sorted(cache.resident_lines()) == resident
    assert cache.occupancy() == len(resident)


def test_invalidate_then_refill_keeps_recency_order():
    """A refilled line is most recent; the survivors keep their order."""
    config = CacheConfig(256, 4, 64)  # one set of four ways
    cache = SetAssociativeCache(config)
    model = ListLru(config)
    a, b, c, d, e, f = (i * 64 for i in range(6))
    for address in (a, b, c, d):
        cache.fill(address)
        model.fill(address)
    cache.lookup(a)
    model.lookup(a)                      # recency: b c d a
    assert _view(cache.invalidate(c)) == _model_view(model.invalidate(c))
    assert cache.fill(e) is None         # reuses the freed way
    assert model.fill(e) is None         # recency: b d a e
    assert cache.fill(c)[0] == model.fill(c)[0] == b
    assert cache.fill(f)[0] == model.fill(f)[0] == d
    assert sorted(cache.resident_lines()) == sorted((a, c, e, f))
    assert dataclasses.asdict(cache.stats) == model.stats


class ReferenceMemory:
    """The paper's write policies over :class:`ListLru` caches.

    Write-through, no-write-allocate L1D; write-back, write-allocate L2
    with MESI states; L1s inclusive in the L2; a Modified L2 victim hands
    its ownership to the SMAC.
    """

    def __init__(self, config: MemoryConfig, single_chip: bool) -> None:
        self.config = config
        self.single_chip = single_chip
        self.l1i = ListLru(config.l1i)
        self.l1d = ListLru(config.l1d)
        self.l2 = ListLru(config.l2)
        self.smac = (StoreMissAccelerator(config.smac)
                     if config.smac is not None else None)
        self.stats = dict.fromkeys(
            (field.name for field in dataclasses.fields(HierarchyStats)), 0,
        )
        self.last_fetch_line = -1

    def _line(self, address):
        return address - address % self.config.l2.line_bytes

    def _outcome(self, level, smac_hit=False, upgrade=False):
        latency = {
            HitLevel.L1: self.config.l1_latency,
            HitLevel.L2: self.config.l2_latency,
            HitLevel.MEMORY: self.config.memory_latency,
        }[level]
        return (level, latency, smac_hit, upgrade)

    def _fill_l2(self, line, state, dirty=False):
        evicted = self.l2.fill(line, state, dirty)
        if evicted is None:
            return
        address, _, victim_state = evicted
        self.l1d.invalidate(address)
        self.l1i.invalidate(address)
        if victim_state is M and self.smac is not None:
            self.smac.on_modified_evict(address)

    def fetch(self, pc):
        self.stats["instructions"] += 1
        line = self._line(pc)
        if line == self.last_fetch_line:
            return (HitLevel.L1, 0, False, False)
        self.last_fetch_line = line
        self.stats["fetches"] += 1
        if self.l1i.lookup(line) is not None:
            return self._outcome(HitLevel.L1)
        if self.l2.lookup(line) is not None:
            self.l1i.fill(line)
            return self._outcome(HitLevel.L2)
        self.stats["fetch_l2_misses"] += 1
        self._fill_l2(line, E)
        self.l1i.fill(line)
        return self._outcome(HitLevel.MEMORY)

    def load(self, address):
        self.stats["loads"] += 1
        line = self._line(address)
        if self.l1d.lookup(line) is not None:
            return self._outcome(HitLevel.L1)
        if self.l2.lookup(line) is not None:
            self.l1d.fill(line)
            return self._outcome(HitLevel.L2)
        self.stats["load_l2_misses"] += 1
        self._fill_l2(line, E)
        self.l1d.fill(line)
        return self._outcome(HitLevel.MEMORY)

    def store(self, address):
        self.stats["stores"] += 1
        line = self._line(address)
        self.l1d.lookup(line, write=True)
        entry = self.l2.probe(line)
        state = None if entry is None else entry[2]
        if state is not None:
            self.l2.lookup(line, write=True)
            if state is not S:
                return self._outcome(HitLevel.L2)
            self.stats["store_l2_misses"] += 1
            self.stats["store_upgrades"] += 1
            return self._outcome(HitLevel.MEMORY, upgrade=True)
        self.stats["store_l2_misses"] += 1
        smac_hit = self.single_chip
        if not smac_hit and self.smac is not None:
            probe = self.smac.probe_store(address)
            smac_hit = probe.hit
            self.stats["smac_invalidated_hits"] += probe.invalidated_hit
        self.stats["smac_hits"] += smac_hit
        self._fill_l2(line, M, dirty=True)
        return self._outcome(HitLevel.MEMORY, smac_hit=smac_hit)

    def snoop_store(self, address):
        line = self._line(address)
        dropped = self.l2.invalidate(line)
        if dropped is not None:
            self.l2.stats["writebacks"] += dropped[1]  # a dirty line
        for cache in (self.l1d, self.l1i):
            cache.invalidate(line)
        if self.smac is not None and self.smac.snoop(address):
            self.stats["smac_coherence_invalidates"] += 1

    def snoop_load(self, address):
        entry = self.l2.probe(self._line(address))
        if entry is not None:
            self.l2.stats["writebacks"] += entry[1]  # a dirty line
            entry[1], entry[2] = False, S
        if self.smac is not None and self.smac.snoop(address):
            self.stats["smac_coherence_invalidates"] += 1

    def reset_stats(self):
        for counters in (self.stats, self.l1i.stats, self.l1d.stats,
                         self.l2.stats):
            for name in counters:
                counters[name] = 0
        if self.smac is not None:
            self.smac.stats.reset()


SMALL = MemoryConfig(
    l1i=CacheConfig(512, 2),
    l1d=CacheConfig(512, 2),
    l2=CacheConfig(2048, 4),
    smac=SmacConfig(entries=8, line_bytes=256, associativity=2),
)


@pytest.mark.parametrize("config,single_chip", [
    (SMALL, False),
    (SMALL, True),
    (dataclasses.replace(SMALL, smac=None), False),
], ids=["smac", "single-chip", "no-smac"])
@pytest.mark.parametrize("seed", [5, 6])
def test_memory_system_matches_reference(config, single_chip, seed):
    rng = random.Random(seed)
    memory = MemorySystem(config, single_chip=single_chip)
    model = ReferenceMemory(config, single_chip)
    lines = [0x100000 + 64 * rng.randrange(160) for _ in range(96)]
    pc = 0x4000
    upgrades = 0
    for step in range(6000):
        op = rng.random()
        address = rng.choice(lines) + 8 * rng.randrange(8)
        where = f"step {step}"
        if op < 0.3:
            pc = pc + 4 if rng.random() < 0.8 else rng.choice(lines)
            got, want = memory.fetch(pc), model.fetch(pc)
        elif op < 0.55:
            got, want = memory.load(address), model.load(address)
        elif op < 0.8:
            got, want = memory.store(address), model.store(address)
            upgrades += want[3]
        elif op < 0.9:
            memory.snoop_load(address)
            model.snoop_load(address)
            continue
        elif op < 0.998:
            memory.snoop_store(address)
            model.snoop_store(address)
            continue
        else:
            memory.reset_stats()
            model.reset_stats()
            continue
        assert (got.level, got.latency, got.smac_hit, got.upgrade) == want, \
            where
        assert got.off_chip is (want[0] is HitLevel.MEMORY), where
        assert dataclasses.asdict(memory.stats) == model.stats, where
        for name in ("l1i", "l1d", "l2"):
            assert (dataclasses.asdict(getattr(memory, name).stats)
                    == getattr(model, name).stats), (where, name)
        if model.smac is not None:
            assert memory.smac.stats == model.smac.stats, where
    assert upgrades > 0  # the stream reaches the Shared-upgrade path


def test_store_to_a_line_left_shared_by_snoop_load_is_an_upgrade():
    """The L2 state is read before the write marks the line Modified."""
    memory = MemorySystem(MemoryConfig())
    memory.store(0x80000)                 # M in the L2
    memory.snoop_load(0x80000)            # downgraded to S, clean
    outcome = memory.store(0x80008)       # same line
    assert outcome.off_chip and outcome.upgrade and not outcome.smac_hit
    assert memory.stats.store_upgrades == 1
    assert memory.l2.probe(0x80000).state is M
    again = memory.store(0x80010)         # now owned: an ordinary L2 hit
    assert again.level is HitLevel.L2 and not again.upgrade
    assert memory.stats.store_upgrades == 1
