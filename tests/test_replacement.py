"""Replacement within one cache set: true LRU, the paper's policy."""

from __future__ import annotations

import pytest

from repro.config import CacheConfig
from repro.errors import ConfigError
from repro.memory import SetAssociativeCache


def one_set(ways: int):
    """A single-set cache of *ways* ways and its first ``ways + 1`` lines."""
    cache = SetAssociativeCache(CacheConfig(64 * ways, ways, 64))
    return cache, [64 * i for i in range(ways + 1)]


class TestLru:
    def test_victim_is_oldest_untouched(self):
        cache, lines = one_set(4)
        for line in lines[:4]:
            cache.fill(line)
        assert cache.fill(lines[4])[0] == lines[0]

    def test_touch_moves_to_mru(self):
        cache, lines = one_set(4)
        for line in lines[:4]:
            cache.fill(line)
        cache.lookup(lines[0])
        assert cache.fill(lines[4])[0] == lines[1]

    def test_reset_behaves_like_touch(self):
        """Re-filling a resident line makes it most recent, like a hit."""
        cache, lines = one_set(2)
        cache.fill(lines[0])
        cache.fill(lines[1])
        cache.fill(lines[0])
        assert cache.fill(lines[2])[0] == lines[1]

    def test_single_way(self):
        cache, lines = one_set(1)
        cache.fill(lines[0])
        cache.lookup(lines[0])
        assert cache.fill(lines[1])[0] == lines[0]


class TestFactory:
    """A set's geometry is checked when its cache is configured."""

    def test_zero_ways_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(64, 0, 64)
