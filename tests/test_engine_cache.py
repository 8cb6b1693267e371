"""The content-addressed artifact cache (repro.engine.cache)."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import pytest

from repro.config import MemoryConfig, SimulationConfig, StorePrefetchMode
from repro.engine.cache import (
    ArtifactCache,
    content_key,
    resolve_cache_dir,
    stable_token,
)


@dataclass(frozen=True)
class _Point:
    x: int
    y: float


class _Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


class TestStableToken:
    def test_scalars_round_trip(self):
        assert stable_token(None) == "None"
        assert stable_token(True) == "True"
        assert stable_token(42) == "42"
        assert stable_token("abc") == "'abc'"
        assert stable_token(0.1) == repr(0.1)

    def test_bool_and_int_do_not_collide(self):
        assert stable_token(True) != stable_token(1)
        assert stable_token(False) != stable_token(0)

    def test_enum_uses_name_not_value(self):
        assert stable_token(_Color.RED) == "_Color.RED"
        assert stable_token(StorePrefetchMode.AT_RETIRE) != stable_token(
            StorePrefetchMode.AT_EXECUTE
        )

    def test_dataclass_includes_every_field(self):
        token = stable_token(_Point(x=3, y=0.5))
        assert token == "_Point(x=3,y=0.5)"

    def test_dict_is_order_independent(self):
        assert stable_token({"a": 1, "b": 2}) == stable_token({"b": 2, "a": 1})

    def test_set_is_order_independent(self):
        assert stable_token({3, 1, 2}) == stable_token({2, 3, 1})

    def test_nested_config_objects_tokenize(self):
        # The real key inputs: frozen config dataclasses with enum fields.
        token = stable_token(SimulationConfig())
        assert "CoreConfig" in token
        assert stable_token(MemoryConfig()) != token

    def test_unstable_types_raise(self):
        with pytest.raises(TypeError):
            stable_token(object())

    def test_lambda_raises(self):
        with pytest.raises(TypeError):
            stable_token(lambda: None)


class TestContentKey:
    def test_deterministic(self):
        assert content_key("trace", 1, "pc") == content_key("trace", 1, "pc")

    def test_any_part_changes_key(self):
        base = content_key("trace", SimulationConfig(), 120_000, 7)
        assert content_key("trace", SimulationConfig(), 120_000, 8) != base
        assert content_key("annotation", SimulationConfig(), 120_000, 7) != base
        changed = SimulationConfig().with_core(store_queue=64)
        assert content_key("trace", changed, 120_000, 7) != base

    def test_key_is_hex_sha256(self):
        key = content_key("profile", 1)
        assert len(key) == 64
        int(key, 16)


class TestMemoryTier:
    def test_get_or_create_calls_factory_once(self):
        cache = ArtifactCache(None)
        calls = []
        for _ in range(3):
            value = cache.get_or_create("t", "k", lambda: calls.append(1) or [7])
        assert calls == [1]
        assert value == [7]
        assert cache.stats.memory_hits == 2
        assert cache.stats.misses == 1

    def test_preserves_object_identity_in_memory(self):
        cache = ArtifactCache(None)
        first = cache.get_or_create("t", "k", lambda: [1, 2])
        assert cache.get("t", "k") is first

    def test_lru_evicts_oldest(self):
        cache = ArtifactCache(None, memory_entries=2)
        cache.put("t", "a", 1)
        cache.put("t", "b", 2)
        cache.get("t", "a")  # refresh "a"; "b" is now oldest
        cache.put("t", "c", 3)
        assert cache.get("t", "b") is None
        assert cache.get("t", "a") == 1
        assert cache.stats.evictions == 1

    def test_kinds_are_separate_namespaces(self):
        cache = ArtifactCache(None)
        cache.put("trace", "k", "trace-value")
        cache.put("annotation", "k", "annotation-value")
        assert cache.get("trace", "k") == "trace-value"
        assert cache.get("annotation", "k") == "annotation-value"

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ArtifactCache(None, memory_entries=0)


class TestPersistentTier:
    def test_survives_a_new_cache_instance(self, tmp_path):
        first = ArtifactCache(tmp_path)
        first.put("trace", "deadbeef", {"payload": list(range(10))})
        second = ArtifactCache(tmp_path)
        assert second.get("trace", "deadbeef") == {"payload": list(range(10))}
        assert second.stats.disk_hits == 1

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("t", "k", [1])
        cache.clear_memory()
        cache.get("t", "k")
        cache.get("t", "k")
        assert cache.stats.disk_hits == 1
        assert cache.stats.memory_hits == 1

    def test_layout_shards_by_key_prefix(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("trace", "abcd1234", 1)
        assert (tmp_path / "trace" / "ab" / "abcd1234.mlpa").exists()
        assert cache._path("trace", "abcd1234") == (
            tmp_path / "trace" / "ab" / "abcd1234.mlpa"
        )

    def test_corrupt_entry_is_dropped_and_recomputed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("t", "k", [1])
        path = cache._path("t", "k")
        path.write_bytes(b"not a pickle")
        cache.clear_memory()
        assert cache.get_or_create("t", "k", lambda: "fresh") == "fresh"
        assert not path.read_bytes() == b"not a pickle"  # rewritten
        assert ArtifactCache(tmp_path).get("t", "k") == "fresh"

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("t", "k", list(range(1000)))
        path = cache._path("t", "k")
        path.write_bytes(path.read_bytes()[:10])
        cache.clear_memory()
        assert cache.get("t", "k") is None
        assert cache.stats.misses == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i in range(5):
            cache.put("t", f"key{i}", i)
        leftovers = list(tmp_path.rglob(".tmp-*"))
        assert leftovers == []

    def test_unpicklable_value_does_not_publish_partial_entry(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(Exception):
            cache.put("t", "k", lambda: None)  # lambdas don't pickle
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


class TestResolveCacheDir:
    def test_none_disables(self):
        assert resolve_cache_dir(None) is None

    def test_auto_uses_env_var(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert resolve_cache_dir("auto") == tmp_path / "env-cache"

    def test_auto_defaults_to_dot_repro_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(resolve_cache_dir("auto")) == ".repro-cache"

    def test_explicit_path_passes_through(self, tmp_path):
        assert resolve_cache_dir(tmp_path) == tmp_path


class TestCachedNoneRegression:
    def test_cached_none_is_a_hit_not_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def factory():
            calls.append(1)
            return None

        assert cache.get_or_create("t", "k", factory) is None
        assert cache.get_or_create("t", "k", factory) is None
        assert len(calls) == 1
        assert cache.stats.memory_hits == 1

    def test_cached_none_survives_memory_eviction(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def factory():
            calls.append(1)
            return None

        cache.get_or_create("t", "k", factory)
        cache.clear_memory()
        cache.get_or_create("t", "k", factory)
        assert len(calls) == 1
        assert cache.stats.disk_hits == 1


class TestDiskTier:
    def _filled(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i in range(4):
            cache.put("trace", f"tkey{i}", list(range(200)))
        for i in range(2):
            cache.put("annotation", f"akey{i}", {"i": i})
        return cache

    def test_disk_stats_counts_entries_and_bytes(self, tmp_path):
        cache = self._filled(tmp_path)
        stats = cache.disk_stats()
        assert stats.entries == 6
        assert stats.total_bytes > 0
        assert stats.by_kind["trace"][0] == 4
        assert stats.by_kind["annotation"][0] == 2
        assert sum(n for n, _ in stats.by_kind.values()) == stats.entries
        assert sum(b for _, b in stats.by_kind.values()) == stats.total_bytes

    def test_disk_stats_on_memory_only_cache(self):
        cache = ArtifactCache(None)
        cache.put("t", "k", 1)
        stats = cache.disk_stats()
        assert stats.entries == 0 and stats.total_bytes == 0

    def test_prune_to_max_bytes_evicts_oldest_first(self, tmp_path):
        import os

        cache = ArtifactCache(tmp_path)
        for i in range(4):
            cache.put("t", f"key{i}", list(range(500)))
            os.utime(cache._path("t", f"key{i}"), (1000.0 + i, 1000.0 + i))
        before = cache.disk_stats()
        target = before.total_bytes - 1  # forces at least one eviction
        result = cache.prune(max_bytes=target)
        assert result.removed_entries >= 1
        assert result.remaining_bytes <= target
        # oldest mtime went first
        assert not cache._path("t", "key0").exists()
        assert cache._path("t", "key3").exists()
        assert result.remaining_entries == cache.disk_stats().entries

    def test_prune_older_than_removes_only_stale(self, tmp_path):
        import os

        cache = ArtifactCache(tmp_path)
        cache.put("t", "old", 1)
        cache.put("t", "new", 2)
        old_path = cache._path("t", "old")
        os.utime(old_path, (100.0, 100.0))
        result = cache.prune(older_than=3600.0, now=100.0 + 7200.0)
        assert result.removed_entries == 1
        assert not old_path.exists()
        assert cache._path("t", "new").exists()

    def test_prune_noop_when_under_budget(self, tmp_path):
        cache = self._filled(tmp_path)
        result = cache.prune(max_bytes=10**9)
        assert result.removed_entries == 0
        assert result.remaining_entries == 6

    def test_pruned_entry_recomputes_cleanly(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("t", "k", "cold")
        cache.clear_memory()
        cache.prune(max_bytes=0)
        assert cache.get_or_create("t", "k", lambda: "fresh") == "fresh"


class TestPruneWriterRace:
    """Regression: prune raced a concurrent writer republishing a key.

    The prune listing is a snapshot; before the per-key writer lock a
    writer could republish an entry between the listing and the unlink,
    and prune would delete the *fresh* artifact.  Now the deletion
    re-stats under the key's lock and keeps any entry whose mtime moved.
    """

    def test_republished_entry_survives_stale_prune(self, tmp_path):
        import os

        cache = ArtifactCache(tmp_path)
        cache.put("t", "k", "old")
        stale_listing = cache._disk_entries()
        assert len(stale_listing) == 1
        path = stale_listing[0].path

        # a concurrent writer republishes the key after the listing; give
        # the fresh entry a visibly newer mtime than the listed one
        cache.put("t", "k", "new")
        os.utime(path, (stale_listing[0].mtime + 10,
                        stale_listing[0].mtime + 10))

        original = cache._disk_entries
        cache._disk_entries = lambda: stale_listing  # freeze the snapshot
        try:
            result = cache.prune(
                older_than=0.0, now=stale_listing[0].mtime + 5.0,
            )
        finally:
            cache._disk_entries = original

        assert result.removed_entries == 0
        assert path.exists()
        fresh = ArtifactCache(tmp_path)
        assert fresh.get("t", "k") == "new"

    def test_vanished_entry_counts_as_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("t", "k", "old")
        listing = cache._disk_entries()
        listing[0].path.unlink()  # concurrent removal after the listing
        original = cache._disk_entries
        cache._disk_entries = lambda: listing
        try:
            result = cache.prune(older_than=0.0, now=listing[0].mtime + 5.0)
        finally:
            cache._disk_entries = original
        assert result.removed_entries == 1

    def test_concurrent_put_and_prune_never_lose_the_latest(self, tmp_path):
        import threading

        cache = ArtifactCache(tmp_path)
        cache.put("t", "k", 0)
        stop = threading.Event()

        def writer():
            value = 1
            while not stop.is_set():
                cache.put("t", "k", value)
                value += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                cache.prune(max_bytes=0)
        finally:
            stop.set()
            thread.join()
        cache.put("t", "k", "final")
        assert ArtifactCache(tmp_path).get("t", "k") == "final"
