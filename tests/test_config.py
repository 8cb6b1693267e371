"""Configuration validation and derived-value tests."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    BranchPredictorConfig,
    CacheConfig,
    ConsistencyModel,
    CoreConfig,
    MemoryConfig,
    ScoutMode,
    SimulationConfig,
    SmacConfig,
    StorePrefetchMode,
    SystemConfig,
)
from repro.errors import CacheGeometryError, ConfigError


class TestCacheConfig:
    def test_default_l2_geometry(self):
        config = CacheConfig(2 * 1024 * 1024, 4)
        assert config.num_sets == 8192
        assert config.num_lines == 32768

    def test_paper_l1_geometry(self):
        config = CacheConfig(32 * 1024, 4)
        assert config.num_sets == 128

    @pytest.mark.parametrize("size,assoc,line", [
        (0, 4, 64),
        (1024, 0, 64),
        (1024, 4, 48),     # line not a power of two
        (1000, 4, 64),     # not divisible into sets
    ])
    def test_rejects_bad_geometry(self, size, assoc, line):
        with pytest.raises(CacheGeometryError):
            CacheConfig(size, assoc, line)

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(CacheGeometryError):
            CacheConfig(3 * 64 * 4, 4, 64)  # 3 sets


class TestSmacConfig:
    def test_paper_example_dimensions(self):
        """8K entries, 2048B lines, 32-way sub-blocked covers 16MB at 64KB."""
        config = SmacConfig(entries=8192)
        assert config.sub_blocks_per_line == 32
        assert config.coverage_bytes == 16 * 1024 * 1024
        assert config.storage_bits == 8192 * 64  # 64KB exactly

    def test_rejects_sub_block_larger_than_line(self):
        with pytest.raises(ConfigError):
            SmacConfig(line_bytes=64, sub_block_bytes=128)

    def test_rejects_non_divisible_associativity(self):
        with pytest.raises(ConfigError):
            SmacConfig(entries=100, associativity=8)


class TestCoreConfig:
    def test_paper_defaults(self):
        core = CoreConfig()
        assert core.rob == 64
        assert core.issue_window == 32
        assert core.store_buffer == 16
        assert core.store_queue == 32
        assert core.load_buffer == 64
        assert core.coalesce_bytes == 8
        assert core.store_prefetch is StorePrefetchMode.AT_RETIRE
        assert core.consistency is ConsistencyModel.PC
        assert core.scout is ScoutMode.NONE

    def test_rob_must_cover_issue_window(self):
        with pytest.raises(ConfigError):
            CoreConfig(rob=16, issue_window=32)

    def test_coalesce_zero_means_off(self):
        assert CoreConfig(coalesce_bytes=0).coalesce_bytes == 0

    def test_coalesce_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            CoreConfig(coalesce_bytes=12)

    def test_with_returns_modified_copy(self):
        core = CoreConfig()
        changed = core.with_(store_queue=64)
        assert changed.store_queue == 64
        assert core.store_queue == 32

    def test_with_coerces_enum_spellings(self):
        # Wire spellings must land as the enum members, never as raw
        # strings (a str-valued scout silently matches no simulator path).
        changed = CoreConfig().with_(
            scout="hws1", consistency="wc", store_prefetch="sp2",
        )
        assert changed.scout is ScoutMode.HWS1
        assert changed.consistency is ConsistencyModel.WC
        assert changed.store_prefetch is StorePrefetchMode.AT_EXECUTE

    def test_with_rejects_bad_enum_spelling(self):
        with pytest.raises(ConfigError, match="none, hws0, hws1, hws2"):
            CoreConfig().with_(scout="turbo")


class TestMemoryConfig:
    def test_latency_ordering_enforced(self):
        with pytest.raises(ConfigError):
            MemoryConfig(l1_latency=20, l2_latency=15)

    def test_l1d_l2_line_sizes_must_match(self):
        with pytest.raises(ConfigError):
            MemoryConfig(l1d=CacheConfig(32 * 1024, 4, line_bytes=32))


class TestSystemConfig:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigError):
            SystemConfig(nodes=0)


class TestSimulationConfig:
    def test_scout_depth_scales_with_cpi(self):
        fast = SimulationConfig(cpi_on_chip=1.0)
        slow = SimulationConfig(cpi_on_chip=2.0)
        assert fast.scout_depth == 500
        assert slow.scout_depth == 250

    def test_latency_instructions_floor(self):
        config = dataclasses.replace(SimulationConfig(), cpi_on_chip=10_000.0)
        assert config.latency_instructions == 1

    def test_with_core_sweep_idiom(self):
        config = SimulationConfig().with_core(store_queue=256)
        assert config.core.store_queue == 256

    def test_with_memory(self):
        config = SimulationConfig().with_memory(memory_latency=1000)
        assert config.memory.memory_latency == 1000
        assert config.latency_instructions == 1000

    def test_rejects_nonpositive_cpi(self):
        with pytest.raises(ConfigError):
            SimulationConfig(cpi_on_chip=0.0)


class TestBranchPredictorConfig:
    def test_history_must_fit_index(self):
        with pytest.raises(ConfigError):
            BranchPredictorConfig(gshare_entries=16, history_bits=8)

    def test_defaults_are_paper_sized(self):
        config = BranchPredictorConfig()
        assert config.gshare_entries == 64 * 1024
        assert config.btb_entries == 16 * 1024
        assert config.ras_entries == 16


class TestCoreConfigWith:
    """``CoreConfig.with_``: every enum-knob error names the knob."""

    def test_wire_spellings_convert(self):
        core = CoreConfig().with_(
            scout="hws2", consistency="wc", store_prefetch="sp0",
        )
        assert core.scout is ScoutMode.HWS2
        assert core.consistency is ConsistencyModel.WC
        assert core.store_prefetch is StorePrefetchMode.NONE

    def test_enum_members_pass_through(self):
        core = CoreConfig().with_(scout=ScoutMode.HWS1)
        assert core.scout is ScoutMode.HWS1

    def test_bad_spelling_names_the_knob(self):
        with pytest.raises(ConfigError) as err:
            CoreConfig().with_(scout="warp")
        message = str(err.value)
        assert message.startswith("scout must be one of:")
        assert "hws2" in message and "'warp'" in message

    def test_non_string_value_names_the_knob(self):
        with pytest.raises(ConfigError) as err:
            CoreConfig().with_(consistency=3)
        message = str(err.value)
        assert message.startswith("consistency must be one of:")
        assert "pc, wc" in message and "got 3" in message

    def test_wrong_enum_member_names_the_knob(self):
        with pytest.raises(ConfigError) as err:
            CoreConfig().with_(store_prefetch=ScoutMode.HWS2)
        assert str(err.value).startswith("store_prefetch must be one of:")

    def test_non_enum_knobs_replace_normally(self):
        assert CoreConfig().with_(store_queue=64).store_queue == 64
