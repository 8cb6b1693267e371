"""MLPsim against the paper's worked examples (Section 3).

These are the ground truth for the epoch model: the paper states the exact
epoch sets and MLP for four code sequences under a 2-entry store buffer,
2-entry store queue configuration.
"""

from __future__ import annotations

import pytest

from repro.config import (
    ConsistencyModel,
    CoreConfig,
    SimulationConfig,
    StorePrefetchMode,
)
from repro.core import TerminationCondition, TriggerKind
from repro.core.backend import resolve_backend
from repro.isa import InstructionClass as IC

from conftest import annotated


def run(trace, backend="reference", **core_kwargs):
    defaults = dict(
        store_buffer=2,
        store_queue=2,
        store_prefetch=StorePrefetchMode.NONE,
        coalesce_bytes=0,
    )
    defaults.update(core_kwargs)
    config = SimulationConfig(core=CoreConfig(**defaults))
    return resolve_backend(backend).simulate(config, trace)


@pytest.fixture
def example1():
    """Missing store, four hit stores, missing load."""
    return [
        annotated(IC.STORE, miss=True, address=0x1000),
        annotated(IC.STORE, address=0x2000),
        annotated(IC.STORE, address=0x3000),
        annotated(IC.STORE, address=0x4000),
        annotated(IC.STORE, address=0x5000),
        annotated(IC.LOAD, miss=True, dest=5, address=0x6000),
    ]


class TestExample1:
    def test_pc_two_epochs(self, example1):
        result = run(example1)
        assert result.epoch_count == 2
        assert result.mlp == pytest.approx(1.0)

    def test_pc_first_epoch_is_store_buffer_full(self, example1):
        result = run(example1)
        first = result.epochs[0]
        assert first.trigger is TriggerKind.STORE
        assert first.termination is (
            TerminationCondition.STORE_QUEUE_STORE_BUFFER_FULL
        )
        assert first.store_misses == 1
        assert first.load_misses == 0

    def test_wc_single_epoch_with_both_misses(self, example1):
        result = run(example1, consistency=ConsistencyModel.WC)
        assert result.epoch_count == 1
        assert result.epochs[0].store_misses == 1
        assert result.epochs[0].load_misses == 1
        assert result.mlp == pytest.approx(2.0)


def serialized(serializer, miss=IC.STORE):
    """A missing store (or load), then *serializer*, then a missing load."""
    return [
        annotated(miss, miss=True, dest=4, address=0x1000),
        annotated(serializer, dest=7, address=0x9000),
        annotated(IC.LOAD, miss=True, dest=5, address=0x6000),
    ]


class TestExample2:
    """Missing store, serializing instruction, missing load."""

    @pytest.fixture
    def trace(self):
        return serialized(IC.MEMBAR)

    def test_two_epochs(self, trace):
        result = run(trace)
        assert result.epoch_count == 2
        assert result.mlp == pytest.approx(1.0)

    def test_first_epoch_store_serialize(self, trace):
        result = run(trace)
        assert result.epochs[0].termination is (
            TerminationCondition.STORE_SERIALIZE
        )
        assert result.epochs[0].store_misses == 1

    def test_load_issues_only_after_serializer_drains(self, trace):
        result = run(trace)
        assert result.epochs[1].load_misses == 1
        assert result.epochs[1].store_misses == 0


@pytest.mark.parametrize("backend", ["reference", "event"])
class TestExample2Serializers:
    """Example 2 with each serializing class under each consistency model:
    which ones end the epoch is the core's per-model handler table."""

    @pytest.mark.parametrize("serializer", [IC.CAS, IC.MEMBAR])
    def test_pc_casa_and_membar_drain_the_store(self, backend, serializer):
        result = run(serialized(serializer), backend)
        assert result.epoch_count == 2
        assert result.epochs[0].termination is (
            TerminationCondition.STORE_SERIALIZE
        )
        assert result.epochs[0].store_misses == 1
        assert result.epochs[1].load_misses == 1

    def test_wc_casa_does_not_end_the_epoch(self, backend):
        result = run(
            serialized(IC.CAS), backend, consistency=ConsistencyModel.WC,
        )
        assert result.epoch_count == 1
        assert result.epochs[0].store_misses == 1
        assert result.epochs[0].load_misses == 1

    def test_wc_isync_waits_for_a_missing_load(self, backend):
        result = run(
            serialized(IC.ISYNC, miss=IC.LOAD), backend,
            consistency=ConsistencyModel.WC,
        )
        assert result.epoch_count == 2
        assert result.epochs[0].termination is (
            TerminationCondition.OTHER_SERIALIZE
        )
        assert [e.load_misses for e in result.epochs] == [1, 1]

    def test_wc_isync_does_not_wait_for_a_missing_store(self, backend):
        result = run(
            serialized(IC.ISYNC), backend, consistency=ConsistencyModel.WC,
        )
        assert result.epoch_count == 1

    def test_pc_isync_executes_freely(self, backend):
        result = run(serialized(IC.ISYNC, miss=IC.LOAD), backend)
        assert result.epoch_count == 1
        assert result.epochs[0].load_misses == 2

    @pytest.mark.parametrize("model", list(ConsistencyModel))
    @pytest.mark.parametrize("miss", [IC.STORE, IC.LOAD])
    def test_lwsync_never_ends_the_epoch(self, backend, model, miss):
        result = run(
            serialized(IC.LWSYNC, miss=miss), backend, consistency=model,
        )
        assert result.epoch_count == 1


class TestExample3:
    """Missing load, missing store, missing instruction, missing store."""

    @pytest.fixture
    def trace(self):
        return [
            annotated(IC.LOAD, miss=True, dest=5, address=0x6000),
            annotated(IC.STORE, miss=True, address=0x1000),
            annotated(IC.ALU, imiss=True, dest=6),
            annotated(IC.STORE, miss=True, address=0x2000),
        ]

    def test_three_epochs_mlp(self, trace):
        result = run(trace)
        assert result.epoch_count == 3
        assert result.mlp == pytest.approx(4 / 3)

    def test_first_epoch_overlaps_load_and_inst_miss(self, trace):
        result = run(trace)
        first = result.epochs[0]
        assert first.load_misses == 1
        assert first.inst_misses == 1
        assert first.termination is TerminationCondition.INSTRUCTION_MISS

    def test_stores_commit_serially_without_prefetch(self, trace):
        result = run(trace)
        assert [e.store_misses for e in result.epochs] == [0, 1, 1]

    def test_prefetch_at_execute_overlaps_both_stores(self, trace):
        result = run(trace, store_prefetch=StorePrefetchMode.AT_EXECUTE)
        # I2's request issues at dispatch, overlapping the first epoch;
        # I4 executes after the I-miss resolves.
        assert result.epoch_count == 2
        assert result.epochs[0].store_misses == 1
        assert result.epochs[0].load_misses == 1


class TestExample4:
    """Three missing stores before a serializing instruction; SQ = 2."""

    @pytest.fixture
    def trace(self):
        return [
            annotated(IC.STORE, miss=True, address=0x1000),
            annotated(IC.STORE, miss=True, address=0x2000),
            annotated(IC.STORE, miss=True, address=0x3000),
            annotated(IC.MEMBAR),
        ]

    @pytest.mark.parametrize(
        "mode,expected_epochs,expected_profile",
        [
            (StorePrefetchMode.NONE, 3, [1, 1, 1]),
            (StorePrefetchMode.AT_RETIRE, 2, [2, 1]),
            (StorePrefetchMode.AT_EXECUTE, 1, [3]),
        ],
    )
    def test_prefetch_modes(self, trace, mode, expected_epochs, expected_profile):
        result = run(trace, store_prefetch=mode)
        assert result.epoch_count == expected_epochs
        assert [e.store_misses for e in result.epochs] == expected_profile

    def test_all_terminations_are_store_serialize(self, trace):
        result = run(trace)
        assert all(
            e.termination is TerminationCondition.STORE_SERIALIZE
            for e in result.epochs
        )


class TestExample5:
    """PC critical section: missing store, casa, missing load, missing
    store, ..., release store, missing load (paper Example 5)."""

    @pytest.fixture
    def trace(self):
        lock = 0x9000
        return [
            annotated(IC.STORE, miss=True, address=0x1000),
            annotated(IC.CAS, address=lock, dest=7, lock_acquire=True),
            annotated(IC.LOAD, miss=True, dest=8, address=0x6000),
            annotated(IC.STORE, miss=True, address=0x2000),
            annotated(IC.ALU, dest=9),
            annotated(IC.STORE, address=lock, lock_release=True),
            annotated(IC.LOAD, miss=True, dest=10, address=0x7000),
        ]

    def test_casa_blocks_on_missing_store(self, trace):
        result = run(trace, store_queue=8, store_buffer=8)
        assert result.epochs[0].termination is (
            TerminationCondition.STORE_SERIALIZE
        )
        assert result.epochs[0].store_misses == 1

    def test_critical_section_loads_overlap_after_acquire(self, trace):
        result = run(trace, store_queue=8, store_buffer=8)
        # Epoch 2 contains the casa plus both missing loads of the section,
        # including the post-section load that speculates above the release.
        second = result.epochs[1]
        assert second.load_misses == 2

    def test_section_store_joins_epoch_with_prefetch_at_execute(self, trace):
        # Under Sp0 the section's missing store commits in its own later
        # epoch; prefetch at execute overlaps it with the section's loads.
        sp0 = run(trace, store_queue=8, store_buffer=8)
        sp2 = run(
            trace,
            store_queue=8,
            store_buffer=8,
            store_prefetch=StorePrefetchMode.AT_EXECUTE,
        )
        assert sp2.epoch_count < sp0.epoch_count
        assert sp2.epochs[1].store_misses == 1
        assert sp2.epochs[1].load_misses == 2


class TestExample6:
    """WC critical section: isync does not wait for the store queue."""

    @pytest.fixture
    def trace(self):
        lock = 0x9000
        return [
            annotated(IC.STORE, miss=True, address=0x1000),
            annotated(IC.LOAD_LOCKED, address=lock, dest=7),
            annotated(IC.STORE_COND, address=lock, lock_acquire=True),
            annotated(IC.ISYNC),
            annotated(IC.LOAD, miss=True, dest=8, address=0x6000),
            annotated(IC.STORE, miss=True, address=0x2000),
            annotated(IC.LWSYNC),
            annotated(IC.STORE, address=lock, lock_release=True),
            annotated(IC.LOAD, miss=True, dest=10, address=0x7000),
        ]

    def test_single_epoch_under_wc(self, trace):
        result = run(
            trace,
            consistency=ConsistencyModel.WC,
            store_queue=8,
            store_buffer=8,
        )
        # Everything overlaps: the missing store before the lock, the
        # critical-section misses, and the post-section load.
        assert result.epoch_count == 1
        first = result.epochs[0]
        assert first.store_misses == 2
        assert first.load_misses == 2

    def test_pc_needs_more_epochs_than_wc(self, trace):
        wc = run(
            trace, consistency=ConsistencyModel.WC,
            store_queue=8, store_buffer=8,
        )
        pc_trace = [
            annotated(IC.STORE, miss=True, address=0x1000),
            annotated(IC.CAS, address=0x9000, dest=7, lock_acquire=True),
            annotated(IC.LOAD, miss=True, dest=8, address=0x6000),
            annotated(IC.STORE, miss=True, address=0x2000),
            annotated(IC.STORE, address=0x9000, lock_release=True),
            annotated(IC.LOAD, miss=True, dest=10, address=0x7000),
        ]
        pc = run(pc_trace, store_queue=8, store_buffer=8)
        assert pc.epoch_count > wc.epoch_count
