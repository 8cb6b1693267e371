"""Trace stream utilities and statistics."""

from __future__ import annotations

import pytest

from repro.isa import Instruction, InstructionClass
from repro.trace import collect_statistics, materialize, take


def nops(n, pc_base=0):
    return [Instruction(InstructionClass.NOP, pc=pc_base + 4 * i) for i in range(n)]


class TestStream:
    def test_take_limits(self):
        assert len(list(take(nops(10), 3))) == 3

    def test_take_short_input(self):
        assert len(list(take(nops(2), 10))) == 2

    def test_materialize_is_identity_for_lists(self):
        trace = nops(5)
        assert materialize(trace) is trace

    def test_materialize_realizes_iterators(self):
        assert len(materialize(iter(nops(5)))) == 5


class TestStatistics:
    def test_mix_counts(self):
        trace = [
            Instruction(InstructionClass.LOAD, pc=0, address=8, dest=1),
            Instruction(InstructionClass.STORE, pc=4, address=16),
            Instruction(InstructionClass.BRANCH, pc=8, taken=True),
            Instruction(InstructionClass.CAS, pc=12, address=0,
                        lock_acquire=True),
            Instruction(InstructionClass.MEMBAR, pc=16),
            Instruction(InstructionClass.ALU, pc=20, dest=2),
        ]
        stats = collect_statistics(trace)
        assert stats.total == 6
        assert stats.mix.loads == 2      # LOAD + CAS
        assert stats.mix.stores == 2     # STORE + CAS
        assert stats.mix.branches == 1
        assert stats.mix.atomics == 1
        assert stats.mix.barriers == 1
        assert stats.mix.lock_acquires == 1

    def test_store_frequency_per_100(self):
        trace = nops(90) + [
            Instruction(InstructionClass.STORE, pc=0, address=8)
        ] * 10
        stats = collect_statistics(trace)
        assert stats.mix.store_frequency == pytest.approx(10.0)

    def test_empty_trace(self):
        stats = collect_statistics([])
        assert stats.total == 0
        assert stats.mix.store_frequency == 0.0
