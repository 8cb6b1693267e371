"""Instruction-class semantics and the Instruction record."""

from __future__ import annotations

import pytest

from repro.config import ConsistencyModel, SimulationConfig
from repro.core.mlpsim import MlpSimulator
from repro.isa import (
    Instruction,
    InstructionClass,
    NUM_REGISTERS,
    RegisterAllocator,
    is_load_like,
    is_memory_access,
    is_store_like,
)
from repro.isa.opcodes import is_control
from repro.isa.registers import REG_ZERO


class TestClassification:
    @pytest.mark.parametrize("kind", [
        InstructionClass.LOAD, InstructionClass.CAS,
        InstructionClass.LOAD_LOCKED,
    ])
    def test_load_like(self, kind):
        assert is_load_like(kind)

    @pytest.mark.parametrize("kind", [
        InstructionClass.STORE, InstructionClass.CAS,
        InstructionClass.STORE_COND,
    ])
    def test_store_like(self, kind):
        assert is_store_like(kind)

    def test_cas_is_both_load_and_store(self):
        assert is_load_like(InstructionClass.CAS)
        assert is_store_like(InstructionClass.CAS)

    @pytest.mark.parametrize("kind", [
        InstructionClass.ALU, InstructionClass.BRANCH,
        InstructionClass.MEMBAR, InstructionClass.ISYNC,
    ])
    def test_non_memory(self, kind):
        assert not is_memory_access(kind)

    @pytest.mark.parametrize("kind", [
        InstructionClass.BRANCH, InstructionClass.CALL,
        InstructionClass.RETURN,
    ])
    def test_control(self, kind):
        assert is_control(kind)


class TestSerialization:
    def test_only_pc_barriers_drain_the_store_queue(self):
        """The paper's central asymmetry: casa/membar drain under PC; no
        WC barrier in the lock idiom drains the store queue.  The core
        decides drains through its per-model serializer handler table."""
        def draining(model):
            simulator = MlpSimulator(
                SimulationConfig().with_core(consistency=model)
            )
            return {
                kind for kind, handler in simulator._serial_handlers.items()
                if handler is MlpSimulator._handle_serializer_pc
            }

        assert draining(ConsistencyModel.PC) == {
            InstructionClass.CAS, InstructionClass.MEMBAR,
        }
        assert draining(ConsistencyModel.WC) == set()


class TestInstruction:
    def test_reads_filters_zero_register(self):
        inst = Instruction(
            InstructionClass.ALU, pc=0, srcs=(REG_ZERO, 5, -1, 7)
        )
        assert inst.reads() == (5, 7)

    def test_line_address(self):
        inst = Instruction(InstructionClass.LOAD, pc=0, address=0x12345)
        assert inst.line_address(64) == 0x12340

    def test_memory_properties(self):
        store = Instruction(InstructionClass.STORE, pc=0, address=8)
        assert store.is_store and not store.is_load and store.is_memory

    def test_str_is_informative(self):
        inst = Instruction(
            InstructionClass.CAS, pc=0x40, address=0x80,
            size=8, dest=3, lock_acquire=True,
        )
        text = str(inst)
        assert "cas" in text and "(acq)" in text


class TestRegisterAllocator:
    def test_never_allocates_zero_or_reserved(self):
        allocator = RegisterAllocator(reserve=4)
        seen = {allocator.fresh() for _ in range(500)}
        assert REG_ZERO not in seen
        assert not (seen & set(allocator.reserved))

    def test_rotation_covers_scratch_space(self):
        allocator = RegisterAllocator(reserve=4)
        seen = {allocator.fresh() for _ in range(NUM_REGISTERS * 2)}
        assert len(seen) == NUM_REGISTERS - 1 - 4

    def test_rejects_reserving_everything(self):
        with pytest.raises(ValueError):
            RegisterAllocator(reserve=NUM_REGISTERS)
