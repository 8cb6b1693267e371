"""Abstract trace instruction set.

The simulator is trace driven: it consumes streams of
:class:`~repro.isa.instruction.Instruction` records whose semantics are the
subset of SPARC V9 (TSO) and PowerPC Book E behaviour that matters to the
epoch MLP model — memory operations, control flow, atomics and memory
barriers.  Everything else is an opaque ALU operation with register
dependences.
"""

from .instruction import Instruction
from .opcodes import (
    InstructionClass,
    is_load_like,
    is_memory_access,
    is_store_like,
)
from .registers import NUM_REGISTERS, REG_NONE, RegisterAllocator

__all__ = [
    "Instruction",
    "InstructionClass",
    "NUM_REGISTERS",
    "REG_NONE",
    "RegisterAllocator",
    "is_load_like",
    "is_memory_access",
    "is_store_like",
]
