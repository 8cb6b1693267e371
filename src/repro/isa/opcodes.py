"""Instruction classes and their ordering semantics.

The epoch MLP model cares about a small taxonomy of instruction behaviour:
whether an instruction reads memory, writes memory or transfers control.
This module defines that taxonomy and its predicates.  What a serializing
class does under each memory consistency model is decided in one place,
the simulator's ``_serial_handlers`` table
(:class:`~repro.core.mlpsim.MlpSimulator`).

The SPARC TSO flavour contributes ``CAS`` (``casa``: an atomic load+store
used for lock acquisition) and ``MEMBAR``.  The PowerPC weak-consistency
flavour contributes ``LOAD_LOCKED``/``STORE_COND`` (``lwarx``/``stwcx``),
``ISYNC`` and ``LWSYNC``; these appear in traces after the lock rewriter has
converted TSO lock sequences into their WC equivalents.
"""

from __future__ import annotations

import enum


class InstructionClass(enum.Enum):
    """Dynamic instruction classes recognised by the simulator."""

    ALU = "alu"
    NOP = "nop"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    CALL = "call"
    RETURN = "return"
    CAS = "cas"                  # SPARC casa: atomic load+store, TSO-serializing
    MEMBAR = "membar"            # SPARC membar #StoreLoad etc.
    LOAD_LOCKED = "load_locked"  # PowerPC lwarx
    STORE_COND = "store_cond"    # PowerPC stwcx.
    ISYNC = "isync"              # PowerPC context-synchronizing barrier
    LWSYNC = "lwsync"            # PowerPC lightweight sync
    PREFETCH = "prefetch"        # software prefetch hint


_LOAD_LIKE = frozenset({
    InstructionClass.LOAD,
    InstructionClass.CAS,
    InstructionClass.LOAD_LOCKED,
})

_STORE_LIKE = frozenset({
    InstructionClass.STORE,
    InstructionClass.CAS,
    InstructionClass.STORE_COND,
})

_MEMORY = _LOAD_LIKE | _STORE_LIKE | {InstructionClass.PREFETCH}

_CONTROL = frozenset({
    InstructionClass.BRANCH,
    InstructionClass.CALL,
    InstructionClass.RETURN,
})


def is_load_like(kind: InstructionClass) -> bool:
    """True when the instruction reads memory (loads, atomics, lwarx)."""
    return kind in _LOAD_LIKE


def is_store_like(kind: InstructionClass) -> bool:
    """True when the instruction writes memory (stores, atomics, stwcx)."""
    return kind in _STORE_LIKE


def is_memory_access(kind: InstructionClass) -> bool:
    """True when the instruction accesses data memory at all."""
    return kind in _MEMORY


def is_control(kind: InstructionClass) -> bool:
    """True when the instruction redirects fetch."""
    return kind in _CONTROL
