"""Instruction classes and their ordering semantics.

The epoch MLP model cares about a small taxonomy of instruction behaviour:
whether an instruction reads memory, writes memory, transfers control, or
serializes the pipeline under a given memory consistency model.  This module
defines that taxonomy and the predicates the simulator uses.

The SPARC TSO flavour contributes ``CAS`` (``casa``: an atomic load+store
used for lock acquisition) and ``MEMBAR``.  The PowerPC weak-consistency
flavour contributes ``LOAD_LOCKED``/``STORE_COND`` (``lwarx``/``stwcx``),
``ISYNC`` and ``LWSYNC``; these appear in traces after the lock rewriter has
converted TSO lock sequences into their WC equivalents.
"""

from __future__ import annotations

import enum

from ..config import ConsistencyModel


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

# Instructions that terminate the window under processor consistency because
# they require the store buffer and store queue to drain before executing.
_PC_SERIALIZING = frozenset({
    InstructionClass.CAS,
    InstructionClass.MEMBAR,
})

# Under weak consistency, the casa/membar idiom is replaced by
# lwarx/stwcx/isync: isync waits only for the lock acquisition itself, and
# lwsync merely orders stores across it.  Neither drains the store queue, so
# neither is a *store*-serializing window termination.  ``stwcx`` still
# synchronizes the lock word, and ``isync`` discards speculative fetch; we
# model isync as serializing execution (but not store-queue drain).
_WC_SERIALIZING = frozenset({
    InstructionClass.ISYNC,
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


def is_serializing(kind: InstructionClass, model: ConsistencyModel) -> bool:
    """True when *kind* drains/serializes the pipeline under *model*.

    Under PC (TSO), ``casa`` and ``membar`` force all earlier stores to be
    performed before they execute.  Under WC, only ``isync`` serializes
    execution, and it does **not** wait for the store queue to drain — the
    distinction at the heart of the paper's PC-vs-WC gap.
    """
    if model is ConsistencyModel.PC:
        return kind in _PC_SERIALIZING
    return kind in _WC_SERIALIZING
