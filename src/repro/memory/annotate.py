"""One-pass miss classification of a trace.

The epoch MLP simulator (:mod:`repro.core.mlpsim`) is swept across dozens of
core configurations per figure, but the *miss stream* depends only on the
trace and the memory-side configuration.  ``annotate_trace`` therefore runs
the memory hierarchy, branch predictor and sharing model exactly once and
attaches an :class:`AccessInfo` to every measured instruction; the simulator
then replays the annotated trace cheaply under any core configuration.

This mirrors the paper's methodology split: MLPsim consumes a trace plus
microarchitecture parameters, with cache behaviour resolved up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Tuple

from ..frontend import BranchPredictor
from ..isa import Instruction
from ..isa.opcodes import InstructionClass
from .hierarchy import MemorySystem


class CoherenceTicker(Protocol):
    """Anything that injects remote coherence traffic between instructions.

    Structurally matched by :class:`repro.multiproc.MultiChipSystem`; kept as
    a protocol so the memory package does not depend on the multiprocessor
    package.
    """

    memory: MemorySystem

    def tick(self) -> None: ...


@dataclass(slots=True, frozen=True)
class AccessInfo:
    """Core-configuration-independent classification of one instruction.

    ``inst_miss``    — its fetch missed the L2 (off-chip instruction miss).
    ``data_miss``    — its data access missed the L2 (off-chip load/store).
    ``smac_hit``     — store miss whose latency the SMAC hides.
    ``upgrade``      — store hit the L2 in Shared state (ownership-only miss).
    ``mispredicted`` — control transfer the front end got wrong.
    """

    inst_miss: bool = False
    data_miss: bool = False
    smac_hit: bool = False
    upgrade: bool = False
    mispredicted: bool = False


class AnnotatedTrace(list):
    """The simulator's input form: measured instructions with their
    classification, as ``(Instruction, AccessInfo)`` pairs.

    A list that also owns the configuration-free data derived from it, so
    it is computed once per trace and freed with the trace:
    ``skip_tables``, the ``event`` backend's wakeup tables
    (:func:`repro.core.backends.events.build_skip_tables`), starts as
    ``None`` and is filled by its first user.  An annotated trace is not
    mutated after annotation.  Derived data never travels: a pickle
    carries only the pairs, and a slice is a plain list.
    """

    __slots__ = ("skip_tables",)

    def __init__(self, pairs: Iterable[Tuple[Instruction, AccessInfo]] = ()):
        super().__init__(pairs)
        self.skip_tables = None

    def __reduce__(self):
        return (AnnotatedTrace, (), None, iter(self))


#: The shared :class:`AccessInfo` for each 5-bit flag mask: bit 0
#: ``inst_miss``, 1 ``data_miss``, 2 ``smac_hit``, 3 ``upgrade``, 4
#: ``mispredicted``.  Annotated traces are held for the lifetime of a sweep
#: (and cached across sweep points), so every instruction classified alike
#: shares one immutable record.  The annotated-trace codec stores the same
#: masks.
ACCESS_BY_MASK: Tuple[AccessInfo, ...] = tuple(
    AccessInfo(*(bool(mask >> bit & 1) for bit in range(5)))
    for mask in range(32)
)
#: All flags clear: the record most instructions carry.
_NO_ACCESS = ACCESS_BY_MASK[0]
_DATA_MISS = 2
_MISPREDICTED = 16

_LOAD = InstructionClass.LOAD
_LOAD_LOCKED = InstructionClass.LOAD_LOCKED
_STORE = InstructionClass.STORE
_STORE_COND = InstructionClass.STORE_COND
_CAS = InstructionClass.CAS
_BRANCH = InstructionClass.BRANCH
_CALL = InstructionClass.CALL
_RETURN = InstructionClass.RETURN


def annotate_trace(
    trace: Iterable[Instruction],
    memory: MemorySystem,
    predictor: BranchPredictor | None = None,
    system: CoherenceTicker | None = None,
    warmup: int = 0,
) -> AnnotatedTrace:
    """Classify every instruction of *trace* against *memory*.

    The first *warmup* instructions prime the caches, predictor and SMAC;
    their classifications are discarded and all statistics counters are
    reset at the warmup boundary, mirroring the paper's warm-then-measure
    methodology.  When *system* is given, remote coherence traffic is
    interleaved between local instructions.

    This loop runs once per instruction of every annotated trace, so it
    binds what it calls to locals, tests instruction classes by identity
    (enum members hash in Python) and builds each classification as a
    flag mask into :data:`ACCESS_BY_MASK` instead of allocating.
    """
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    if system is not None and system.memory is not memory:
        raise ValueError("system must wrap the same MemorySystem being annotated")

    annotated = AnnotatedTrace()
    append = annotated.append
    fetch, load, store = memory.fetch, memory.load, memory.store
    observe = predictor.observe if predictor is not None else None
    tick = system.tick if system is not None else None
    by_mask = ACCESS_BY_MASK
    for index, inst in enumerate(trace):
        if tick is not None:
            tick()
        if index == warmup:
            memory.reset_stats()
            if predictor is not None:
                predictor.stats.reset()
        mask = fetch(inst.pc).off_chip
        kind = inst.kind
        if kind is _LOAD or kind is _LOAD_LOCKED:
            if load(inst.address).off_chip:
                mask |= _DATA_MISS
        elif kind is _STORE or kind is _STORE_COND:
            outcome = store(inst.address)
            if outcome.off_chip:
                mask |= (_DATA_MISS | outcome.smac_hit << 2
                         | outcome.upgrade << 3)
        elif kind is _CAS:
            # casa performs a load and a store atomically to the same line.
            loaded = load(inst.address)
            outcome = store(inst.address)
            if loaded.off_chip or outcome.off_chip:
                mask |= (_DATA_MISS | outcome.smac_hit << 2
                         | outcome.upgrade << 3)
        elif observe is not None and (
            kind is _BRANCH or kind is _CALL or kind is _RETURN
        ):
            if observe(inst):
                mask |= _MISPREDICTED
        if index >= warmup:
            append((inst, by_mask[mask]))
    return annotated
