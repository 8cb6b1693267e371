"""Cache-hierarchy substrate.

Implements the paper's memory system: private write-through no-write-allocate
L1 instruction/data caches, a shared write-back L2 with MESI line states
for cross-chip coherence, and the Store Miss Accelerator (SMAC).  TLB misses
are serviced on chip and never reach the epoch model, so no TLB is modelled.

The hierarchy's job in this reproduction is *miss classification*: given an
instruction stream it decides which fetches, loads and stores go off chip.
:func:`~repro.memory.annotate.annotate_trace` performs that classification
once per (trace, memory configuration) pair so that the epoch simulator can
re-run cheaply across core configurations.
"""

from .annotate import AccessInfo, AnnotatedTrace, annotate_trace
from .cache import CacheLine, MesiState, SetAssociativeCache
from .hierarchy import AccessOutcome, HitLevel, MemoryCounters, MemorySystem
from .smac import SmacProbe, StoreMissAccelerator

__all__ = [
    "AccessInfo",
    "AccessOutcome",
    "AnnotatedTrace",
    "CacheLine",
    "HitLevel",
    "MemoryCounters",
    "MemorySystem",
    "MesiState",
    "SetAssociativeCache",
    "SmacProbe",
    "StoreMissAccelerator",
    "annotate_trace",
]
