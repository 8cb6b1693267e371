"""Trace streams, serialization and statistics.

A *trace* is any iterable of :class:`~repro.isa.Instruction`.  This package
provides binary persistence (:mod:`~repro.trace.reader` /
:mod:`~repro.trace.writer`), the columnar annotated-trace codec the
artifact cache stores annotations in (:mod:`~repro.trace.annotated`),
composable stream utilities
(:mod:`~repro.trace.stream`) and whole-trace statistics used for the
paper's Table 1 (:mod:`~repro.trace.stats`).
"""

from .reader import read_trace, read_trace_file
from .stats import InstructionMix, TraceStatistics, collect_statistics
from .stream import take, materialize
from .writer import write_trace, write_trace_file

__all__ = [
    "InstructionMix",
    "TraceStatistics",
    "collect_statistics",
    "materialize",
    "read_trace",
    "read_trace_file",
    "take",
    "write_trace",
    "write_trace_file",
]
