"""Trace streams, serialization and statistics.

A *trace* is any iterable of :class:`~repro.isa.Instruction`.  This package
provides binary persistence (:mod:`~repro.trace.reader` /
:mod:`~repro.trace.writer`), the columnar annotated-trace codec the
artifact cache stores annotations in (:mod:`~repro.trace.annotated`),
composable stream utilities
(:mod:`~repro.trace.stream`), whole-trace statistics used for the paper's
Table 1 (:mod:`~repro.trace.stats`) and generic instruction-level rewriting
(:mod:`~repro.trace.transform`).
"""

from .reader import read_trace, read_trace_file
from .stats import InstructionMix, TraceStatistics, collect_statistics
from .stream import take, materialize, split_warmup
from .transform import map_trace, replace_subsequences
from .writer import write_trace, write_trace_file

__all__ = [
    "InstructionMix",
    "TraceStatistics",
    "collect_statistics",
    "map_trace",
    "materialize",
    "read_trace",
    "read_trace_file",
    "replace_subsequences",
    "split_warmup",
    "take",
    "write_trace",
    "write_trace_file",
]
