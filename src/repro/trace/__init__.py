"""Trace streams, serialization and statistics.

A *trace* is any iterable of :class:`~repro.isa.Instruction`.  This package
provides binary persistence (:mod:`~repro.trace.reader` /
:mod:`~repro.trace.writer`), the columnar annotated-trace codec the
artifact cache stores annotations in (:mod:`~repro.trace.annotated`),
composable stream utilities
(:mod:`~repro.trace.stream`) and whole-trace statistics used for the
paper's Table 1 (:mod:`~repro.trace.stats`).  The names below are exported
lazily: the artifact cache imports the codec, not the statistics.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".reader": ("read_trace", "read_trace_file"),
    ".stats": ("InstructionMix", "TraceStatistics", "collect_statistics"),
    ".stream": ("take", "materialize"),
    ".writer": ("write_trace", "write_trace_file"),
})

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
