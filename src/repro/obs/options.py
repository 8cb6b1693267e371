"""Observability options threaded from the API/CLI down to workers.

:class:`ObsOptions` is the one knob bundle every layer understands: the
API and CLI build it, :class:`~repro.engine.runner.EngineRunner` carries
it, and — because it is a small frozen dataclass of plain values — it
pickles straight through ``ProcessPoolExecutor`` initargs so each worker
process can open its own per-process trace file.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from .trace import Tracer, default_trace_file

__all__ = ["ObsOptions"]

#: This process's open tracers, one per trace file (see ``open_tracer``):
#: trace files are per process, so the registry is too.
_OPEN: Dict[Path, Tracer] = {}
_OPEN_LOCK = threading.Lock()


@dataclass(frozen=True)
class ObsOptions:
    """What to observe and where to put it.

    Attributes
    ----------
    trace_dir:
        Directory for JSONL trace files (one ``trace-<pid>.jsonl`` per
        process).  ``None`` disables tracing entirely — the zero-overhead
        default.
    trace_epochs:
        Attach an :class:`~repro.obs.recorder.EpochTimelineRecorder` to
        every simulator run so each epoch close / termination / store
        stall becomes a trace event.
    trace_max_bytes:
        Size-based rotation threshold for trace files (0 disables
        rotation).  When a process's ``trace-<pid>.jsonl`` would exceed
        this, it is shifted to ``.1`` (``.N`` → ``.N+1``) and a fresh
        segment starts; readers span segments transparently.
    """

    trace_dir: Optional[str] = None
    trace_epochs: bool = True
    trace_max_bytes: int = 0

    @classmethod
    def for_trace(cls, trace_dir: Union[str, Path], **kwargs: object) -> "ObsOptions":
        """Options with tracing into *trace_dir* (the common case)."""
        return cls(trace_dir=str(trace_dir), **kwargs)  # type: ignore[arg-type]

    @property
    def enabled(self) -> bool:
        """Whether any observation is requested at all."""
        return self.trace_dir is not None

    def open_tracer(self) -> Optional[Tracer]:
        """The tracer on this process's per-PID file, or ``None`` if off.

        Every opener in one process shares one tracer per file (each
        ``close()`` releases one), so one lock, byte count and rotation
        cover all writers of ``trace-<pid>.jsonl`` — a coordinator and
        its in-process worker, say.  The first opener's
        ``trace_max_bytes`` applies.
        """
        if self.trace_dir is None:
            return None
        path = default_trace_file(self.trace_dir)
        with _OPEN_LOCK:
            tracer = _OPEN.get(path)
            if tracer is None or not tracer.share():
                tracer = _OPEN[path] = Tracer(
                    path, max_bytes=self.trace_max_bytes,
                )
            return tracer
