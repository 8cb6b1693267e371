"""Structured tracing: spans and events exported as JSONL.

One :class:`Tracer` writes one stream of events, either to an append-mode
JSONL file (one JSON object per line — greppable, streamable, safe to
concatenate across worker processes) or to an in-memory buffer for tests
and interactive use.

Event schema (every event is one flat JSON object):

========== ==============================================================
``ts``     wall-clock seconds (``time.time``)
``kind``   event kind: ``span_start`` / ``span_end``, or a domain kind —
           ``epoch`` (one per epoch close), ``termination`` (one per
           window termination), ``store_stall`` (store buffer/queue
           saturation ended the window), ...
``name``   human-readable event/span name
``corr``   correlation ID (from :mod:`repro.obs.context`; ties a service
           job to its engine batches and simulator runs)
``span``   ID of the enclosing span, or ``""`` outside any span
``...``    kind-specific attributes, inlined
========== ==============================================================

``span_end`` events additionally carry ``dur`` — the span's wall time in
seconds measured on a monotonic clock.  Span nesting is tracked per
thread, so concurrent batch threads sharing one tracer attribute their
events correctly.  A thread with no open span of its own inherits the
cross-process parent installed by :func:`repro.obs.context.trace_context`
— that is what stitches a fleet worker's spans under the coordinator's
job span into one tree.

Rotation: a file-backed tracer with ``max_bytes > 0`` rotates its output
once the current segment would exceed the cap — ``trace-<pid>.jsonl``
shifts to ``trace-<pid>.jsonl.1`` (older segments shift to ``.2``, ``.3``,
...), so long fleet soaks stay bounded per segment.  With
``max_segments > 0`` the oldest segments beyond the cap are deleted.

Readers: :func:`read_events` streams events back from a JSONL file, a
directory of ``*.jsonl`` files, or an iterable of lines — transparently
spanning rotated segments in chronological order.  Strict mode raises on
*interior* corruption but reports-and-skips a truncated final line (a
process SIGKILLed mid-write leaves a partial tail; that is expected crash
debris, not a corrupt trace).
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from .context import correlation_id, parent_span_id

__all__ = [
    "Span",
    "Tracer",
    "default_trace_file",
    "load_events",
    "read_events",
    "trace_files",
]


class Span:
    """One timed region of a :class:`Tracer` stream (context manager)."""

    __slots__ = ("tracer", "name", "id", "parent", "_start", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent: str,
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.id = uuid.uuid4().hex[:12]
        self.parent = parent
        self.attrs = attrs
        self._start = time.perf_counter()

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer._end_span(self, time.perf_counter() - self._start)


class Tracer:
    """Writes spans and events as JSONL (file, file-like, or in-memory).

    *sink* is a path (opened in append mode, so many tracers — or many
    processes — may share a directory of per-process files), an open
    file-like object, or ``None`` for an in-memory buffer exposed as
    :attr:`events` (already-decoded dicts).  All writes take a lock; one
    event is one line, flushed immediately, so a crashed run still leaves
    a parseable prefix.

    ``max_bytes > 0`` enables size-based rotation for path-backed sinks
    (see the module docstring); ``max_segments`` caps how many rotated
    segments are retained (0 keeps all).
    """

    def __init__(
        self,
        sink: Union[str, Path, Any, None] = None,
        trace_id: Optional[str] = None,
        max_bytes: int = 0,
        max_segments: int = 0,
    ) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:12]
        self.max_bytes = max(0, int(max_bytes))
        self.max_segments = max(0, int(max_segments))
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Openers still using this tracer (see :meth:`share`).
        self._refs = 1
        self._owns_file = False
        self._file: Optional[Any] = None
        self._bytes = 0
        self.path: Optional[Path] = None
        self.events: List[Dict[str, Any]] = []
        if sink is None:
            pass
        elif isinstance(sink, (str, Path)):
            self.path = Path(sink)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")
            self._owns_file = True
            try:
                self._bytes = self.path.stat().st_size
            except OSError:
                self._bytes = 0
        else:
            self._file = sink

    # ------------------------------------------------------------- events --

    def _current_span(self) -> str:
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        # No span open on this thread: inherit the cross-process parent a
        # fleet worker's trace_context installed, so its events and root
        # spans hang under the coordinator's job span.
        return parent_span_id()

    def event(self, kind: str, name: str = "", **attrs: Any) -> Dict[str, Any]:
        """Emit one event; returns the written record."""
        record: Dict[str, Any] = {
            "ts": 0.0,  # stamped by _write
            "kind": kind,
            "name": name,
            "corr": correlation_id() or self.trace_id,
            "span": self._current_span(),
        }
        record.update(attrs)
        self._write(record)
        return record

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span: ``with tracer.span("simulate", job=...):``."""
        span = Span(self, name, self._current_span(), attrs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        self.event("span_start", name, id=span.id, parent=span.parent, **attrs)
        stack.append(span.id)
        return span

    def _end_span(self, span: Span, duration: float) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] == span.id:
            stack.pop()
        record: Dict[str, Any] = {
            "ts": 0.0,  # stamped by _write
            "kind": "span_end",
            "name": span.name,
            "corr": correlation_id() or self.trace_id,
            "span": self._current_span(),
            "id": span.id,
            "parent": span.parent,
            "dur": duration,
        }
        record.update(span.attrs)
        self._write(record)

    def _write(self, record: Dict[str, Any]) -> None:
        with self._lock:
            # Stamped under the lock, so timestamps never run backwards
            # along the file, even with many threads writing.
            record["ts"] = time.time()
            if self._file is None:
                self.events.append(record)
                return
            line = (
                json.dumps(record, separators=(",", ":"), sort_keys=True)
                + "\n"
            )
            if (
                self.max_bytes
                and self._owns_file
                and self.path is not None
                and self._bytes > 0
                and self._bytes + len(line) > self.max_bytes
            ):
                self._rotate()
            self._file.write(line)
            self._file.flush()
            self._bytes += len(line)

    def _rotate(self) -> None:
        """Shift the current segment to ``.1`` (``.N`` -> ``.N+1``)."""
        assert self.path is not None and self._file is not None
        self._file.close()
        rotated = _rotated_segments(self.path)  # oldest (highest N) first
        for old in rotated:
            index = int(old.suffix[1:])
            if self.max_segments and index >= self.max_segments:
                old.unlink(missing_ok=True)
            else:
                old.rename(old.with_suffix(f".{index + 1}"))
        self.path.rename(self.path.with_name(self.path.name + ".1"))
        self._file = open(self.path, "a", encoding="utf-8")
        self._bytes = 0

    # ---------------------------------------------------------- lifecycle --

    def flush(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.flush()

    def share(self) -> bool:
        """Count one more opener; ``False`` once the tracer is closed."""
        with self._lock:
            if self._refs == 0:
                return False
            self._refs += 1
            return True

    def close(self) -> None:
        """Release one opener; the last one closes the file."""
        with self._lock:
            self._refs = max(0, self._refs - 1)
            if self._refs:
                return
            if self._owns_file and self._file is not None:
                self._file.close()
            self._file = None if self._owns_file else self._file
            self._owns_file = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ------------------------------------------------------------------ reading --

#: Rotated-segment suffix: ``trace-123.jsonl.2`` etc.
_ROTATED = re.compile(r"\.jsonl\.(\d+)$")


def _rotated_segments(base: Path) -> List[Path]:
    """Rotated segments of *base*, oldest (highest ``.N``) first."""
    found = []
    for sibling in base.parent.glob(base.name + ".*"):
        match = _ROTATED.search(sibling.name)
        if match:
            found.append((int(match.group(1)), sibling))
    return [path for _, path in sorted(found, reverse=True)]


def trace_files(path: Union[str, Path]) -> List[Path]:
    """The JSONL files behind *path* (a file, or a directory of traces).

    Rotated segments (``trace-<pid>.jsonl.N``) are included automatically
    and ordered oldest-first before their base file, so readers span a
    rotated stream in chronological order without knowing about rotation.
    """
    root = Path(path)
    if root.is_dir():
        files: List[Path] = []
        for base in sorted(root.glob("*.jsonl")):
            files.extend(_rotated_segments(base))
            files.append(base)
        return files
    return _rotated_segments(root) + [root]


def read_events(
    source: Union[str, Path, Iterable[str]],
    strict: bool = True,
) -> Iterator[Dict[str, Any]]:
    """Stream trace events back from a JSONL file, directory, or lines.

    With ``strict=False`` undecodable lines are skipped silently.  With
    ``strict=True`` (the default) *interior* corruption raises
    ``ValueError`` naming the offending location, but an undecodable
    **final** line is reported (a warning log) and skipped: a process
    killed mid-write — as fleet workers routinely are — truncates its last
    line, and that expected crash debris must not make the rest of the
    trace unreadable.
    """
    if isinstance(source, (str, Path)):
        for file in trace_files(source):
            with open(file, "r", encoding="utf-8") as handle:
                yield from _decode_lines(handle, str(file), strict)
    else:
        yield from _decode_lines(source, "<lines>", strict)


def _decode_lines(
    lines: Iterable[str], origin: str, strict: bool
) -> Iterator[Dict[str, Any]]:
    pending_error: Optional[str] = None
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if pending_error is not None:
            # The bad line was not the tail after all: that is interior
            # corruption, which strict mode refuses to paper over.
            raise ValueError(pending_error)
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if strict:
                pending_error = f"{origin}:{number}: invalid trace event: {exc}"
            continue
        if isinstance(record, dict):
            yield record
        elif strict:
            pending_error = f"{origin}:{number}: trace event is not an object"
    if pending_error is not None:
        from .logging import get_logger

        get_logger("obs.trace").warning(
            "skipping truncated trace tail (%s)", pending_error,
        )


def load_events(
    source: Union[str, Path, Iterable[str]],
    strict: bool = True,
) -> List[Dict[str, Any]]:
    """:func:`read_events`, materialized."""
    return list(read_events(source, strict=strict))


def default_trace_file(directory: Union[str, Path]) -> Path:
    """The per-process trace file convention: ``<dir>/trace-<pid>.jsonl``."""
    return Path(directory) / f"trace-{os.getpid()}.jsonl"
