"""Correlation-ID propagation for cross-layer observability.

A correlation ID names one logical unit of work end to end: the service
stamps it when a job starts executing, the engine carries it into batch
threads and worker processes, and every trace event and log record emitted
while it is set carries it automatically.  That is what lets ``mlpsim obs
report`` group a service job's epoch events with its HTTP lifecycle, and a
``grep`` over JSON logs reconstruct one request's path through the stack.

Implemented over :mod:`contextvars` so the ID follows the logical flow of
control (threads started with a copied context, async tasks) rather than a
global.  Worker processes do not inherit context; the engine passes the
current ID explicitly through the pool initializer and re-installs it
there.

Cross-process span trees
------------------------

The fleet extends the same idea one level up: a coordinator and N worker
*processes* (possibly on N machines) must produce one connected span tree
per job.  The wire carries a ``traceparent``-style field::

    00-<correlation id>-<parent span id>

``00`` is the format version, the correlation ID names the job (the
tree's root), and the parent span ID is the coordinator-side span the
receiving process should hang its own spans under.  The receiving side
installs both halves with :func:`trace_context`; a
:class:`~repro.obs.trace.Tracer` whose thread has no open span of its own
falls back to :func:`parent_span_id` — so a worker's ``engine_batch`` /
``job`` spans parent to the coordinator's job span and ``mlpsim obs
critical-path`` can join the segments written by every process into a
single tree, including the re-lease-to-another-worker hop.
"""

from __future__ import annotations

import contextvars
import uuid
from contextlib import contextmanager
from typing import Iterator, Tuple

__all__ = [
    "correlation",
    "correlation_id",
    "current_traceparent",
    "format_traceparent",
    "new_correlation_id",
    "new_span_id",
    "parent_span_id",
    "parse_traceparent",
    "set_correlation_id",
    "set_parent_span_id",
    "trace_context",
]

#: Version prefix of the ``traceparent`` wire field.
TRACEPARENT_VERSION = "00"

_CORRELATION: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_correlation_id", default="",
)

_PARENT_SPAN: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_parent_span_id", default="",
)


def correlation_id() -> str:
    """The current correlation ID (empty string when none is set)."""
    return _CORRELATION.get()


def set_correlation_id(value: str) -> contextvars.Token:
    """Install *value* as the current correlation ID; returns a reset token."""
    return _CORRELATION.set(value)


def new_correlation_id() -> str:
    """A fresh 12-hex-digit correlation ID (same shape as service job IDs)."""
    return uuid.uuid4().hex[:12]


@contextmanager
def correlation(value: str) -> Iterator[str]:
    """Scope *value* (or a fresh ID when empty) as the correlation ID."""
    token = _CORRELATION.set(value or new_correlation_id())
    try:
        yield _CORRELATION.get()
    finally:
        _CORRELATION.reset(token)


# -------------------------------------------------------------- span tree --


def new_span_id() -> str:
    """A fresh 12-hex-digit span ID (same shape as Tracer span IDs)."""
    return uuid.uuid4().hex[:12]


def parent_span_id() -> str:
    """The inherited cross-process parent span ID ("" when none is set)."""
    return _PARENT_SPAN.get()


def set_parent_span_id(value: str) -> contextvars.Token:
    """Install *value* as the inherited parent span; returns a reset token."""
    return _PARENT_SPAN.set(value)


def format_traceparent(corr: str, span_id: str) -> str:
    """Encode (correlation ID, parent span ID) for the wire."""
    return f"{TRACEPARENT_VERSION}-{corr}-{span_id}"


def parse_traceparent(value: str) -> Tuple[str, str]:
    """Decode a ``traceparent`` field into (correlation ID, span ID).

    Tolerant by design — observability metadata must never fail a work
    request — so malformed or future-versioned values decode to
    ``("", "")`` and the receiver simply starts a fresh context.
    """
    if not isinstance(value, str):
        return "", ""
    parts = value.split("-")
    if len(parts) != 3 or parts[0] != TRACEPARENT_VERSION:
        return "", ""
    _, corr, span_id = parts
    if not corr:
        return "", ""
    # An empty span half is legal: a coordinator that is not tracing still
    # propagates the correlation ID, just with no span to parent under.
    return corr, span_id


def current_traceparent() -> str:
    """The current context encoded for the wire ("" when no correlation).

    The span half is the inherited parent (a process forwarding work it
    did not originate passes its own inherited parent along unless it
    opened a span of its own and encodes that explicitly).
    """
    corr = _CORRELATION.get()
    if not corr:
        return ""
    return format_traceparent(corr, _PARENT_SPAN.get())


@contextmanager
def trace_context(traceparent: str) -> Iterator[Tuple[str, str]]:
    """Scope the correlation ID and parent span decoded from *traceparent*.

    The receiving half of cross-process propagation: a fleet worker wraps
    each leased batch in ``trace_context(entry["traceparent"])`` so every
    span and event it emits joins the coordinator's tree.  Malformed
    values scope a fresh correlation with no parent.
    """
    corr, span_id = parse_traceparent(traceparent)
    corr_token = _CORRELATION.set(corr or new_correlation_id())
    span_token = _PARENT_SPAN.set(span_id)
    try:
        yield _CORRELATION.get(), span_id
    finally:
        _PARENT_SPAN.reset(span_token)
        _CORRELATION.reset(corr_token)
