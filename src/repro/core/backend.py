"""Pluggable execution backends for the epoch MLP simulator.

A :class:`Backend` is a strategy for *executing* a simulation; it never
changes what is simulated.  Every backend consumes the same inputs as
:meth:`repro.core.mlpsim.MlpSimulator.run` — a configuration plus an
annotated trace, with the optional shard hooks — and must produce a
bit-identical :class:`~repro.core.results.SimulationResult`.
The differential suite (``tests/test_backends.py``) enforces that promise
against the ``reference`` oracle for every registered backend.

A backend is a ``name`` plus :meth:`Backend.simulate`.  Both built-ins run
the one epoch loop, :meth:`MlpSimulator.run`; they differ only in the
window scan the loop calls:

``reference``
    :class:`~repro.core.mlpsim.MlpSimulator` itself, visiting every
    instruction.  The golden oracle: the golden and differential suites
    name it explicitly.
``event``
    Event-driven epoch scanning (:mod:`repro.core.backends.events`): a
    precomputed next-interesting-position table lets quiescent spans be
    skipped in O(1) instead of iterated.  The default: bit-identical to
    ``reference`` and about twice as fast (``BENCH_backends.json``).

Backend selection threads through every layer (api, CLI ``--backend``,
engine job specs, service protocol).  ``resolve_backend(None)`` honours the
``REPRO_BACKEND`` environment variable before falling back to
``event``, which is what lets CI run the whole tier-1 suite under each
backend without touching the tests.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple

from ..config import SimulationConfig
from ..errors import UnknownBackendError
from ..memory.annotate import AnnotatedTrace
from .mlpsim import MlpSimulator
from .results import SimulationResult
from .window import WindowObserver

__all__ = [
    "DEFAULT_BACKEND",
    "Backend",
    "ReferenceBackend",
    "backend_names",
    "register_backend",
    "resolve_backend",
]

#: The backend used when neither the caller nor ``REPRO_BACKEND`` chooses.
DEFAULT_BACKEND = "event"

#: Environment variable consulted by :func:`resolve_backend` when the
#: caller passes no explicit name — the CI backend matrix sets it.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class Backend(ABC):
    """One execution strategy for the epoch MLP simulation."""

    #: Registry key and wire-protocol spelling.
    name: str = ""

    @abstractmethod
    def simulate(
        self,
        config: SimulationConfig,
        trace: AnnotatedTrace,
        observer: WindowObserver | None = None,
        **kwargs,
    ) -> SimulationResult:
        """Run one simulation; *kwargs* are :meth:`MlpSimulator.run`'s
        keyword-only shard hooks."""


class ReferenceBackend(Backend):
    """The golden oracle: the unmodified tick loop."""

    name = "reference"

    def simulate(self, config, trace, observer=None, **kwargs):
        return MlpSimulator(config).run(trace, observer, **kwargs)


_REGISTRY: Dict[str, Backend] = {}
_BUILTINS_LOADED = False


def register_backend(backend: Backend) -> Backend:
    """Register *backend* under its ``name`` (later wins, like a dict)."""
    if not backend.name:
        raise ValueError("backend must define a non-empty name")
    _REGISTRY[backend.name] = backend
    return backend


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    # Imported lazily: repro.core.backends imports this module.
    from . import backends  # noqa: F401


def backend_names() -> Tuple[str, ...]:
    """Names of all registered backends, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def resolve_backend(name: Optional[str] = None) -> Backend:
    """Resolve *name* (or ``$REPRO_BACKEND``, or the default) to a backend.

    Raises :class:`~repro.errors.UnknownBackendError` for anything not
    registered.
    """
    _ensure_builtins()
    chosen = name or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    try:
        return _REGISTRY[chosen]
    except KeyError:
        raise UnknownBackendError(
            f"unknown execution backend {chosen!r}; "
            f"registered backends: {', '.join(sorted(_REGISTRY))}"
        ) from None


register_backend(ReferenceBackend())
