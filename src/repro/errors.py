"""Exception hierarchy for the repro package.

Every error raised by the package derives from :class:`ReproError` so callers
can catch package-level failures with a single ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate.

Each class carries a stable machine-readable ``code`` string.  The service
layer mirrors it into 4xx/5xx JSON bodies (``{"error": ..., "code": ...}``)
so clients can branch on the code without parsing messages, and messages
stay free to improve without breaking anyone.

Two classes multiple-inherit from builtins for compatibility with the
pre-unification surface: :class:`EngineConfigError` is still a
``ValueError`` and :class:`BatchFailedError` is still a ``RuntimeError``,
so existing ``except ValueError`` / ``except RuntimeError`` call sites keep
working while new code catches :class:`ReproError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""

    #: Stable machine-readable identifier, mirrored into service responses.
    code: str = "repro-error"


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent with another value."""

    code = "config-invalid"


class TraceError(ReproError):
    """A trace stream is malformed or used incorrectly."""

    code = "trace-invalid"


class TraceFormatError(TraceError):
    """A serialized trace file could not be decoded."""

    code = "trace-format"


class CacheGeometryError(ConfigError):
    """A cache was configured with an impossible geometry."""

    code = "cache-geometry"


class SimulationError(ReproError):
    """The simulator reached an internal inconsistency."""

    code = "simulation-wedged"


class CalibrationError(ReproError):
    """A workload generator could not be calibrated to its targets."""

    code = "calibration-failed"


class ShardBoundaryError(ReproError):
    """A shard plan's boundary does not match the simulation it segments.

    Raised when a shard run does not pass through its planned stop position
    at an epoch boundary, or when per-shard results cannot be merged into an
    exact whole-run result (overlapping or gapped spans).
    """

    code = "shard-boundary"


class ArtifactCorruptError(ReproError):
    """A persisted cache entry failed its frame, checksum or digest check.

    The reader treats the entry as absent: the artifact cache deletes it
    and recomputes the artifact.
    """

    code = "artifact-corrupt"


class FaultInjectedError(ReproError):
    """A deliberately injected fault fired (test/CI recovery drills only).

    Raised on the serial execution path, where killing the process would
    take the caller down with it; pool workers hard-exit instead.  Either
    way the engine's retry machinery must recompute the task from its
    start.
    """

    code = "fault-injected"


class ProtocolError(ReproError):
    """A malformed or unserviceable service request, with its HTTP status."""

    code = "protocol-invalid"

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class EngineError(ReproError):
    """The parallel engine could not execute a batch as asked."""

    code = "engine-error"


class EngineConfigError(EngineError, ValueError):
    """An :class:`~repro.engine.runner.EngineRunner` parameter or job spec
    is invalid.  Also a ``ValueError`` for backward compatibility."""

    code = "engine-config"


class BatchFailedError(EngineError, RuntimeError):
    """A batch finished with failed jobs and the caller asked to raise.
    Also a ``RuntimeError`` for backward compatibility."""

    code = "batch-failed"


class BackendError(ReproError):
    """An execution backend could not be selected or run."""

    code = "backend-error"


class UnknownBackendError(BackendError, ValueError):
    """A backend name does not match any registered backend.

    Also a ``ValueError``: an unknown name is an argument error at the api
    surface (the service layer maps it to a structured 400 instead).
    """

    code = "backend-unknown"


class FleetError(ReproError):
    """A fleet-level coordination failure (registration, leasing, routing)."""

    code = "fleet-error"


class UnknownWorkerError(FleetError):
    """A worker id does not match any registered (live) worker.

    Workers receive this after being evicted for missed heartbeats; the
    correct response is to re-register and resume pulling work.
    """

    code = "fleet-unknown-worker"


class SaturatedError(ReproError):
    """The service cannot accept work right now; retry after a delay.

    Carries the HTTP ``status`` to answer with (429 when the queue is full,
    503 when no workers are live or the server is draining) and a
    ``retry_after`` hint in seconds, surfaced as the ``Retry-After`` header.
    """

    code = "saturated"

    def __init__(
        self, message: str, status: int = 429, retry_after: float = 1.0,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = max(1, int(round(retry_after)))
