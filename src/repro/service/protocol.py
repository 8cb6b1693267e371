"""Typed request/response schemas for the simulation service.

The wire protocol is plain JSON.  A job submission looks like::

    {"kind": "sweep", "priority": 0,
     "sweep": {"workloads": ["database"], "variant": "pc",
               "axes": {"store_queue": [16, 32],
                        "store_prefetch": ["sp0", "sp1"]}}}

    {"kind": "simulate",
     "job": {"workload": "database", "variant": "pc",
             "core_changes": {"store_queue": 16, "store_prefetch": "sp1"}}}

    {"kind": "simulate",
     "job": {"workload": "oltp_java", "contexts": 2, "scheduler": "mlp"}}

    {"kind": "estimate",
     "job": {"workload": "database",
             "core_changes": {"scout": "hws2"}}}

    {"kind": "figure", "figure": "figure2", "workloads": ["database"]}

:func:`parse_job_request` validates such payloads into a frozen
:class:`JobRequest`, coercing enum spellings (``"sp1"``, ``"wc"``, ...)
through :func:`repro.harness.sweeps.coerce_axis_value` and raising
:class:`ProtocolError` — which carries the HTTP status to answer with — on
anything malformed.

``JobRequest.signature()`` is the request's content hash (via
:func:`repro.engine.cache.content_key`), the key under which the job queue
deduplicates identical in-flight work: two clients posting the same sweep
share one execution.  ``priority`` is deliberately excluded from the
signature — the work is the same regardless of how urgently it was asked
for.

Trace context on the fleet wire
-------------------------------

The worker protocol (``/v1/fleet/lease`` and ``/v1/fleet/complete``)
carries a ``traceparent`` field on every task entry, in the
W3C-traceparent-inspired form emitted by
:func:`repro.obs.context.format_traceparent`::

    00-<correlation id>-<parent span id>

Lease grants stamp it (the correlation ID is the job ID; the parent span
is the coordinator's ``fleet_job`` root span, or empty when the
coordinator is not tracing); workers restore it with
:func:`repro.obs.context.trace_context` before executing and echo it on
completion entries.  The field is observability metadata only: it never
participates in request signatures, and a malformed or missing value
degrades to a fresh correlation, never to a protocol error.  Worker
heartbeats (``/v1/fleet/heartbeat``) may likewise carry a ``metrics``
object of cumulative counter totals — see
:mod:`repro.fleet.federation` for the federation semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.backend import backend_names
from ..engine import serialize
from ..engine.cache import content_key
from ..engine.runner import JobSpec
from ..engine.serialize import PROTOCOL_VERSION
from ..errors import ProtocolError
from ..harness.sweeps import SweepSpec, coerce_axis_value
from ..names import ALL_WORKLOADS

__all__ = [
    "FIGURES",
    "JOB_KINDS",
    "PROTOCOL_VERSION",
    "JobRequest",
    "ProtocolError",
    "jsonify",
    "parse_job_request",
]

JOB_KINDS = ("sweep", "simulate", "figure", "estimate")
FIGURES = ("figure2", "figure3", "figure4", "figure5", "figure6",
           "figure7", "figure8")


# ProtocolError now lives in the unified repro.errors hierarchy (it carries
# a stable ``.code`` alongside its HTTP ``.status``); re-exported here for
# the pre-unification import path.


@dataclass(frozen=True)
class JobRequest:
    """One validated job submission.

    ``shards`` applies to simulate jobs only: it routes the simulation
    through the sharded execution path
    (:meth:`repro.engine.runner.EngineRunner.run_sharded`) — the result is
    bit-identical to an unsharded run, so it *is* part of the work
    signature only insofar as it changes the execution request itself.

    ``backend`` (sweep/simulate only) names the execution backend the
    engine runs the simulations on; ``""`` defers to the server's default.
    Backends are bit-identical, but the field still joins the signature
    because it changes the execution being requested.
    """

    kind: str
    sweep: Optional[SweepSpec] = None
    job: Optional[JobSpec] = None
    figure: str = ""
    workloads: Tuple[str, ...] = ()
    priority: int = 0
    shards: int = 1
    backend: str = ""

    def signature(self) -> str:
        """Content hash identifying the *work* (priority excluded)."""
        return content_key(
            "service-job", self.kind, self.sweep, self.job,
            self.figure, self.workloads, self.shards, self.backend,
        )

    def describe(self) -> str:
        if self.kind == "sweep":
            assert self.sweep is not None
            axes = " ".join(
                f"{name}[{len(values)}]" for name, values in self.sweep.axes
            )
            return (
                f"sweep:{','.join(self.sweep.workloads)}/"
                f"{self.sweep.variant} {axes}"
            )
        if self.kind == "simulate":
            assert self.job is not None
            return self.job.describe()
        if self.kind == "estimate":
            assert self.job is not None
            return f"estimate[{self.job.describe()}]"
        return f"{self.figure}:{','.join(self.workloads)}"

    def to_dict(self) -> Dict[str, Any]:
        return serialize.to_jsonable(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRequest":
        request = serialize.from_jsonable(data)
        if not isinstance(request, cls):
            raise serialize.SerializeError(
                f"expected a JobRequest payload, "
                f"decoded {type(request).__name__}"
            )
        return request


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _workloads(raw: Any, where: str) -> Tuple[str, ...]:
    _require(
        isinstance(raw, (list, tuple)) and raw
        and all(isinstance(w, str) for w in raw),
        f"{where} must be a non-empty list of workload names",
    )
    unknown = set(raw) - set(ALL_WORKLOADS)
    _require(
        not unknown,
        f"unknown workloads {sorted(unknown)}; "
        f"expected a subset of {list(ALL_WORKLOADS)}",
    )
    return tuple(raw)


def _parse_sweep(payload: Dict[str, Any]) -> SweepSpec:
    raw = payload.get("sweep")
    _require(isinstance(raw, dict), "sweep jobs need a 'sweep' object")
    workloads_raw = raw.get("workloads")
    if workloads_raw is None and isinstance(raw.get("workload"), str):
        workloads_raw = [raw["workload"]]
    workloads = _workloads(workloads_raw, "'sweep.workloads'")
    variant = raw.get("variant", "pc")
    _require(isinstance(variant, str), "'sweep.variant' must be a string")
    axes = raw.get("axes")
    _require(
        isinstance(axes, dict) and axes,
        "sweep jobs need a non-empty 'sweep.axes' object",
    )
    coerced: Dict[str, List[Any]] = {}
    for name, values in axes.items():
        _require(
            isinstance(name, str) and isinstance(values, (list, tuple))
            and len(values) > 0,
            f"axis {name!r} must map to a non-empty list of values",
        )
        try:
            coerced[name] = [coerce_axis_value(name, v) for v in values]
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
    try:
        return SweepSpec.build(workloads, variant, **coerced)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def _parse_simulate(payload: Dict[str, Any], kind: str = "simulate") -> JobSpec:
    raw = payload.get("job")
    _require(isinstance(raw, dict), f"{kind} jobs need a 'job' object")
    contexts = raw.get("contexts", 1)
    _require(
        isinstance(contexts, int) and not isinstance(contexts, bool)
        and contexts >= 1,
        "'job.contexts' must be an integer >= 1",
    )
    scheduler = raw.get("scheduler", "")
    _require(
        isinstance(scheduler, str),
        "'job.scheduler' must be a string naming an SMT scheduling policy",
    )
    if scheduler:
        from ..smt.schedulers import resolve_scheduler

        try:
            scheduler = resolve_scheduler(scheduler).name
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
    workload = raw.get("workload")
    _require(isinstance(workload, str), "'job.workload' must be a string")
    if contexts > 1:
        # SMT specs take mixes; the resolver validates and lists them.
        from ..workloads.mixes import resolve_mix

        try:
            resolve_mix(workload, contexts)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
    else:
        _require(
            workload in ALL_WORKLOADS,
            f"'job.workload' must be one of {list(ALL_WORKLOADS)}",
        )
    variant = raw.get("variant", "pc")
    _require(isinstance(variant, str), "'job.variant' must be a string")
    changes = raw.get("core_changes", {})
    _require(
        isinstance(changes, dict),
        "'job.core_changes' must be an object of field -> value",
    )
    try:
        core_changes = tuple(
            (name, coerce_axis_value(name, value))
            for name, value in changes.items()
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    return JobSpec(
        workload=workload, variant=variant, core_changes=core_changes,
        contexts=contexts, scheduler=scheduler,
    )


def _parse_backend(payload: Dict[str, Any], kind: str) -> str:
    """Validate the optional top-level ``backend`` field.

    Unknown names are answered with a structured 400 listing the
    registered backends, so a typo ("evnet") comes back actionable
    instead of failing deep inside the engine.
    """
    raw = payload.get("backend", "")
    _require(
        isinstance(raw, str),
        "'backend' must be a string naming an execution backend",
    )
    if not raw:
        return ""
    _require(
        kind in ("sweep", "simulate"),
        "'backend' applies to sweep and simulate jobs only",
    )
    names = backend_names()
    _require(
        raw in names,
        f"unknown execution backend {raw!r}; "
        f"registered backends: {list(names)}",
    )
    return raw


def _parse_figure(payload: Dict[str, Any]) -> Tuple[str, Tuple[str, ...]]:
    figure = payload.get("figure")
    _require(
        isinstance(figure, str) and figure in FIGURES,
        f"'figure' must be one of {list(FIGURES)}",
    )
    workloads_raw = payload.get("workloads", list(ALL_WORKLOADS))
    return figure, _workloads(workloads_raw, "'workloads'")


#: Every top-level field a submission may carry.  Anything else is a 400,
#: so a field that has no meaning (a typo, or one an older protocol
#: version had) is never silently ignored.
_REQUEST_FIELDS = frozenset({
    "v", "kind", "priority", "backend", "sweep", "job", "figure",
    "workloads", "shards",
})


def parse_job_request(payload: Any) -> JobRequest:
    """Validate one raw submission body into a :class:`JobRequest`."""
    _require(isinstance(payload, dict), "request body must be a JSON object")
    version = payload.get("v", PROTOCOL_VERSION)
    _require(
        version == PROTOCOL_VERSION,
        f"unsupported protocol version {version!r}; "
        f"this server speaks v{PROTOCOL_VERSION}",
    )
    # The kind is checked first, so a submission of a kind this version
    # does not run is told the valid kinds, whatever fields it carries.
    kind = payload.get("kind")
    _require(
        isinstance(kind, str) and kind in JOB_KINDS,
        f"'kind' must be one of {list(JOB_KINDS)}",
    )
    unknown = sorted(set(payload) - _REQUEST_FIELDS)
    _require(
        not unknown,
        f"unknown request field(s) {unknown}; "
        f"expected a subset of {sorted(_REQUEST_FIELDS)}",
    )
    priority = payload.get("priority", 0)
    _require(
        isinstance(priority, int) and not isinstance(priority, bool),
        "'priority' must be an integer",
    )
    backend = _parse_backend(payload, kind)
    if kind == "sweep":
        return JobRequest(
            kind=kind, sweep=_parse_sweep(payload), priority=priority,
            backend=backend,
        )
    if kind == "simulate":
        shards = payload.get("shards", 1)
        _require(
            isinstance(shards, int) and not isinstance(shards, bool)
            and shards >= 1,
            "'shards' must be a positive integer",
        )
        job = _parse_simulate(payload)
        _require(
            job.contexts == 1 or shards == 1,
            "multi-context (SMT) jobs cannot be sharded",
        )
        return JobRequest(
            kind=kind, job=job, priority=priority, shards=shards,
            backend=backend,
        )
    if kind == "estimate":
        return JobRequest(
            kind=kind, job=_parse_simulate(payload, kind="estimate"),
            priority=priority,
        )
    figure, workloads = _parse_figure(payload)
    return JobRequest(
        kind=kind, figure=figure, workloads=workloads, priority=priority,
    )


def jsonify(obj: Any) -> Any:
    """A lossy, human-readable JSON rendering for figure payloads.

    Figure drivers return nested dicts keyed by enums and tuples; this
    flattens keys to strings and enums to their values so the payload reads
    naturally in a browser or ``curl`` output.  (Sweep and simulate results
    use the exact :mod:`repro.engine.serialize` encoding instead.)
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if hasattr(obj, "value") and not isinstance(obj, type):  # enum member
        return jsonify(obj.value)
    if isinstance(obj, dict):
        return {_key_str(key): jsonify(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(item) for item in obj]
    return str(obj)


def _key_str(key: Any) -> str:
    if isinstance(key, str):
        return key
    if hasattr(key, "value") and not isinstance(key, type):
        return str(key.value)
    if isinstance(key, tuple):
        return ",".join(_key_str(item) for item in key)
    return str(key)


serialize.register(JobRequest)
