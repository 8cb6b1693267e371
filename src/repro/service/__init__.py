"""repro.service: the job protocol, queue and client of the simulation
service.

``mlpsim serve`` runs one server, the fleet coordinator
(:class:`repro.fleet.frontend.FleetCoordinator`), which exposes the engine
layer (persistent artifact cache + parallel runner) over a
zero-dependency JSON HTTP API, so many consumers share one long-lived
process — one warm cache, one job queue, and in-flight deduplication of
identical requests.  This package holds the pieces it is built from:

- :mod:`repro.service.protocol` — typed request validation and the wire
  encoding of results,
- :mod:`repro.service.jobqueue` — bounded priority queue, the
  ``queued -> running -> done/failed/cancelled`` lifecycle, and in-flight
  dedup keyed by request content hash,
- :mod:`repro.service.executor` — runs the figure requests a fleet
  worker leases whole, and answers the ``estimate`` verb,
- :mod:`repro.service.client` — the blocking Python client used by the
  CLI (``mlpsim submit`` / ``mlpsim status``) and the tests.

The names below are exported lazily, so importing one piece (the
protocol, say) does not load the HTTP client.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "..obs.metrics": ("MetricsRegistry",),
    ".client": ("ServiceClient", "ServiceError"),
    ".jobqueue": ("Job", "JobQueue", "JobState", "QueueFullError"),
    ".protocol": ("JobRequest", "ProtocolError", "parse_job_request"),
})

__all__ = [
    "Job",
    "JobQueue",
    "JobRequest",
    "JobState",
    "MetricsRegistry",
    "ProtocolError",
    "QueueFullError",
    "ServiceClient",
    "ServiceError",
    "parse_job_request",
]
