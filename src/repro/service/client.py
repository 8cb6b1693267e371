"""A thin blocking client for the simulation service.

Pure stdlib (``urllib.request``): connection-level failures retry with
exponential backoff (a just-started server may not be accepting yet); HTTP
error statuses do *not* retry — they carry the server's JSON error document
and raise :class:`ServiceError` immediately.

The verbs mirror :mod:`repro.api` — ``submit`` / ``result`` / ``cancel`` —
so code reads identically against local and remote execution.  New code
should obtain a client via :func:`repro.api.connect` (importing from here
still works, but the facade is the documented entry point).  Typical
use::

    client = ServiceClient("http://127.0.0.1:8137")
    receipt = client.submit_sweep(
        "database", store_queue=[16, 32], store_prefetch=["sp0", "sp1"],
    )
    report = client.result(receipt["id"], timeout=600)   # a real RunReport

Every submission carries the wire protocol version (``"v"``); a server
speaking a different version answers with a structured 400 rather than
misreading the body.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence, Union

from ..engine import serialize
from ..engine.runner import JobSpec, RunReport, ShardedReport
from ..harness.sweeps import SweepSpec
from .protocol import PROTOCOL_VERSION

__all__ = ["ServiceClient", "ServiceError"]

_TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: The pause between status requests when a server answers a long-poll
#: before its wait elapsed (it ignores ``?wait=``, or capped it), so such
#: a server is paced instead of spun on.
_EARLY_ANSWER_PAUSE = 0.05


class ServiceError(Exception):
    """An HTTP-level error answer from the service.

    ``retry_after`` carries the server's ``Retry-After`` hint in seconds
    (0 when the answer had none) so callers can implement their own
    backoff even when the client's automatic saturation retries are off.
    """

    def __init__(self, status: int, message: str,
                 payload: Optional[Dict[str, Any]] = None,
                 retry_after: float = 0.0) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.payload = payload or {}
        self.retry_after = retry_after


class ServiceClient:
    """Blocking JSON client with timeout and retry-with-backoff."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.1,
        saturation_retries: int = 0,
        max_backoff: float = 10.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if saturation_retries < 0:
            raise ValueError("saturation_retries must be non-negative")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        #: How many times a 429/503 answer is retried after honouring the
        #: server's ``Retry-After``.  0 (the default) surfaces saturation
        #: immediately as :class:`ServiceError` — load generators and batch
        #: submitters opt in.
        self.saturation_retries = saturation_retries
        self.max_backoff = max_backoff
        self._rng = rng if rng is not None else random.Random()
        self._prev_sleep = backoff

    def _jitter_sleep(self) -> float:
        """Next decorrelated-jitter delay: ``min(cap, U(base, prev*3))``.

        Decorrelated jitter (vs. plain exponential) keeps a thundering
        herd of identical clients from re-colliding on every retry round —
        exactly the scenario the load-test harness creates on purpose.
        """
        self._prev_sleep = min(
            self.max_backoff,
            self._rng.uniform(self.backoff, self._prev_sleep * 3),
        )
        return self._prev_sleep

    # ------------------------------------------------------------- plumbing --

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Any:
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        headers = {"Content-Type": "application/json"} if body else {}
        attempt = 0
        saturation_attempt = 0
        while True:
            request = urllib.request.Request(
                self.base_url + path, data=data, headers=headers,
                method=method,
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout,
                ) as response:
                    raw = response.read()
                    content_type = response.headers.get("Content-Type", "")
                    if "json" in content_type:
                        return json.loads(raw)
                    return raw.decode("utf-8")
            except urllib.error.HTTPError as exc:
                raw = exc.read()
                try:
                    payload = json.loads(raw)
                    message = payload.get("error", raw.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    payload, message = {}, repr(raw[:200])
                retry_after = 0.0
                header = exc.headers.get("Retry-After") if exc.headers else None
                if header:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        retry_after = 0.0
                if (
                    exc.code in (429, 503)
                    and saturation_attempt < self.saturation_retries
                ):
                    # Saturation is transient by definition: honour the
                    # server's Retry-After (at least), add decorrelated
                    # jitter so a herd of clients spreads out, and retry.
                    saturation_attempt += 1
                    time.sleep(max(retry_after, self._jitter_sleep()))
                    continue
                # Any other HTTP error answer: no retry, surface the
                # server's error document.
                raise ServiceError(
                    exc.code, message, payload, retry_after=retry_after,
                ) from None
            except (urllib.error.URLError, ConnectionError, OSError) as exc:
                if attempt >= self.retries:
                    raise ServiceError(
                        0, f"cannot reach {self.base_url}: {exc}",
                    ) from None
                time.sleep(self._jitter_sleep())
                attempt += 1

    # ------------------------------------------------------------ endpoints --

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self, format: str = "json") -> Any:
        if format == "json":
            return self._request("GET", "/metrics?format=json")
        return self._request("GET", "/metrics")

    def fleet_status(self) -> Dict[str, Any]:
        """Worker/task table of the coordinator."""
        return self._request("GET", "/v1/fleet/status")

    def fleet_drain(self, worker: str = "") -> Dict[str, Any]:
        """Flag one worker (or the whole fleet) to drain."""
        return self._request("POST", "/v1/fleet/drain", body={"worker": worker})

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a raw protocol body; returns ``{"id", "deduped", ...}``.

        The wire version is stamped into the envelope unless the caller
        already set one (e.g. to probe a server's version handling).
        """
        if "v" not in payload:
            payload = {"v": PROTOCOL_VERSION, **payload}
        return self._request("POST", "/v1/jobs", body=payload)

    def submit_sweep(
        self,
        workloads: Union[str, Sequence[str], SweepSpec],
        variant: str = "pc",
        priority: int = 0,
        backend: str = "",
        **axes: Sequence[Any],
    ) -> Dict[str, Any]:
        """Submit a sweep: workload name(s) + ``**axes``, or a whole
        :class:`SweepSpec` (the same object ``api.sweep`` accepts)."""
        if isinstance(workloads, SweepSpec):
            if axes:
                raise TypeError(
                    "pass axes inside the SweepSpec, not alongside it"
                )
            spec = workloads
            workloads = list(spec.workloads)
            variant = spec.variant
            axes = {name: list(values) for name, values in spec.axes}
        if isinstance(workloads, str):
            workloads = [workloads]
        payload: Dict[str, Any] = {
            "kind": "sweep",
            "priority": priority,
            "sweep": {
                "workloads": list(workloads),
                "variant": variant,
                "axes": {
                    name: [getattr(v, "value", v) for v in values]
                    for name, values in axes.items()
                },
            },
        }
        if backend:
            payload["backend"] = backend
        return self.submit(payload)

    def submit_simulate(
        self,
        workload: Union[str, JobSpec, Dict[str, Any]],
        variant: str = "pc",
        priority: int = 0,
        backend: str = "",
        contexts: int = 1,
        scheduler: str = "",
        **core_changes: Any,
    ) -> Dict[str, Any]:
        """Submit one simulation.

        *workload* is a workload name, a whole :class:`JobSpec`, or a
        JobSpec-shaped mapping — the same inputs ``api.run`` accepts;
        explicit keyword arguments override the spec's fields.
        ``contexts > 1`` submits an SMT run (*workload* may then be a mix
        spec) under the *scheduler* policy.
        """
        if not isinstance(workload, str):
            spec = JobSpec.coerce(workload)
            changes = dict(spec.core_changes)
            changes.update(core_changes)
            core_changes = changes
            if variant == "pc":
                variant = spec.variant
            if not backend:
                backend = spec.backend
            if contexts == 1:
                contexts = spec.contexts
            if not scheduler:
                scheduler = spec.scheduler
            workload = spec.workload
        payload: Dict[str, Any] = {
            "kind": "simulate",
            "priority": priority,
            "job": {
                "workload": workload,
                "variant": variant,
                "core_changes": {
                    name: getattr(value, "value", value)
                    for name, value in core_changes.items()
                },
            },
        }
        if contexts != 1:
            payload["job"]["contexts"] = contexts
        if scheduler:
            payload["job"]["scheduler"] = scheduler
        if backend:
            payload["backend"] = backend
        return self.submit(payload)

    def submit_figure(
        self,
        figure: str,
        workloads: Optional[Sequence[str]] = None,
        priority: int = 0,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": "figure", "figure": figure, "priority": priority,
        }
        if workloads is not None:
            payload["workloads"] = list(workloads)
        return self.submit(payload)

    def status(self, job_id: str, wait: float = 0.0) -> Dict[str, Any]:
        """The job's status document.

        With ``wait > 0`` the server holds the request until the job is
        terminal or *wait* seconds pass (it caps the wait itself), so one
        request replaces a round of polls.
        """
        if wait > 0:
            return self._request("GET", f"/v1/jobs/{job_id}?wait={wait:.3f}")
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def result(self, job_id: str, timeout: float = 600.0) -> Any:
        """Block until *job_id* finishes and return its decoded result.

        Sweep and simulate jobs return the real
        :class:`~repro.engine.runner.RunReport` (a
        :class:`~repro.engine.runner.ShardedReport` for ``shards > 1``
        simulate jobs); estimate jobs the real
        :class:`~repro.estimate.EpiEstimate`; figure jobs the figure's
        data dict.  A failed or cancelled job raises
        :class:`ServiceError` carrying the server's error text.
        """
        status = self.wait(job_id, timeout=timeout)
        if status["state"] != "done":
            raise ServiceError(
                0,
                f"job {job_id} {status['state']}: "
                f"{status.get('error', '')}",
                status,
            )
        result = status.get("result") or {}
        if "report" in result:
            return serialize.from_jsonable(result["report"])
        if result.get("kind") == "estimate":
            return serialize.from_jsonable(result["estimate"])
        if result.get("kind") == "figure":
            return result.get("data")
        return result

    # ------------------------------------------------------------- helpers --

    def wait(self, job_id: str, timeout: float = 600.0) -> Dict[str, Any]:
        """Long-poll until the job is terminal; returns its final status.

        Each request asks the server to hold it until the job finishes
        (``status(job_id, wait=...)``), with the wait kept below the
        socket timeout, so the answer arrives as the job ends.  Raises
        ``TimeoutError`` past *timeout*.
        """
        deadline = time.monotonic() + timeout
        while True:
            began = time.monotonic()
            asked = max(0.0, min(deadline - began, self.timeout / 2))
            status = self.status(job_id, wait=asked)
            if status["state"] in _TERMINAL_STATES:
                return status
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s"
                )
            if now - began < asked:
                time.sleep(min(_EARLY_ANSWER_PAUSE, deadline - now))

    @staticmethod
    def decode_report(
        status: Dict[str, Any],
    ) -> Union[RunReport, ShardedReport]:
        """The real :class:`RunReport` inside a terminal sweep/simulate
        status payload — simulation results and all — or the
        :class:`ShardedReport` of a ``shards > 1`` simulate job."""
        if status.get("state") != "done":
            raise ValueError(
                f"job is {status.get('state')!r}, not done: "
                f"{status.get('error', '')}"
            )
        result = status.get("result") or {}
        if "report" not in result:
            raise ValueError(
                f"{result.get('kind', 'unknown')!r} payload has no report"
            )
        return serialize.from_jsonable(result["report"])

    @staticmethod
    def decode(payload: Any) -> Any:
        """Decode any :mod:`repro.engine.serialize` tagged payload."""
        return serialize.from_jsonable(payload)
