"""The fleet worker: a thin pull-loop around :class:`EngineRunner`.

A worker joins a coordinator (``mlpsim worker --join URL``, or the
in-process worker ``mlpsim serve`` starts), adopts the coordinator's
experiment settings and shared artifact-cache directory (both ride back
on the registration response — this is what guarantees bit-identical
results), then loops:

    long-poll ``/v1/fleet/lease``  →  run the leased specs through the
    local EngineRunner (figure tasks, which carry a whole request,
    through :class:`~repro.service.executor.ServiceEngine`)  →
    POST the serialized results to ``/v1/fleet/complete``

With more than one engine process the runner keeps one process pool for
the worker's life, and each lease asks for at least one task per
process, so the pool stays warm and busy across leases and jobs.

Liveness is a heartbeat thread renewing the lease every TTL/3.  If the
process dies (or the machine does), the missed heartbeats evict it and the
coordinator requeues its leased tasks — nothing on the worker side needs
to clean up, which is the point of pull-based leasing.

SIGTERM drains gracefully: the current batch finishes, results are
posted, the worker deregisters and exits 0.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import traceback
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

# The leased job path, imported before the worker joins rather than inside
# its first lease: shard tasks run through repro.shard, and every task
# resolves a built-in backend (importing repro.core.backends registers them).
from .. import shard  # noqa: F401
from ..core import backends  # noqa: F401
from ..engine import serialize
from ..engine.runner import EngineRunner, JobSpec, default_workers
from ..errors import ReproError
from ..harness.experiment import ExperimentSettings
from ..obs.context import format_traceparent, trace_context
from ..obs.logging import get_logger, setup_logging
from ..obs.options import ObsOptions
from ..service.executor import ServiceEngine
from ..service.protocol import JobRequest

__all__ = ["FleetWorker", "run_worker"]

_log = get_logger("fleet.worker")


class WorkerJoinError(ReproError):
    code = "fleet-join-failed"


class FleetWorker:
    """One worker process (or thread, in tests) attached to a coordinator."""

    def __init__(
        self,
        coordinator_url: str,
        name: str = "",
        cache_dir: Optional[str] = None,
        runner_workers: Optional[int] = 1,
        lease_batch: int = 0,
        lease_wait: float = 10.0,
        obs: Optional[ObsOptions] = None,
        max_connect_failures: int = 10,
        job_timeout: float = 600.0,
    ) -> None:
        self.url = coordinator_url.rstrip("/")
        self.name = name
        self.cache_dir_override = cache_dir
        self.runner_workers = (
            default_workers() if runner_workers is None else runner_workers
        )
        self.lease_batch = lease_batch
        self.lease_wait = lease_wait
        self.obs = obs
        self.max_connect_failures = max_connect_failures
        self.job_timeout = job_timeout
        self.worker_id = ""
        self.lease_ttl = 5.0
        self.settings: Optional[ExperimentSettings] = None
        self.runner: Optional[EngineRunner] = None
        self.engine: Optional[ServiceEngine] = None
        self.tasks_done = 0
        self._stop = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None
        #: Federation baseline: counter totals at the moment of the latest
        #: registration.  Heartbeats report ``current − baseline``, so a
        #: worker that rejoins after an eviction (same process, fresh
        #: registration) never re-reports counts the coordinator already
        #: folded into its retained per-name totals.
        self._metrics_baseline: Dict[str, float] = {}

    # ---------------------------------------------------------------- HTTP --

    def _post(self, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            f"{self.url}{path}",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=60.0) as response:
            return json.loads(response.read().decode("utf-8"))

    # ---------------------------------------------------------------- join --

    def join(self) -> "FleetWorker":
        """Register with the coordinator and adopt its configuration."""
        try:
            grant = self._post(
                "/v1/fleet/register",
                {
                    "name": self.name or f"worker-{os.getpid()}",
                    "pid": os.getpid(),
                    "capabilities": {"runner_workers": self.runner_workers},
                },
            )
        except (urllib.error.URLError, ConnectionError, OSError) as exc:
            raise WorkerJoinError(
                f"cannot join coordinator at {self.url}: {exc}"
            ) from exc
        self.worker_id = grant["worker"]
        self.name = grant.get("name", self.name)
        self.lease_ttl = float(grant.get("lease_ttl", 5.0))
        if not self.lease_batch:
            self.lease_batch = max(
                int(grant.get("lease_batch", 1)) or 1, self.runner_workers,
            )
        self.settings = serialize.from_jsonable(grant["settings"])
        # A null directory in the grant means the coordinator persists
        # nothing, so this worker keeps its artifacts in memory too.
        cache_dir: Any = self.cache_dir_override or grant.get("cache_dir")
        self.runner = EngineRunner(
            settings=self.settings,
            cache_dir=cache_dir,
            workers=self.runner_workers,
            job_timeout=self.job_timeout,
            retries=0,  # the fleet router owns retry policy
            obs=self.obs,
            keep_pool=True,
        )
        self.engine = ServiceEngine(self.runner)
        self._metrics_baseline = self._metrics_snapshot()
        _log.info(
            "joined %s as %s (%s); lease ttl %.1fs, batch %d",
            self.url, self.name, self.worker_id,
            self.lease_ttl, self.lease_batch,
        )
        return self

    # ------------------------------------------------------------- metrics --

    def _metrics_snapshot(self) -> Dict[str, float]:
        """Absolute cumulative counters for this worker process."""
        totals: Dict[str, float] = {
            "tasks_done_total": float(self.tasks_done),
        }
        if self.runner is not None:
            totals.update(self.runner.telemetry.totals())
        return totals

    def _metrics_report(self) -> Dict[str, float]:
        """Totals since the registration baseline (the heartbeat payload)."""
        snapshot = self._metrics_snapshot()
        return {
            name: value - self._metrics_baseline.get(name, 0.0)
            for name, value in snapshot.items()
        }

    # ------------------------------------------------------------ liveness --

    def _heartbeat_loop(self) -> None:
        interval = max(0.2, self.lease_ttl / 3.0)
        while not self._stop.wait(interval):
            try:
                answer = self._post(
                    "/v1/fleet/heartbeat",
                    {
                        "worker": self.worker_id,
                        "metrics": self._metrics_report(),
                    },
                )
            except urllib.error.HTTPError as exc:
                if exc.code == 410:  # evicted; the pull loop will exit
                    _log.warning("lease lost (evicted); stopping")
                    self._stop.set()
                    return
            except (urllib.error.URLError, ConnectionError, OSError):
                continue  # transient; the pull loop tracks failures
            else:
                if answer.get("shutdown"):
                    self._stop.set()
                    return

    def request_stop(self) -> None:
        """Finish the in-flight batch, then leave (SIGTERM handler)."""
        self._stop.set()

    # ----------------------------------------------------------- pull loop --

    @staticmethod
    def _lease_traceparent(entry: Dict[str, Any]) -> str:
        """The lease's trace context (synthesized from ``corr`` if absent)."""
        traceparent = entry.get("traceparent")
        if isinstance(traceparent, str) and traceparent:
            return traceparent
        return format_traceparent(str(entry.get("corr", "") or ""), "")

    def _execute(self, leases: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        assert self.runner is not None
        # One lease batch can mix tasks from several jobs; group by trace
        # context so every span and event this worker emits lands in the
        # right job's tree (restored via repro.obs.context.trace_context —
        # the receiving half of cross-process propagation).
        groups: Dict[str, List[Dict[str, Any]]] = {}
        for entry in leases:
            groups.setdefault(self._lease_traceparent(entry), []).append(entry)
        results = []
        for traceparent, entries in groups.items():
            spec_entries = [e for e in entries if "spec" in e]
            specs: List[JobSpec] = [
                serialize.from_jsonable(e["spec"]) for e in spec_entries
            ]
            with trace_context(traceparent):
                for entry in entries:
                    if "request" in entry:
                        results.append(self._run_request(entry, traceparent))
                if not specs:
                    continue
                report = self.runner.run(specs)
            for entry, job_result in zip(spec_entries, report.jobs):
                results.append(
                    {
                        "task": entry["task"],
                        "traceparent": traceparent,
                        "result": serialize.to_jsonable(job_result),
                    }
                )
                state = "ok" if job_result.ok else job_result.status
                _log.info(
                    "task %s %s (%.2fs): %s",
                    entry["task"], state, job_result.wall_time,
                    job_result.spec.describe(),
                )
        return results

    def _run_request(
        self, entry: Dict[str, Any], traceparent: str,
    ) -> Dict[str, Any]:
        """Run one whole-request task (a figure job).

        The completion carries the job's result payload, or the error and
        traceback that the coordinator reports if no retry succeeds.
        """
        assert self.engine is not None
        request = JobRequest.from_dict(entry["request"])
        answer: Dict[str, Any] = {
            "task": entry["task"], "traceparent": traceparent,
        }
        started = time.perf_counter()
        try:
            answer["payload"] = self.engine.execute(request)
        except Exception as exc:
            answer["error"] = f"{type(exc).__name__}: {exc}"
            answer["traceback"] = traceback.format_exc()
        _log.info(
            "task %s %s (%.2fs): %s", entry["task"],
            "failed" if "error" in answer else "ok",
            time.perf_counter() - started, request.describe(),
        )
        return answer

    def _post_complete(self, results: List[Dict[str, Any]]) -> bool:
        """Deliver one batch of results to the coordinator; never raises.

        Returns ``False`` only when the worker should exit (evicted, or
        the coordinator stayed unreachable).  Any other coordinator error
        is logged and the batch dropped — the work itself is safe: our
        leases are released when we leave or get evicted, the tasks
        requeue, and the next lease recomputes them.
        Crashing a healthy worker over one bad answer would turn a single
        failed job into a fleet-wide cascade.
        """
        payload = {"worker": self.worker_id, "results": results}
        failures = 0
        while True:
            try:
                self._post("/v1/fleet/complete", payload)
                return True
            except urllib.error.HTTPError as exc:
                if exc.code == 410:
                    # Evicted mid-batch: the tasks were requeued and
                    # another worker recomputes them.
                    _log.warning("evicted before completing; exiting")
                    return False
                _log.error(
                    "coordinator rejected completion batch (HTTP %d); "
                    "dropping %d result(s) and continuing",
                    exc.code, len(results),
                )
                return True
            except (urllib.error.URLError, ConnectionError, OSError):
                failures += 1
                if failures >= self.max_connect_failures:
                    _log.error(
                        "coordinator unreachable after %d completion "
                        "attempts; exiting", failures,
                    )
                    return False
                if self._stop.wait(min(5.0, 0.2 * failures)):
                    _log.warning(
                        "stopping with %d undelivered result(s)",
                        len(results),
                    )
                    return True

    def run(self) -> int:
        """Join (if needed) and pull work until drained or stopped."""
        if not self.worker_id:
            self.join()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="fleet-heartbeat", daemon=True,
        )
        self._heartbeat_thread.start()
        failures = 0
        exit_code = 0
        try:
            while not self._stop.is_set():
                try:
                    answer = self._post(
                        "/v1/fleet/lease",
                        {
                            "worker": self.worker_id,
                            "max": self.lease_batch,
                            "wait": self.lease_wait,
                        },
                    )
                    failures = 0
                except urllib.error.HTTPError as exc:
                    if exc.code == 410:
                        _log.warning("evicted by the coordinator; exiting")
                        exit_code = 1
                        break
                    failures += 1
                    time.sleep(min(5.0, 0.2 * failures))
                    continue
                except (urllib.error.URLError, ConnectionError, OSError):
                    failures += 1
                    if failures >= self.max_connect_failures:
                        _log.error(
                            "coordinator unreachable after %d attempts; "
                            "exiting", failures,
                        )
                        exit_code = 1
                        break
                    time.sleep(min(5.0, 0.2 * failures))
                    continue
                if answer.get("shutdown"):
                    break
                leases = answer.get("tasks") or []
                if not leases:
                    if answer.get("draining"):
                        _log.info("drained; leaving the fleet")
                        break
                    continue
                results = self._execute(leases)
                self.tasks_done += len(results)
                if not self._post_complete(results):
                    exit_code = 1
                    break
        finally:
            self._stop.set()
            try:
                self._post("/v1/fleet/leave", {"worker": self.worker_id})
            except Exception:
                pass
            if self._heartbeat_thread is not None:
                self._heartbeat_thread.join(timeout=2.0)
            if self.runner is not None:
                self.runner.close()
        return exit_code


def run_worker(
    coordinator_url: str,
    name: str = "",
    cache_dir: Optional[str] = None,
    runner_workers: Optional[int] = 1,
    lease_batch: int = 0,
    log_level: str = "info",
    log_format: str = "text",
    obs: Optional[ObsOptions] = None,
) -> int:
    """Run a fleet worker in the foreground until drained or signalled."""
    setup_logging(level=log_level, fmt=log_format)
    worker = FleetWorker(
        coordinator_url,
        name=name,
        cache_dir=cache_dir,
        runner_workers=runner_workers,
        lease_batch=lease_batch,
        obs=obs,
    )

    def _signalled(signum: int, frame: Any) -> None:
        worker.request_stop()

    signal.signal(signal.SIGTERM, _signalled)
    signal.signal(signal.SIGINT, _signalled)
    worker.join()
    code = worker.run()
    _log.info(
        "worker %s exiting with %d task(s) done", worker.name,
        worker.tasks_done,
    )
    return code
