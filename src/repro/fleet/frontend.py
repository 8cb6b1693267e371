"""The fleet coordinator: asyncio HTTP front end + job → task orchestration.

This is the repo's one server: ``mlpsim serve`` runs a coordinator plus
one in-process :class:`~repro.fleet.worker.FleetWorker` thread (``--workers
0`` leaves it out, for hosts whose workers join with ``mlpsim worker
--join``).  One coordinator process owns:

- an **asyncio front end** (stdlib ``asyncio.start_server``, HTTP/1.1 with
  keep-alive) speaking the versioned wire protocol — clients,
  ``repro.api.connect`` and ``mlpsim submit`` — plus the ``/v1/fleet/*``
  worker protocol,
- a bounded, deduplicating :class:`~repro.service.jobqueue.JobQueue`, with
  admission control in front of it (429/503 + ``Retry-After``,
  priority-aware shedding),
- a :class:`~repro.fleet.registry.WorkerRegistry` (lease heartbeats,
  drain, eviction) and a :class:`~repro.fleet.router.Router` (priority,
  then arrival order; bounded per-worker in-flight),
- the content-addressed :class:`~repro.engine.cache.ArtifactCache` as the
  cluster-wide shared result store: completed job payloads are published
  under the request signature, the coordinator's experiment settings and
  the hash of the code that computes them, so dedup-by-request-hash
  extends across nodes and across coordinator restarts, but never across
  settings or code.

The coordinator runs **no simulations and loads no traces** (``estimate``
is pure arithmetic and is answered on submit).  A dispatcher thread
expands each claimed job into tasks: sweep grid points, the shards of a
sharded simulate's :class:`ShardPlan` (read from the quiescent log an
earlier run recorded in the shared store; one whole-trace shard, which
records it, until then), or — for a figure job, whose driver cannot be
split — one task carrying the whole request.  Claiming is gated on the
*pending* backlog only, so the dispatcher plans the next job while the
current one's tasks execute.  Workers long-poll
``/v1/fleet/lease``, execute specs through their own
:class:`~repro.engine.runner.EngineRunner` (whole requests through
:class:`~repro.service.executor.ServiceEngine`), and POST results back.  A
worker SIGKILLed mid-shard misses its heartbeats, is evicted, and its
leased shards requeue — the next worker to lease them recomputes them
from their start (completed shards are never recomputed) and the merged
result stays bit-identical to a single-node run.

Nothing on the job path sleep-polls.  The dispatcher waits on the
router's condition; lease long-polls and ``GET /v1/jobs/<id>?wait=S``
status long-polls park as futures on the event loop (no executor thread)
and are woken through ``call_soon_threadsafe`` when tasks become pending
or the job turns terminal.  Both waits are capped by
:data:`MAX_LONG_POLL`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import threading
import time
import urllib.parse
from collections import deque
from dataclasses import replace
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ..core.backend import backend_names
from ..engine import serialize
from ..engine.cache import (
    ArtifactCache,
    content_key,
    resolve_cache_dir,
    result_salt,
)
from ..engine.runner import JobResult, RunReport, ShardedReport
from ..errors import ProtocolError, SaturatedError, UnknownWorkerError
from ..harness.experiment import ExperimentSettings
from ..obs.context import format_traceparent, new_span_id
from ..obs.logging import get_logger, setup_logging
from ..obs.metrics import MetricsRegistry
from ..obs.options import ObsOptions
from ..obs.trace import Tracer
from ..service.jobqueue import Job, JobQueue, JobState, QueueFullError
from ..service.executor import (
    estimate_payload,
    sharded_payload,
    simulate_payload,
    sweep_payload,
)
from ..service.protocol import PROTOCOL_VERSION, JobRequest, parse_job_request
from .federation import MetricsFederation
from .registry import WorkerRegistry
from .router import RequestOutcome, Router, TaskRecord
from .worker import FleetWorker

__all__ = ["FleetCoordinator", "local_worker", "serve_fleet"]

_log = get_logger("fleet")

#: Submission bodies larger than this are rejected outright (64 KiB is
#: orders of magnitude above any legitimate sweep spec).  Worker
#: completions carry whole serialized results and get a much larger
#: allowance.
MAX_BODY_BYTES = 64 * 1024
MAX_WORKER_BODY_BYTES = 64 * 1024 * 1024

#: The artifact-cache kind under which finished job payloads are published
#: (the cluster-wide dedup-by-request-hash store; see ``_result_key``).
RESULT_KIND = "service-result"

#: Server-side cap on every long-poll: a lease's ``wait`` and a status
#: request's ``?wait=``.
MAX_LONG_POLL = 30.0

#: The wakeup key of parked lease long-polls (job ids key status polls).
_LEASE_KEY = "/v1/fleet/lease"


class _LoopWakeups:
    """Keyed wakeups for coroutines on one event loop, fired from any thread.

    A waiter arms a future under a key (:meth:`arm`) *before* it checks
    its condition, awaits the future, then disarms it (:meth:`disarm`).
    :meth:`fire` resolves every future armed under a key through
    ``call_soon_threadsafe``.  Because the state change precedes the fire
    and arming precedes the check, no wakeup is lost, and a key nobody
    waits on costs no loop wakeup.  A parked waiter is a bare future: it
    holds no executor thread.
    """

    def __init__(self) -> None:
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._waiters: Dict[str, Set["asyncio.Future[None]"]] = {}

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    def fire(self, key: str) -> None:
        """Wake *key*'s waiters; safe from any thread."""
        loop = self._loop
        if loop is None or key not in self._waiters:
            return
        with contextlib.suppress(RuntimeError):  # the loop has closed
            loop.call_soon_threadsafe(self._wake, key)

    def _wake(self, key: str) -> None:
        for future in self._waiters.pop(key, ()):
            if not future.done():
                future.set_result(None)

    def arm(self, key: str) -> "asyncio.Future[None]":
        """A future *key*'s next :meth:`fire` resolves (loop thread only)."""
        assert self._loop is not None
        future: "asyncio.Future[None]" = self._loop.create_future()
        self._waiters.setdefault(key, set()).add(future)
        return future

    def disarm(self, key: str, future: "asyncio.Future[None]") -> None:
        waiters = self._waiters.get(key)
        if waiters is not None:
            waiters.discard(future)
            if not waiters:
                del self._waiters[key]


class FleetCoordinator:
    """One coordinator: queue + registry + router + asyncio front end."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        settings: Optional[ExperimentSettings] = None,
        cache_dir: Any = "auto",
        queue_capacity: int = 256,
        history: int = 1024,
        lease_ttl: float = 5.0,
        max_inflight: int = 2,
        lease_batch: int = 4,
        task_retries: int = 2,
        default_backend: str = "",
        obs: Optional[ObsOptions] = None,
    ) -> None:
        self.settings = settings or ExperimentSettings()
        self.cache_dir = cache_dir
        self.artifacts = ArtifactCache(resolve_cache_dir(cache_dir))
        self.queue = JobQueue(capacity=queue_capacity, history=history)
        self.registry = WorkerRegistry(lease_ttl=lease_ttl)
        self.router = Router(
            self.registry, max_inflight=max_inflight, retries=task_retries,
        )
        self.lease_batch = lease_batch
        self.default_backend = default_backend
        self.metrics = MetricsRegistry()
        self.federation = MetricsFederation(self.metrics)
        self._wakeups = _LoopWakeups()
        self.router.on_ready = self._wake_leases
        self.queue.on_retire = self._job_retired
        #: job id -> root span id of its coordinator-side "fleet_job" span
        #: (the parent every worker hangs its spans under via traceparent).
        self._job_spans: Dict[str, str] = {}
        self.obs = obs
        self._tracer: Optional[Tracer] = None
        if obs is not None and obs.trace_dir is not None:
            self._tracer = obs.open_tracer()
        self.draining = False
        self._stopping = False
        self._started_at: Optional[float] = None
        #: sharded job id -> (ShardPlan or None, its spec); the lock
        #: guards job assembly.
        self._assembly_lock = threading.Lock()
        self._plans: Dict[str, Any] = {}
        #: Completion-rate window for Retry-After: monotonic timestamps of
        #: the latest task completions.
        self._rate_lock = threading.Lock()
        self._completions: Deque[float] = deque(maxlen=50)

        self._frontend = _AsyncFrontend(self, host, port)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="fleet-dispatcher", daemon=True,
        )
        self._evictor = threading.Thread(
            target=self._eviction_loop, name="fleet-evictor", daemon=True,
        )
        self._register_metrics()

    # ----------------------------------------------------------- lifecycle --

    @property
    def host(self) -> str:
        return self._frontend.host

    @property
    def port(self) -> int:
        return self._frontend.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "FleetCoordinator":
        self._started_at = time.time()
        self._frontend.start()
        self._dispatcher.start()
        self._evictor.start()
        return self

    def stop(self) -> None:
        self._stopping = True
        self.queue.close()
        self.router.wake()
        self._frontend.stop()
        self._dispatcher.join(timeout=5.0)
        self._evictor.join(timeout=5.0)
        # A stopped coordinator is cyclic garbage (the router, the queue
        # and the front end point back at it), so what it holds lives
        # until a full collection: drop the cached payloads now.
        self.artifacts.clear_memory()

    def begin_drain(self) -> None:
        """Stop accepting new submissions (503 + Retry-After)."""
        self.draining = True
        self._wake_leases()  # an idle fleet's backlog is drained already

    def _wake_leases(self) -> None:
        """Make parked lease long-polls re-check for work and drain flags."""
        self._wakeups.fire(_LEASE_KEY)

    def _job_retired(self, job: Job) -> None:
        """JobQueue hook: close the job's trace span, then wake its status
        long-polls — a client woken by the end of its job finds the
        span's end in the trace."""
        self._end_job_trace(job)
        self._wakeups.fire(job.id)
        if self.draining:
            self._wake_leases()  # the backlog may just have drained

    async def wait_terminal(self, job: Job, timeout: float) -> None:
        """Park until *job* is terminal or *timeout* seconds pass."""
        done = self._wakeups.arm(job.id)
        try:
            if not job.state.terminal:
                await asyncio.wait((done,), timeout=timeout)
        finally:
            self._wakeups.disarm(job.id, done)

    def drain(self, timeout: float = 30.0) -> int:
        """Drain: refuse new work, let workers finish the backlog.

        Returns the number of abandoned work items (jobs still queued or
        tasks still outstanding when the timeout expired) — ``0`` means a
        clean drain.  Workers are flagged to drain afterwards either way,
        so they finish in-flight tasks, deregister and exit.
        """
        self.begin_drain()
        deadline = time.monotonic() + max(0.0, timeout)
        while time.monotonic() < deadline:
            counts = self.router.counts()
            outstanding = (
                self.queue.depth()
                + self.queue.counts_by_state()["running"]
                + counts["pending"] + counts["leased"]
            )
            if outstanding == 0:
                break
            time.sleep(0.05)
        counts = self.router.counts()
        abandoned = (
            self.queue.depth()
            + self.queue.counts_by_state()["running"]
        )
        # running jobs already count their live tasks; don't double-count
        abandoned = max(abandoned, counts["pending"] + counts["leased"])
        self.registry.drain(None)
        self._wake_leases()
        return abandoned

    # ----------------------------------------------------------- admission --

    def _retry_after_hint(self) -> float:
        """Predicted seconds until the backlog has drained appreciably.

        Outstanding tasks (pending + leased) divided by the measured task
        completion rate over the last 50 completions, clamped to [1, 60]
        seconds.  Before two completions have been seen the hint falls
        back to the lease TTL.
        """
        with self._rate_lock:
            done = len(self._completions)
            if done < 2:
                return self.registry.lease_ttl
            span = self._completions[-1] - self._completions[0]
        rate = (done - 1) / max(1e-6, span)
        counts = self.router.counts()
        outstanding = counts["pending"] + counts["leased"]
        return min(60.0, max(1.0, outstanding / rate))

    def submit(self, payload: Any) -> Tuple[Job, bool]:
        """Parse, admission-check and enqueue one submission."""
        request = parse_job_request(payload)
        if request.kind == "estimate":
            # Pure arithmetic — answered inline on the coordinator: the
            # job is created done, with no worker lease and no queue wait.
            job, deduped = self.queue.submit(
                request, result=estimate_payload(request),
            )
            if not deduped:
                self._record_finish(job)
            self.metrics.inc("jobs_submitted_total")
            if deduped:
                self.metrics.inc("jobs_deduped_total")
            return job, deduped
        if self.draining or self._stopping:
            raise SaturatedError(
                "coordinator is draining; not accepting new jobs",
                status=503, retry_after=self._retry_after_hint(),
            )
        # Cluster-wide dedup: a completed payload for this exact request
        # under these settings short-circuits the whole fleet.
        sentinel = object()
        cached = self.artifacts.get(
            RESULT_KIND, self._result_key(request), default=sentinel,
        )
        if cached is not sentinel:
            job, deduped = self.queue.submit(request, result=cached)
            if not deduped:
                self.metrics.inc("fleet_result_cache_hits_total")
                _log.info(
                    "job %s served from the cluster result store", job.id,
                )
            self.metrics.inc("jobs_submitted_total")
            if deduped:
                self.metrics.inc("jobs_deduped_total")
            return job, deduped
        if not self.registry.live_workers():
            raise SaturatedError(
                "no live workers registered with the fleet",
                status=503, retry_after=self.registry.lease_ttl,
            )
        try:
            job, deduped = self.queue.submit(request)
        except QueueFullError:
            shed = self.queue.shed_lowest_below(request.priority)
            if shed is None:
                raise SaturatedError(
                    f"queue is full ({self.queue.capacity} jobs pending)",
                    status=429, retry_after=self._retry_after_hint(),
                ) from None
            self.metrics.inc("jobs_shed_total")
            _log.warning(
                "job %s shed (priority %d) for a priority-%d submission",
                shed.id, shed.priority, request.priority,
            )
            job, deduped = self.queue.submit(request)
        self.metrics.inc("jobs_submitted_total")
        if deduped:
            self.metrics.inc("jobs_deduped_total")
        else:
            self._begin_job_trace(job)
        return job, deduped

    def _result_key(self, request: JobRequest) -> str:
        """Where a request's finished payload lives in the result store.

        The request signature alone would let a coordinator running other
        warmup/measure/seed/calibrate settings on the same cache directory
        answer with a result measured under the wrong settings.  The
        result salt hashes the code that computes and encodes a payload
        beyond its artifacts (figure drivers, shard merging, SMT, the wire
        codec and its version), so an edit there is a miss, never a stale
        answer.
        """
        return content_key(
            RESULT_KIND, result_salt(), self.settings, request.signature(),
        )

    def _begin_job_trace(self, job: Job) -> None:
        """Open the job's root span — the anchor of its cross-process tree.

        Emitted as explicit ``span_start``/``span_end`` event pairs (not
        ``Tracer.span``) because the span opens on the front-end thread
        and closes from whichever thread lands the last task.
        """
        if self._tracer is None:
            return
        root = new_span_id()
        self._job_spans[job.id] = root
        self._tracer.event(
            "span_start", "fleet_job", corr=job.id, span="", id=root,
            parent="", job=job.id, priority=job.priority,
        )

    def _end_job_trace(self, job: Job) -> None:
        root = self._job_spans.pop(job.id, None)
        if root is None or self._tracer is None:
            return
        finished = job.finished_at or time.time()
        self._tracer.event(
            "span_end", "fleet_job", corr=job.id, span="", id=root,
            parent="", job=job.id, dur=max(0.0, finished - job.submitted_at),
            state=job.state.value,
        )

    # ------------------------------------------------------------ expansion --

    def _expand_job(self, job: Job) -> List[TaskRecord]:
        """Expand one claimed job into leasable engine tasks."""
        request = job.request
        backend = request.backend or self.default_backend
        if request.kind == "figure":
            return [
                TaskRecord(
                    id=f"{job.id}.0",
                    job_id=job.id,
                    index=0,
                    spec=None,
                    request=replace(request, backend=backend),
                    priority=job.priority,
                    corr=job.id,
                )
            ]
        if request.kind == "sweep":
            assert request.sweep is not None
            specs = request.sweep.to_jobs()
            if backend:
                specs = [replace(spec, backend=backend) for spec in specs]
        else:
            assert request.job is not None
            spec = request.job
            if backend:
                spec = replace(spec, backend=backend)
            if request.shards > 1:
                from ..shard.execute import shard_plan_for, shard_specs

                # A plan from the recorded quiescent log, or None: then one
                # whole-trace shard runs and records it.  Either way the
                # coordinator loads no trace and runs no simulation.
                plan = shard_plan_for(
                    self.artifacts, self.settings, spec, request.shards,
                )
                specs = shard_specs(spec, plan)
                with self._assembly_lock:
                    self._plans[job.id] = (plan, spec)
            else:
                specs = [spec]
        return [
            TaskRecord(
                id=f"{job.id}.{index}",
                job_id=job.id,
                index=index,
                spec=spec,
                priority=job.priority,
                corr=job.id,
            )
            for index, spec in enumerate(specs)
        ]

    def _dispatch_loop(self) -> None:
        """Claim queued jobs and hand their tasks to the router.

        Claiming is gated on the router's *pending* backlog
        (:meth:`Router.wants_more`): the next job is claimed and planned
        while the current one's tasks execute, and once every worker slot
        is covered by pending tasks, jobs stay queued and the bounded
        queue provides the admission-control backpressure.  The gate is
        waited on, not polled: the router wakes this thread on every
        lease, completion and release.
        """
        while not self._stopping:
            if not self.router.wait_for_room(timeout=1.0):
                continue
            job = self.queue.next_job(timeout=0.1)
            if job is None:
                if self.queue.closed:  # closed and drained
                    return
                continue
            try:
                tasks = self._expand_job(job)
            except Exception as exc:
                import traceback as tb

                self.queue.finish(
                    job,
                    error=f"{type(exc).__name__}: {exc}",
                    tb=tb.format_exc(),
                )
                self._record_finish(job)
                _log.warning(
                    "job %s failed to expand: %s: %s",
                    job.id, type(exc).__name__, exc,
                )
                continue
            self.router.add_tasks(tasks)
            if self._tracer is not None:
                self._tracer.event(
                    "fleet_job_expanded", corr=job.id, job=job.id,
                    tasks=len(tasks),
                )
            _log.info(
                "job %s expanded into %d task(s): %s",
                job.id, len(tasks), job.request.describe(),
            )

    def _eviction_loop(self) -> None:
        """Evict lease-expired workers and requeue their tasks."""
        interval = max(0.2, self.registry.lease_ttl / 3.0)
        while not self._stopping:
            time.sleep(interval)
            for worker in self.registry.evict_expired():
                released = self.router.release_worker(worker.id)
                self.federation.forget(worker.id)
                _log.warning(
                    "worker %s (%s) evicted after %.1fs without a "
                    "heartbeat; %d task(s) requeued",
                    worker.name, worker.id,
                    self.registry.lease_ttl * self.registry.grace,
                    len(released),
                )
                if self._tracer is not None:
                    self._tracer.event(
                        "fleet_worker_evicted", worker=worker.id,
                        name=worker.name, requeued=len(released),
                    )
                jobs = {task.job_id for task in released}
                for job_id in jobs:
                    self._maybe_finish_job(job_id)

    # ----------------------------------------------------------- completion --

    def _record_completion_rate(self) -> None:
        with self._rate_lock:
            self._completions.append(time.monotonic())

    def complete_task(
        self,
        worker_id: str,
        task_id: str,
        result: JobResult | RequestOutcome,
    ) -> Optional[TaskRecord]:
        task = self.router.complete(worker_id, task_id, result)
        if task is None:
            # Stale: the task's job already finished or failed and its
            # table entries were forgotten while this worker was still
            # executing.  Harmless — acknowledge and move on.
            self.metrics.inc("fleet_tasks_stale_total")
            _log.info(
                "ignoring stale completion of %s from %s (job already "
                "settled)", task_id, worker_id,
            )
            return None
        if task.state == "done":
            self.metrics.inc("fleet_tasks_done_total")
            self.metrics.observe(
                "task_exec", max(0.0, time.monotonic() - task.leased_at),
            )
            self._record_completion_rate()
        elif task.state == "pending":
            self.metrics.inc("fleet_tasks_retried_total")
        elif task.state == "failed":
            self.metrics.inc("fleet_tasks_failed_total")
        if self._tracer is not None:
            self._tracer.event(
                "fleet_task_complete", corr=task.corr, task=task.id,
                worker=worker_id, state=task.state,
            )
        self._maybe_finish_job(task.job_id)
        return task

    def _maybe_finish_job(self, job_id: str) -> None:
        """Assemble and publish a job once its last task lands."""
        with self._assembly_lock:
            job = self.queue.get(job_id)
            if job is None or job.state is not JobState.RUNNING:
                return
            tasks = self.router.job_tasks(job_id)
            if not tasks:
                return
            failed = [t for t in tasks if t.state == "failed"]
            if failed:
                worst = failed[0]
                error = (
                    worst.result.error if worst.result is not None
                    else "task abandoned"
                )
                self.router.drop_job(job_id)
                self.queue.finish(
                    job,
                    error=(
                        f"{len(failed)} task(s) failed after "
                        f"{worst.attempts} attempt(s): {error}"
                    ),
                    tb=getattr(worst.result, "traceback", ""),
                )
                self.router.forget_job(job_id)
                self._plans.pop(job_id, None)
                self._record_finish(job)
                _log.warning("job %s failed: %s", job_id, error)
                return
            if not all(t.state == "done" for t in tasks):
                return
            assemble_started = time.monotonic()
            try:
                payload = self._assemble(job, tasks)
                self.metrics.observe(
                    "job_assemble", time.monotonic() - assemble_started,
                )
            except Exception as exc:
                import traceback as tb

                self.queue.finish(
                    job,
                    error=f"{type(exc).__name__}: {exc}",
                    tb=tb.format_exc(),
                )
                self.router.forget_job(job_id)
                self._plans.pop(job_id, None)
                self._record_finish(job)
                return
            if self.artifacts.directory is not None:
                self.artifacts.put(
                    RESULT_KIND, self._result_key(job.request), payload,
                )
            self.queue.finish(job, result=payload)
            self.router.forget_job(job_id)
            self._plans.pop(job_id, None)
            self._record_finish(job)
            _log.info(
                "job %s done in %.3fs across %d task(s)",
                job_id,
                (job.finished_at or 0.0) - (job.started_at or 0.0),
                len(tasks),
            )

    def _assemble(self, job: Job, tasks: List[TaskRecord]) -> Dict[str, Any]:
        """Merge per-task results into the job's result payload.

        A sweep or simulate decodes to the same report however many
        workers ran its tasks (tests assert it is bit-identical to a
        direct run); a figure task already carries its payload.
        """
        request = job.request
        if request.kind == "figure":
            (outcome,) = (t.result for t in tasks)
            if not isinstance(outcome, RequestOutcome):
                raise ProtocolError(
                    f"{request.kind} task answered with an engine result"
                )
            return outcome.payload
        results = [t.result for t in tasks]
        assert all(r is not None for r in results)
        wall = time.time() - (job.started_at or time.time())
        workers = max(1, len(self.registry.live_workers()))
        report = RunReport(jobs=list(results), wall_time=wall, workers=workers)

        if request.kind == "sweep":
            assert request.sweep is not None
            return sweep_payload(request.sweep, report)

        assert request.kind == "simulate" and request.job is not None
        planned = self._plans.get(job.id)
        if planned is None:
            return simulate_payload(report)

        from ..shard.execute import settled_plan
        from ..shard.merge import merge_results

        plan, base_spec = planned
        merged = merge_results([r.result for r in results])
        # The merge is the only reader of the per-shard results: ship each
        # shard's epochs once, inside `merged`.  A shard's attempts are its
        # task's leases, so a re-leased shard reports each execution.
        sharded = ShardedReport(
            spec=base_spec,
            plan=settled_plan(plan, request.shards, merged),
            jobs=[
                replace(r, result=None, attempts=t.attempts)
                for r, t in zip(results, tasks)
            ],
            rounds=max(t.attempts for t in tasks),
            wall_time=wall,
            workers=workers,
            merged=merged,
        )
        return sharded_payload(request.shards, sharded)

    def _record_finish(self, job: Job) -> None:
        self.metrics.inc(f"jobs_{job.state.value}_total")
        if job.finished_at is None:
            return
        if job.started_at is not None:
            self.metrics.observe("job_exec", job.finished_at - job.started_at)
            self.metrics.observe(
                "job_queue_wait", job.started_at - job.submitted_at,
            )
        self.metrics.observe("job_latency", job.finished_at - job.submitted_at)

    # -------------------------------------------------------- worker wire --

    def register_worker(self, body: Dict[str, Any]) -> Dict[str, Any]:
        name = str(body.get("name", ""))
        pid = int(body.get("pid", 0) or 0)
        capabilities = body.get("capabilities") or {}
        worker = self.registry.register(
            name=name, pid=pid, capabilities=capabilities,
        )
        self.router.wake()  # new slots may open the claiming gate
        _log.info(
            "worker %s registered as %s (pid %d)",
            worker.name, worker.id, pid,
        )
        if self._tracer is not None:
            self._tracer.event(
                "fleet_worker_registered", worker=worker.id, name=worker.name,
            )
        directory = self.artifacts.directory
        return {
            "worker": worker.id,
            "name": worker.name,
            "lease_ttl": self.registry.lease_ttl,
            "lease_batch": self.lease_batch,
            "max_inflight": self.router.max_inflight,
            "settings": serialize.to_jsonable(self.settings),
            "cache_dir": str(directory) if directory is not None else None,
            "default_backend": self.default_backend,
        }

    def heartbeat_worker(self, body: Dict[str, Any]) -> Dict[str, Any]:
        worker = self.registry.heartbeat(str(body.get("worker", "")))
        reported = body.get("metrics")
        if isinstance(reported, dict) and reported:
            self.federation.report(worker.id, worker.name, reported)
        return {
            "ok": True,
            "draining": worker.draining or self.draining,
            "shutdown": self._stopping,
        }

    def _backlog_drained(self) -> bool:
        """No runnable work anywhere: queued, running, pending or leased."""
        counts = self.router.counts()
        return (
            self.queue.depth() == 0
            and self.queue.counts_by_state()["running"] == 0
            and counts["pending"] == 0
            and counts["leased"] == 0
        )

    async def lease_tasks(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Long-poll lease: waits up to ``wait`` seconds for work.

        A coordinator-level drain does NOT send workers away while backlog
        remains — draining means "finish what's accepted, refuse what
        isn't", so workers keep leasing until the backlog is gone.  A
        per-worker drain flag sends that worker away immediately.

        The poll parks on the event loop and is woken when tasks become
        pending or settle, or a drain or stop begins.  While parked it
        still wakes every ``lease_ttl / 3`` to renew the worker's lease,
        as a heartbeat would.
        """
        worker_id = str(body.get("worker", ""))
        max_tasks = max(1, int(body.get("max", 1)))
        wait = min(float(body.get("wait", 0.0)), MAX_LONG_POLL)
        deadline = time.monotonic() + wait
        renew = self.registry.lease_ttl / 3.0
        granted: List[TaskRecord] = []
        while True:
            ready = self._wakeups.arm(_LEASE_KEY)
            try:
                worker = self.registry.heartbeat(worker_id)  # renews too
                granted = self.router.lease(worker_id, max_tasks)
                remaining = deadline - time.monotonic()
                if (
                    granted
                    or worker.draining
                    or self._stopping
                    or (self.draining and self._backlog_drained())
                    or remaining <= 0
                ):
                    break
                await asyncio.wait((ready,), timeout=min(remaining, renew))
            finally:
                self._wakeups.disarm(_LEASE_KEY, ready)
        for task in granted:
            self.metrics.observe(
                "task_lease_wait",
                max(0.0, task.leased_at - task.queued_at),
            )
            if self._tracer is not None:
                self._tracer.event(
                    "fleet_task_leased", corr=task.corr, task=task.id,
                    worker=worker_id, attempt=task.attempts,
                )
        return {
            "tasks": [self._lease_entry(task) for task in granted],
            "draining": worker.draining or (
                self.draining and self._backlog_drained()
            ),
            "shutdown": self._stopping,
        }

    def _lease_entry(self, task: TaskRecord) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "task": task.id,
            "corr": task.corr,
            # The W3C-traceparent-style context the worker restores
            # before executing, so its spans join the job's tree.
            "traceparent": format_traceparent(
                task.corr, self._job_spans.get(task.job_id, ""),
            ),
            "attempt": task.attempts,
            "priority": task.priority,
        }
        if task.spec is None:
            assert task.request is not None
            entry["request"] = task.request.to_dict()
        else:
            entry["spec"] = serialize.to_jsonable(task.spec)
        return entry

    def complete_tasks(self, body: Dict[str, Any]) -> Dict[str, Any]:
        worker_id = str(body.get("worker", ""))
        self.registry.heartbeat(worker_id)
        results = body.get("results")
        if not isinstance(results, list) or not results:
            raise ProtocolError("'results' must be a non-empty list")
        # Validate the whole batch BEFORE applying any of it: a malformed
        # entry mid-list must not leave the worker holding an error answer
        # for a partially-accepted batch.
        parsed: List[Tuple[str, JobResult | RequestOutcome]] = []
        for position, entry in enumerate(results):
            if not isinstance(entry, dict) or "task" not in entry or not (
                {"result", "payload", "error"} & entry.keys()
            ):
                raise ProtocolError(
                    f"results[{position}] needs 'task' and 'result' fields "
                    f"('payload' or 'error' for a figure task)"
                )
            task_id = str(entry["task"])
            if "result" not in entry:
                # A whole-request task (a figure) answers with its
                # payload, or the error and traceback of the attempt.
                parsed.append((task_id, RequestOutcome(
                    payload=entry.get("payload"),
                    error=str(entry.get("error", "")),
                    traceback=str(entry.get("traceback", "")),
                )))
                continue
            try:
                parsed.append((task_id, JobResult.from_dict(entry["result"])))
            except Exception as exc:
                raise ProtocolError(
                    f"results[{position}] ({task_id!r}) does not "
                    f"decode as a JobResult: {exc}"
                ) from None
        accepted = 0
        stale = 0
        for task_id, result in parsed:
            task = self.complete_task(worker_id, task_id, result)
            if task is None:
                stale += 1
            elif task.state in ("done", "failed", "pending"):
                accepted += 1
        return {"ok": True, "accepted": accepted, "stale": stale}

    def leave_worker(self, body: Dict[str, Any]) -> Dict[str, Any]:
        worker_id = str(body.get("worker", ""))
        worker = self.registry.deregister(worker_id)
        released = self.router.release_worker(worker_id)
        self.federation.forget(worker_id)
        for job_id in {task.job_id for task in released}:
            self._maybe_finish_job(job_id)
        if worker is not None:
            _log.info("worker %s (%s) left", worker.name, worker.id)
        return {"ok": True, "released": len(released)}

    def drain_worker(self, body: Dict[str, Any]) -> Dict[str, Any]:
        raw = body.get("worker")
        self.registry.drain(str(raw) if raw else None)
        self._wake_leases()
        return {"ok": True}

    def fleet_status(self) -> Dict[str, Any]:
        counts = self.router.counts()
        return {
            "workers": self.registry.status_payload(),
            "tasks": counts,
            "task_table": self.router.status_payload()[:200],
            "queue_depth": self.queue.depth(),
            "jobs": self.queue.counts_by_state(),
            "outstanding_tasks": counts["pending"] + counts["leased"],
            "retry_after_hint": round(self._retry_after_hint(), 1),
            "draining": self.draining,
        }

    # -------------------------------------------------------------- health --

    def health_payload(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "mode": "fleet",
            "uptime_seconds": (
                time.time() - self._started_at if self._started_at else 0.0
            ),
            "queue_depth": self.queue.depth(),
            "jobs": self.queue.counts_by_state(),
            "backends": list(backend_names()),
            "fleet": {
                "workers": len(self.registry.live_workers()),
                "accepting_workers": len(self.registry.accepting_workers()),
                "tasks": self.router.counts(),
            },
            "dispatcher_alive": self._dispatcher.is_alive(),
            "settings": {
                "warmup": self.settings.warmup,
                "measure": self.settings.measure,
                "seed": self.settings.seed,
                "calibrate": self.settings.calibrate,
            },
            "workers": len(self.registry.live_workers()),
        }

    # -------------------------------------------------------------- metrics --

    def _register_metrics(self) -> None:
        self.metrics.gauge(
            "queue_depth", self.queue.depth, help="jobs waiting to run",
        )
        for state in JobState:
            self.metrics.gauge(
                f"jobs_{state.value}",
                lambda s=state.value: self.queue.counts_by_state()[s],
                help=f"jobs currently in state {state.value}",
            )
        self.metrics.gauge(
            "fleet_workers", lambda: len(self.registry.live_workers()),
            help="workers holding a fresh lease",
        )
        self.metrics.gauge(
            "fleet_workers_draining",
            lambda: sum(
                1 for w in self.registry.live_workers() if w.draining
            ),
            help="live workers flagged to drain",
        )
        self.metrics.gauge(
            "fleet_workers_evicted_total",
            lambda: self.registry.evicted_total,
            help="workers evicted after missed heartbeats",
        )
        for state in ("pending", "leased", "done", "failed"):
            self.metrics.gauge(
                f"fleet_tasks_{state}",
                lambda s=state: self.router.counts()[s],
                help=f"fleet tasks currently {state}",
            )
        self.metrics.gauge(
            "fleet_tasks_requeued_total",
            lambda: self.router.requeued_total,
            help="task leases returned to the pending pool",
        )
        self.metrics.gauge(
            "fleet_lease_age_oldest_seconds",
            lambda: max(
                (age for ages in self.router.lease_ages().values()
                 for age in ages),
                default=0.0,
            ),
            help="age of the oldest live lease across the fleet",
        )
        self.artifacts.stats.register_metrics(self.metrics)
        self.metrics.describe(
            "jobs_submitted_total", "job submissions accepted",
        )
        self.metrics.describe(
            "jobs_deduped_total",
            "submissions attached to an identical in-flight job",
        )
        self.metrics.describe(
            "fleet_result_cache_hits_total",
            "submissions served from the cluster result store",
        )
        self.metrics.describe(
            "jobs_shed_total",
            "queued jobs shed for higher-priority submissions",
        )
        self.metrics.describe("http_requests_total", "HTTP requests served")
        self.metrics.describe(
            "fleet_tasks_done_total", "tasks completed successfully",
        )
        self.metrics.describe(
            "fleet_tasks_retried_total", "failed task attempts requeued",
        )
        self.metrics.describe(
            "fleet_tasks_failed_total", "tasks that exhausted their retries",
        )
        self.metrics.describe(
            "fleet_tasks_stale_total",
            "late completions ignored because their job already settled",
        )
        self.metrics.describe(
            "task_exec", "task execution time (lease to completion)",
        )
        self.metrics.describe(
            "task_lease_wait", "time tasks spent pending before a lease",
        )
        self.metrics.describe(
            "job_assemble", "time merging/serializing finished job payloads",
        )
        self.metrics.describe(
            "job_exec", "job execution time (dispatch to finish)",
        )
        self.metrics.describe(
            "job_queue_wait", "time jobs spent queued before dispatch",
        )
        self.metrics.describe(
            "job_latency", "end-to-end job latency (submit to finish)",
        )

    def refresh_fleet_gauges(self) -> None:
        """Materialize per-worker labeled gauges for a ``/metrics`` scrape.

        Point-in-time state (inflight leases, oldest lease age) is rebuilt
        from the router/registry on every scrape, so series for departed
        workers disappear instead of freezing at a stale value.  Federated
        *counter* series (``fleet_worker_*_total``) are the opposite —
        retained forever by :class:`MetricsFederation` — because counters
        must never step backward.
        """
        inflight = self.router.inflight_by_worker()
        ages = self.router.lease_ages()
        for family in ("fleet_worker_inflight", "fleet_worker_lease_age_oldest"):
            self.metrics.remove_labeled(family)
        for worker in self.registry.live_workers():
            labels = {"worker": worker.name}
            self.metrics.set_labeled(
                "fleet_worker_inflight", labels,
                float(inflight.get(worker.id, 0)),
                help="tasks currently leased, by worker",
            )
            self.metrics.set_labeled(
                "fleet_worker_lease_age_oldest", labels,
                max(ages.get(worker.id, [0.0]), default=0.0),
                help="age in seconds of the worker's oldest live lease",
            )


# ------------------------------------------------------------ HTTP front --


class _AsyncFrontend:
    """Minimal asyncio HTTP/1.1 server bound to one coordinator.

    Runs its own event loop on a daemon thread so the coordinator embeds
    in tests and the CLI alike.  Every connection is a coroutine, so
    hundreds of concurrent clients (and long-polling workers) cost one
    thread total.
    """

    def __init__(
        self, coordinator: FleetCoordinator, host: str, port: int,
    ) -> None:
        self.coordinator = coordinator
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="fleet-http", daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise self._startup_error

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.coordinator._wakeups.bind(loop)
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle_conn, self.host, self.port)
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._server = server
        sockname = server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    # ------------------------------------------------------------ protocol --

    @staticmethod
    async def _offload(func: Any, *args: Any) -> Any:
        """Run blocking work on the default executor.

        Anything that can take more than a few milliseconds — parsing a
        multi-MB worker completion, merging shard results, serializing a
        finished job payload — must leave the event-loop thread, or every
        heartbeat and lease long-poll stalls behind it and a long enough
        stall (lease_ttl * grace) mass-evicts perfectly healthy workers.
        """
        return await asyncio.get_running_loop().run_in_executor(
            None, func, *args,
        )

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                try:
                    method, target, version = (
                        request_line.decode("latin-1").split()
                    )
                except ValueError:
                    await self._write(
                        writer, 400, {"error": "malformed request line"},
                        close=True,
                    )
                    break
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length") or 0)
                    if length < 0:
                        raise ValueError(length)
                except ValueError:
                    await self._write(
                        writer, 400,
                        {"error": "invalid Content-Length header"},
                        close=True,
                    )
                    break
                limit = (
                    MAX_WORKER_BODY_BYTES
                    if target.startswith("/v1/fleet/") else MAX_BODY_BYTES
                )
                if length > limit:
                    await self._write(
                        writer, 413,
                        {"error": f"request body exceeds {limit} bytes"},
                        close=True,
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                status, payload, extra, is_text = await self._dispatch(
                    method, target, body,
                )
                keep = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                await self._write(
                    writer, status, payload, extra_headers=extra,
                    is_text=is_text, close=not keep,
                )
                if not keep:
                    break
        except (
            asyncio.IncompleteReadError, ConnectionError, TimeoutError,
        ):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        extra_headers: Optional[Dict[str, str]] = None,
        is_text: bool = False,
        close: bool = False,
    ) -> None:
        if is_text:
            body = str(payload).encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            if isinstance(payload, dict):
                payload = {"v": PROTOCOL_VERSION, **payload}
            # Serialized off-loop: a finished sharded job's payload can be
            # tens of MB, and dumps of that size on the loop thread would
            # stall every heartbeat behind it.
            body = await self._offload(self._encode_json, payload)
            content_type = "application/json"
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            409: "Conflict", 410: "Gone", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "OK")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Server: repro-fleet/1.0",
        ]
        for key, value in (extra_headers or {}).items():
            head.append(f"{key}: {value}")
        if close:
            head.append("Connection: close")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

    @staticmethod
    def _encode_json(payload: Any) -> bytes:
        # No indent: any indent makes CPython fall back from its C encoder
        # to the pure-Python one (~12x slower on a finished sharded job).
        return json.dumps(payload).encode("utf-8")

    async def _dispatch(
        self, method: str, target: str, body: bytes,
    ) -> Tuple[int, Any, Optional[Dict[str, str]], bool]:
        """Route one request; never raises (errors become JSON answers)."""
        coord = self.coordinator
        coord.metrics.inc("http_requests_total")
        path, _, query = target.partition("?")
        path = path.rstrip("/") or "/"
        try:
            payload: Any = None
            if body:
                try:
                    if len(body) > MAX_BODY_BYTES:
                        # Worker completion bodies run to tens of MB;
                        # parse them off-loop (see _offload).
                        payload = await self._offload(json.loads, body)
                    else:
                        payload = json.loads(body)
                except json.JSONDecodeError as exc:
                    raise ProtocolError(f"invalid JSON: {exc}") from None
            if method == "GET":
                return await self._get(path, query)
            if method == "POST":
                return await self._post(path, payload)
            if method == "DELETE":
                return self._delete(path)
            return 404, {"error": f"unsupported method {method}"}, None, False
        except ProtocolError as exc:
            return (
                exc.status,
                {"error": str(exc), "code": exc.code},
                None, False,
            )
        except SaturatedError as exc:
            return (
                exc.status,
                {
                    "error": str(exc),
                    "code": exc.code,
                    "retry_after": exc.retry_after,
                },
                {"Retry-After": str(exc.retry_after)},
                False,
            )
        except UnknownWorkerError as exc:
            return 410, {"error": str(exc), "code": exc.code}, None, False
        except QueueFullError as exc:
            hint = max(1, int(round(coord._retry_after_hint())))
            return (
                429,
                {"error": str(exc), "code": "saturated",
                 "retry_after": hint},
                {"Retry-After": str(hint)},
                False,
            )
        except Exception as exc:  # never leak a traceback as a reset socket
            return (
                500,
                {
                    "error": f"{type(exc).__name__}: {exc}",
                    "code": getattr(exc, "code", "internal-error"),
                },
                None, False,
            )

    async def _get(
        self, path: str, query: str,
    ) -> Tuple[int, Any, Optional[Dict[str, str]], bool]:
        coord = self.coordinator
        if path == "/healthz":
            return 200, coord.health_payload(), None, False
        if path == "/metrics":
            coord.refresh_fleet_gauges()
            if "format=json" in query:
                return 200, coord.metrics.to_dict(), None, False
            return 200, coord.metrics.render_prometheus(), None, True
        if path == "/v1/fleet/status":
            return 200, coord.fleet_status(), None, False
        if path == "/v1/jobs":
            jobs = [
                {
                    "id": job.id,
                    "kind": job.request.kind,
                    "description": job.request.describe(),
                    "state": job.state.value,
                    "priority": job.priority,
                }
                for job in coord.queue.list_jobs()
            ]
            return 200, {"jobs": jobs}, None, False
        if path.startswith("/v1/jobs/"):
            job = coord.queue.get(path.rsplit("/", 1)[1])
            if job is None:
                return 404, {"error": "unknown job id"}, None, False
            wait = _query_wait(query)
            if wait > 0:
                await coord.wait_terminal(job, wait)
            return 200, coord.queue.status(job), None, False
        return 404, {"error": f"unknown path {path}"}, None, False

    async def _post(
        self, path: str, payload: Any,
    ) -> Tuple[int, Any, Optional[Dict[str, str]], bool]:
        coord = self.coordinator
        if path == "/v1/jobs":
            if payload is None:
                raise ProtocolError("request body must be JSON")
            job, deduped = coord.submit(payload)
            return (
                202,
                {
                    "id": job.id,
                    "state": job.state.value,
                    "deduped": deduped,
                    "description": job.request.describe(),
                },
                None, False,
            )
        if path.startswith("/v1/fleet/"):
            if payload is None:
                payload = {}
            verb = path.rsplit("/", 1)[1]
            if verb == "register":
                return 200, coord.register_worker(payload), None, False
            if verb == "heartbeat":
                return 200, coord.heartbeat_worker(payload), None, False
            if verb == "lease":
                return 200, await coord.lease_tasks(payload), None, False
            if verb == "complete":
                # Decoding JobResults, job assembly and shard merging are
                # seconds of work for big jobs — run them off-loop so
                # heartbeats and lease polls keep flowing.
                answer = await self._offload(coord.complete_tasks, payload)
                return 200, answer, None, False
            if verb == "leave":
                # Can trigger job assembly via _maybe_finish_job.
                answer = await self._offload(coord.leave_worker, payload)
                return 200, answer, None, False
            if verb == "drain":
                return 200, coord.drain_worker(payload), None, False
        return 404, {"error": f"unknown path {path}"}, None, False

    def _delete(
        self, path: str,
    ) -> Tuple[int, Any, Optional[Dict[str, str]], bool]:
        coord = self.coordinator
        if not path.startswith("/v1/jobs/"):
            return 404, {"error": f"unknown path {path}"}, None, False
        job_id = path.rsplit("/", 1)[1]
        job = coord.queue.get(job_id)
        if job is None:
            return 404, {"error": "unknown job id"}, None, False
        outcome = coord.queue.cancel(job_id)
        if outcome:
            coord.metrics.inc("jobs_cancelled_total")
            return (
                200,
                {
                    "id": job_id,
                    "cancelled": True,
                    "detached": outcome == "detached",
                },
                None, False,
            )
        return (
            409,
            {
                "error": (
                    f"job {job_id} is {job.state.value}; only queued jobs "
                    f"can be cancelled"
                ),
            },
            None, False,
        )


def _query_wait(query: str) -> float:
    """The ``?wait=`` seconds of a status request, capped at
    :data:`MAX_LONG_POLL`; 0 when absent."""
    values = urllib.parse.parse_qs(query).get("wait")
    if not values:
        return 0.0
    try:
        wait = float(values[-1])
    except ValueError:
        wait = math.nan
    if not (math.isfinite(wait) and wait >= 0):
        raise ProtocolError(
            f"'wait' must be a non-negative number of seconds, "
            f"got {values[-1]!r}"
        )
    return min(wait, MAX_LONG_POLL)


# ----------------------------------------------------------------- serve --


def local_worker(
    coordinator: FleetCoordinator,
    workers: Optional[int] = None,
    job_timeout: float = 600.0,
    obs: Optional[ObsOptions] = None,
) -> FleetWorker:
    """Join an in-process worker to *coordinator* (what ``mlpsim serve``
    runs next to it) and return it; run its pull loop on a thread.

    *workers* sizes its runner pool.  Its engine and simulation counters
    also appear unprefixed on the coordinator's ``/metrics``.
    """
    worker = FleetWorker(
        coordinator.url, name="local", runner_workers=workers,
        job_timeout=job_timeout, obs=obs,
    ).join()
    assert worker.runner is not None
    worker.runner.telemetry.register_metrics(
        coordinator.metrics, workers=worker.runner.workers,
    )
    return worker


def serve_fleet(
    host: str = "127.0.0.1",
    port: int = 8137,
    settings: Optional[ExperimentSettings] = None,
    cache_dir: Any = "auto",
    workers: Optional[int] = None,
    job_timeout: float = 600.0,
    queue_capacity: int = 256,
    lease_ttl: float = 5.0,
    max_inflight: int = 2,
    lease_batch: int = 4,
    drain_timeout: float = 30.0,
    log_level: str = "info",
    log_format: str = "text",
    obs: Optional[ObsOptions] = None,
    default_backend: str = "",
) -> int:
    """Run ``mlpsim serve`` in the foreground until interrupted.

    Starts a coordinator plus one in-process worker whose runner pool has
    *workers* processes (default ``min(4, cpus)``); ``workers=0`` runs the
    coordinator alone, for workers that join with ``mlpsim worker --join``.

    SIGTERM (and Ctrl-C) triggers a graceful drain: stop accepting, let
    workers finish in-flight work within *drain_timeout*, then exit —
    nonzero when work had to be abandoned.  Shells start
    backgrounded children with SIGINT ignored, so ``kill -TERM`` is how
    scripts shut the server down.
    """
    setup_logging(level=log_level, fmt=log_format)
    log = get_logger("fleet")
    coordinator = FleetCoordinator(
        host=host,
        port=port,
        settings=settings,
        cache_dir=cache_dir,
        queue_capacity=queue_capacity,
        lease_ttl=lease_ttl,
        max_inflight=max_inflight,
        lease_batch=lease_batch,
        obs=obs,
        default_backend=default_backend,
    )
    stop_event = threading.Event()

    def _signalled(signum: int, frame: Any) -> None:
        stop_event.set()

    signal.signal(signal.SIGTERM, _signalled)
    signal.signal(signal.SIGINT, _signalled)
    coordinator.start()
    local: Optional[threading.Thread] = None
    if workers != 0:
        worker = local_worker(coordinator, workers, job_timeout, obs)
        local = threading.Thread(
            target=worker.run, name="fleet-local-worker", daemon=True,
        )
        local.start()
    log.info("repro service listening on %s", coordinator.url)
    if obs is not None and obs.trace_dir is not None:
        log.info("tracing to %s", obs.trace_dir)
    stop_event.wait()
    log.info("draining (timeout %.1fs)", drain_timeout)
    abandoned = coordinator.drain(timeout=drain_timeout)
    # Give workers one heartbeat round to observe the drain flag and leave.
    deadline = time.monotonic() + coordinator.registry.lease_ttl
    while coordinator.registry.count() and time.monotonic() < deadline:
        time.sleep(0.05)
    if local is not None:
        local.join(timeout=coordinator.registry.lease_ttl)
    coordinator.stop()
    log.info("shutting down (%d work item(s) abandoned)", abandoned)
    return 1 if abandoned else 0
