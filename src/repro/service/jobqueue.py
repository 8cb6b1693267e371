"""Bounded priority job queue with in-flight deduplication.

Lifecycle of a job::

    queued ──> running ──> done | failed
       └────────────────> cancelled        (only while still queued)
    done                                   (answered at submit)

Submissions are deduplicated while in flight: a request whose content
signature (:meth:`repro.service.protocol.JobRequest.signature`) matches a
*queued or running* job attaches to that job instead of enqueueing new
work — N identical concurrent submissions execute once and fan the result
out to every poller.  Completed jobs leave the dedup index immediately (a
re-submission after completion is new work; the artifact cache, not the
queue, is the cross-run memoization layer).

Scheduling is highest-priority-first, FIFO within a priority.  The queue is
bounded: submissions beyond ``capacity`` *pending* jobs raise
:class:`QueueFullError` (the server answers 429).  Terminal jobs are kept
for status polling, bounded by ``history`` — the oldest terminal jobs are
forgotten first.

:class:`~repro.fleet.frontend.FleetCoordinator` drains the queue from its
dispatcher thread, expanding each claimed job into worker tasks.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from .protocol import JobRequest

__all__ = ["Job", "JobQueue", "JobState", "QueueFullError"]


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class QueueFullError(Exception):
    """The bounded queue rejected a submission."""


@dataclass
class Job:
    """One tracked job and everything ``GET /v1/jobs/<id>`` reports."""

    id: str
    request: JobRequest
    key: str
    priority: int = 0
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Any = None
    error: str = ""
    traceback: str = ""
    #: Submissions that folded into this one while it was in flight.
    dedup_count: int = 0
    done_event: threading.Event = field(default_factory=threading.Event)

    def status_payload(self) -> Dict[str, Any]:
        """The JSON status document (result included once terminal)."""
        payload: Dict[str, Any] = {
            "id": self.id,
            "kind": self.request.kind,
            "description": self.request.describe(),
            "state": self.state.value,
            "priority": self.priority,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "dedup_count": self.dedup_count,
        }
        if self.state is JobState.FAILED:
            payload["error"] = self.error
            payload["traceback"] = self.traceback
        if self.state is JobState.DONE:
            payload["result"] = self.result
        return payload


class JobQueue:
    """Thread-safe bounded priority queue with an in-flight dedup index."""

    def __init__(self, capacity: int = 256, history: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if history < 1:
            raise ValueError("history must be positive")
        self.capacity = capacity
        self.history = history
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, str] = {}  # signature -> job id
        self._heap: List[Tuple[int, int, str]] = []  # (-priority, seq, id)
        self._seq = itertools.count()
        self._terminal_order: List[str] = []
        self._closed = False
        #: Called (under the queue lock) with each job that turns terminal,
        #: before its ``done_event`` is set — what closes the job's trace
        #: span and wakes ``GET /v1/jobs/<id>?wait=`` long-polls.  Must
        #: not block.
        self.on_retire: Optional[Callable[[Job], None]] = None

    # ---------------------------------------------------------- submission --

    def submit(
        self, request: JobRequest, result: Any = None,
    ) -> Tuple[Job, bool]:
        """Enqueue *request*, or attach to an identical in-flight job.

        With a *result* (an answer the caller already has: an estimate, or
        a hit in a shared result store) a new job is created ``done``
        under the same lock acquisition, so no dispatcher can claim it
        first; it takes no queue slot.

        Returns ``(job, deduped)``.  Raises :class:`QueueFullError` when the
        pending backlog is at capacity, ``RuntimeError`` once closed.
        """
        key = request.signature()
        with self._ready:
            if self._closed:
                raise RuntimeError("job queue is closed")
            existing_id = self._inflight.get(key)
            if existing_id is not None:
                job = self._jobs[existing_id]
                job.dedup_count += 1
                return job, True
            job = Job(
                id=uuid.uuid4().hex[:12],
                request=request,
                key=key,
                priority=request.priority,
                submitted_at=time.time(),
            )
            if result is not None:
                self._jobs[job.id] = job
                job.started_at = job.submitted_at
                job.result = result
                self._retire(job, JobState.DONE)
                return job, False
            pending = sum(
                1 for queued in self._jobs.values()
                if queued.state is JobState.QUEUED
            )
            if pending >= self.capacity:
                raise QueueFullError(
                    f"queue is full ({self.capacity} jobs pending)"
                )
            self._jobs[job.id] = job
            self._inflight[key] = job.id
            heapq.heappush(
                self._heap, (-job.priority, next(self._seq), job.id),
            )
            self._ready.notify()
            return job, False

    # ---------------------------------------------------------- dispatcher --

    def next_job(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Claim the next queued job, marking it running.

        Blocks up to *timeout* (forever when ``None``) and returns ``None``
        on timeout or once the queue is closed and drained.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._ready:
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    job = self._jobs.get(job_id)
                    if job is None or job.state is not JobState.QUEUED:
                        continue  # cancelled (or forgotten) while queued
                    job.state = JobState.RUNNING
                    job.started_at = time.time()
                    return job
                if self._closed:
                    return None
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._ready.wait(remaining)

    def finish(
        self,
        job: Job,
        result: Any = None,
        error: str = "",
        tb: str = "",
    ) -> None:
        """Resolve a running job to ``done`` (no error) or ``failed``."""
        with self._ready:
            if job.state is not JobState.RUNNING:
                return
            job.result = result
            job.error = error
            job.traceback = tb
            self._retire(job, JobState.FAILED if error else JobState.DONE)

    def shed_lowest_below(self, priority: int) -> Optional[Job]:
        """Cancel the lowest-priority queued job strictly below *priority*.

        Priority-aware shedding for admission control: when the queue is
        full and a higher-priority submission arrives, the least urgent
        (and, among equals, newest) pending job is sacrificed to make
        room.  Returns the shed job, or ``None`` when nothing qualifies
        (every pending job is at least as urgent as the newcomer).
        """
        with self._ready:
            victim: Optional[Job] = None
            for job in self._jobs.values():
                if job.state is not JobState.QUEUED:
                    continue
                if job.priority >= priority:
                    continue
                if (
                    victim is None
                    or job.priority < victim.priority
                    or (
                        job.priority == victim.priority
                        and job.submitted_at > victim.submitted_at
                    )
                ):
                    victim = job
            if victim is None:
                return None
            victim.error = (
                f"shed: displaced by a priority-{priority} submission "
                f"while the queue was full"
            )
            self._retire(victim, JobState.CANCELLED)
            return victim

    # ------------------------------------------------------------- clients --

    def cancel(self, job_id: str) -> str:
        """Cancel a *queued* job.  A cancelled job is never executed.

        Returns a truthy outcome string, or ``""`` (falsy) when the job is
        unknown, already running with no co-waiters, or already terminal —
        the service cannot interrupt a simulation in flight.

        Deduplicated jobs detach instead of cancelling: while other
        submissions are still attached to the same in-flight work
        (``dedup_count > 0``), one client's cancel releases *its* claim
        (``"detached"``) and the shared job keeps running for the rest.
        Only the last remaining claim actually cancels the job.
        """
        with self._ready:
            job = self._jobs.get(job_id)
            if job is None or job.state.terminal:
                return ""
            if job.dedup_count > 0:
                job.dedup_count -= 1
                return "detached"
            if job.state is not JobState.QUEUED:
                return ""
            self._retire(job, JobState.CANCELLED)
            return "cancelled"

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def status(self, job: Job) -> Dict[str, Any]:
        """*job*'s status document, read under the queue lock: a terminal
        state it shows has had its ``on_retire`` hook run."""
        with self._lock:
            return job.status_payload()

    def list_jobs(self) -> List[Job]:
        """Every tracked job, oldest submission first."""
        with self._lock:
            return sorted(
                self._jobs.values(), key=lambda job: job.submitted_at,
            )

    def wait(self, job_id: str, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job.done_event.wait(timeout)

    # -------------------------------------------------------------- stats --

    def depth(self) -> int:
        """Jobs waiting to run."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values()
                if job.state is JobState.QUEUED
            )

    def counts_by_state(self) -> Dict[str, int]:
        counts = {state.value: 0 for state in JobState}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state.value] += 1
        return counts

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Stop accepting work and wake any blocked dispatcher."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    # ----------------------------------------------------------- internals --

    def _retire(self, job: Job, state: JobState) -> None:
        """Move *job* to terminal *state*; caller holds the lock."""
        job.state = state
        job.finished_at = time.time()
        if self._inflight.get(job.key) == job.id:
            del self._inflight[job.key]
        if self.on_retire is not None:
            self.on_retire(job)
        job.done_event.set()
        self._terminal_order.append(job.id)
        while len(self._terminal_order) > self.history:
            forgotten = self._terminal_order.pop(0)
            self._jobs.pop(forgotten, None)
