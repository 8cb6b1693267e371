"""Task table and priority placement of engine jobs on fleet workers.

One service *job* (a sweep, a sharded simulate) expands into one or more
*tasks*, each a single :class:`~repro.engine.runner.JobSpec` — the unit a
worker leases, executes and completes.  A figure job is one task
that carries the whole :class:`~repro.service.protocol.JobRequest`
instead, and its worker answers with a :class:`RequestOutcome`.  The
router owns the task table and decides, when a worker asks for work,
which tasks it gets: strict priority first (the job's service priority),
then arrival order.  Workers pull, and :meth:`Router.wants_more` keeps
at most one slot-set of tasks (plus one job's fan-out) pending, so there
is never a deep backlog for a cleverer order to rearrange.

Placement is bounded: a worker never holds more than ``max_inflight``
leased tasks (or, if larger, its runner pool size, so every engine
process of a big worker has a task), which is the fleet's backpressure
primitive — the coordinator can translate "every worker is at its
in-flight bound and the queue is deep" into a 429 with a ``Retry-After``
sized from the measured task completion rate.

Waiting is event-driven: the router's condition is signalled whenever a
task is leased, completed or released, so the coordinator's dispatcher
(:meth:`Router.wait_for_room`) wakes when the backlog shrinks instead of
polling, and the ``on_ready`` hook tells the coordinator's event loop when
a lease could newly succeed, so parked lease long-polls wake at once.

Failure handling: a task completed with a failed status (or abandoned by
an evicted worker) returns to the pending pool up to ``retries`` extra
attempts; tasks that exhaust their attempts fail their whole job.  Tasks
already completed are never requeued, so a worker death recomputes only
the shards it held, never a completed one.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union,
)

from .registry import WorkerInfo, WorkerRegistry

if TYPE_CHECKING:
    from ..engine.runner import JobResult, JobSpec
    from ..service.protocol import JobRequest

__all__ = ["RequestOutcome", "Router", "TaskRecord"]


@dataclass
class RequestOutcome:
    """A worker's answer for a whole-request task: the job's result
    payload, or the error and traceback of the failed attempt."""

    payload: Any = None
    error: str = ""
    traceback: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass
class TaskRecord:
    """One leasable unit of work: a single engine JobSpec, or (``spec``
    ``None``) a whole figure ``request``."""

    id: str
    job_id: str
    index: int  # position within the job's spec list (result ordering)
    spec: Optional["JobSpec"]
    priority: int
    corr: str = ""
    state: str = "pending"  # pending | leased | done | failed
    worker_id: str = ""
    attempts: int = 0
    seq: int = 0
    leased_at: float = 0.0
    #: When the task (re)entered the pending pool — the lease-wait clock.
    queued_at: float = 0.0
    result: Union["JobResult", RequestOutcome, None] = None
    request: Optional["JobRequest"] = None

    @property
    def label(self) -> str:
        if self.spec is None:
            assert self.request is not None
            return self.request.describe()
        return self.spec.describe()

    def status_payload(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "job": self.job_id,
            "index": self.index,
            "state": self.state,
            "worker": self.worker_id,
            "attempts": self.attempts,
            "priority": self.priority,
            "label": self.label,
        }


class Router:
    """Thread-safe task table with priority-ordered, bounded leases."""

    def __init__(
        self,
        registry: WorkerRegistry,
        max_inflight: int = 2,
        retries: int = 2,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.registry = registry
        self.max_inflight = max_inflight
        self.retries = retries
        self._lock = threading.Lock()
        #: Signalled (under ``_lock``) whenever a task is leased, settled
        #: or released — what :meth:`wait_for_room` waits on.
        self._changed = threading.Condition(self._lock)
        #: Called under ``_lock`` whenever a lease could newly succeed: a
        #: task became pending or a leased task settled.  Must not block.
        self.on_ready: Optional[Callable[[], None]] = None
        self._tasks: Dict[str, TaskRecord] = {}
        #: Min-heap of (-priority, seq, task_id): priority desc, then
        #: submission order.  Entries are lazily invalidated — a popped id
        #: whose task is gone or no longer pending is skipped — so
        #: drop/forget never have to scan the heap, and idle lease polls
        #: never re-sort anything.
        self._pending: List[Tuple[int, int, str]] = []
        self._seq = itertools.count()
        self.requeued_total = 0
        self.leased_total = 0

    def _push_pending(self, task: TaskRecord) -> None:
        task.queued_at = time.monotonic()
        heapq.heappush(self._pending, (-task.priority, task.seq, task.id))

    def _signal(self, ready: bool = False) -> None:
        """Wake the dispatcher and, when *ready*, parked lease polls;
        caller holds ``_lock``."""
        self._changed.notify_all()
        if ready and self.on_ready is not None:
            self.on_ready()

    def capacity(self, worker: WorkerInfo) -> int:
        """Tasks *worker* may hold at once: ``max_inflight``, raised to the
        runner pool size it registered with."""
        pool = worker.capabilities.get("runner_workers")
        return max(self.max_inflight, pool if isinstance(pool, int) else 0)

    # ------------------------------------------------------------- intake --

    def add_tasks(self, tasks: List[TaskRecord]) -> None:
        with self._lock:
            for task in tasks:
                task.seq = next(self._seq)
                self._tasks[task.id] = task
                self._push_pending(task)
            self._signal(ready=True)

    def drop_job(self, job_id: str) -> int:
        """Forget a job's *pending* tasks (its job failed or was shed)."""
        with self._lock:
            doomed = [
                task for task in self._tasks.values()
                if task.job_id == job_id and task.state == "pending"
            ]
            for task in doomed:
                task.state = "failed"  # heap entry is lazily skipped
            self._signal()
            return len(doomed)

    # ------------------------------------------------------------ leasing --

    def lease(self, worker_id: str, max_tasks: int = 1) -> List[TaskRecord]:
        """Grant up to *max_tasks* pending tasks to *worker_id*.

        Returns an empty list when nothing is pending, the worker is
        draining, or the worker is already at its in-flight bound.
        Raises :class:`~repro.errors.UnknownWorkerError` for evicted ids.
        """
        worker = self.registry.require(worker_id)
        if worker.draining:
            return []
        with self._lock:
            held = sum(
                1 for task in self._tasks.values()
                if task.state == "leased" and task.worker_id == worker_id
            )
            budget = min(
                max(0, self.capacity(worker) - held), max(1, max_tasks),
            )
            if budget == 0 or not self._pending:
                return []
            granted: List[TaskRecord] = []
            while self._pending and len(granted) < budget:
                _, _, tid = heapq.heappop(self._pending)
                task = self._tasks.get(tid)
                if task is None or task.state != "pending":
                    continue  # lazily-invalidated entry (job shed/forgotten)
                task.state = "leased"
                task.worker_id = worker_id
                task.attempts += 1
                task.leased_at = time.monotonic()
                granted.append(task)
            self.leased_total += len(granted)
            if granted:
                self._signal()
            return granted

    def complete(
        self,
        worker_id: str,
        task_id: str,
        result: Union["JobResult", RequestOutcome],
    ) -> Optional[TaskRecord]:
        """Record a worker's result for a leased task.

        A failed result requeues the task while attempts remain; the
        returned record's ``state`` tells the coordinator what happened
        (``done`` / ``pending`` after requeue / ``failed`` terminally).

        Returns ``None`` for task ids the router no longer tracks: the
        task's job already finished or failed and was forgotten while this
        (healthy) worker was still executing.  That late answer is stale,
        not a protocol violation — erroring here would crash workers that
        did nothing wrong.
        """
        with self._lock:
            task = self._tasks.get(task_id)
            if task is None:
                return None
            if task.state != "leased" or task.worker_id != worker_id:
                # A stale completion (task was requeued and re-leased after
                # this worker was evicted): ignore it — the fresh lease owns
                # the task now, and double-counting a result would corrupt
                # the job assembly.
                return task
            worker = self.registry.get(worker_id)
            if result.ok:
                task.state = "done"
                task.result = result
                if worker is not None:
                    worker.tasks_done += 1
            elif task.attempts <= self.retries:
                task.state = "pending"
                task.worker_id = ""
                task.result = result  # keep the last error for diagnostics
                self._push_pending(task)
                self.requeued_total += 1
                if worker is not None:
                    worker.tasks_failed += 1
            else:
                task.state = "failed"
                task.result = result
                if worker is not None:
                    worker.tasks_failed += 1
            self._signal(ready=True)
            return task

    def release_worker(self, worker_id: str) -> List[TaskRecord]:
        """Requeue every task a (dead or departing) worker holds.

        Attempts are *not* refunded — a worker death consumes an attempt,
        bounding how often a poisonous task can take workers down.
        """
        requeued: List[TaskRecord] = []
        with self._lock:
            for task in self._tasks.values():
                if task.state == "leased" and task.worker_id == worker_id:
                    if task.attempts > self.retries:
                        task.state = "failed"
                    else:
                        task.state = "pending"
                        task.worker_id = ""
                        self._push_pending(task)
                        self.requeued_total += 1
                    requeued.append(task)
            self._signal(ready=True)
        return requeued

    # -------------------------------------------------------------- reads --

    def job_tasks(self, job_id: str) -> List[TaskRecord]:
        with self._lock:
            return sorted(
                (t for t in self._tasks.values() if t.job_id == job_id),
                key=lambda t: t.index,
            )

    def forget_job(self, job_id: str) -> None:
        """Drop a finished job's tasks from the table.

        Heap entries for the dropped tasks are invalidated lazily (the
        leaser skips ids it no longer knows), so this is O(job tasks).
        """
        with self._lock:
            doomed = [
                tid for tid, task in self._tasks.items()
                if task.job_id == job_id
            ]
            for tid in doomed:
                self._tasks.pop(tid)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {"pending": 0, "leased": 0, "done": 0, "failed": 0}
            for task in self._tasks.values():
                counts[task.state] += 1
            return counts

    def lease_ages(self) -> Dict[str, List[float]]:
        """Ages (seconds) of live leases, grouped by holding worker."""
        now = time.monotonic()
        with self._lock:
            ages: Dict[str, List[float]] = {}
            for task in self._tasks.values():
                if task.state == "leased":
                    ages.setdefault(task.worker_id, []).append(
                        max(0.0, now - task.leased_at),
                    )
            return ages

    def inflight_by_worker(self) -> Dict[str, int]:
        with self._lock:
            held: Dict[str, int] = {}
            for task in self._tasks.values():
                if task.state == "leased":
                    held[task.worker_id] = held.get(task.worker_id, 0) + 1
            return held

    def _slots(self) -> int:
        return sum(
            self.capacity(worker)
            for worker in self.registry.accepting_workers()
        )

    def _has_room(self, slots: int) -> bool:
        """Caller holds ``_lock``."""
        pending = sum(
            1 for task in self._tasks.values() if task.state == "pending"
        )
        return pending < slots

    def wants_more(self) -> bool:
        """True while the *pending* backlog is smaller than the fleet's slots.

        The dispatcher gates job claiming on this.  Leased tasks do not
        count, so the coordinator claims and plans the next job while the
        current one's tasks execute: at most one slot-set of planned work
        waits for a lease.  Once pending tasks cover every worker's
        in-flight bound, further jobs stay *queued* — so a saturated fleet
        fills the bounded JobQueue and admission control (429 +
        Retry-After, priority shedding) engages instead of the backlog
        growing without bound.  One job can still overshoot by its own
        fan-out; the gate bounds jobs, not tasks.
        """
        slots = self._slots()
        with self._lock:
            return self._has_room(slots)

    def wait_for_room(self, timeout: float) -> bool:
        """:meth:`wants_more`, after waiting up to *timeout* for a change.

        Returns at once when there is room; otherwise waits for the next
        lease, completion or release (or :meth:`wake`) and answers again.
        So the dispatcher claims the next job as soon as a pending task
        is leased, and rechecks its own stop flag on every wakeup.
        """
        with self._changed:
            if self._has_room(self._slots()):
                return True
            self._changed.wait(timeout)
            return self._has_room(self._slots())

    def wake(self) -> None:
        """End a :meth:`wait_for_room` wait now (the worker set changed,
        or the coordinator is stopping)."""
        with self._changed:
            self._changed.notify_all()

    def status_payload(self) -> List[Dict[str, Any]]:
        with self._lock:
            tasks = sorted(self._tasks.values(), key=lambda t: t.seq)
            return [task.status_payload() for task in tasks]
