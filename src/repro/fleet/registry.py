"""Worker lifecycle: registration, lease-based heartbeats, drain, eviction.

The coordinator never connects *to* a worker — workers pull work over
HTTP, so worker liveness is expressed entirely through heartbeats: a
worker that registers receives a lease TTL, renews it by heartbeating
(every TTL/3 in practice), and is evicted once the lease has been expired
for longer than the grace period.  Eviction is what triggers failure
handling: the router requeues every task the dead worker held, and
whichever worker leases a requeued shard next recomputes it from its
start.

Draining is the graceful half of the same protocol: a draining worker is
handed no new leases (the flag rides back on heartbeat/lease responses),
finishes its in-flight tasks, deregisters and exits.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import UnknownWorkerError

__all__ = ["WorkerInfo", "WorkerRegistry"]


@dataclass
class WorkerInfo:
    """One registered worker and its lease state."""

    id: str
    name: str
    registered_at: float
    last_heartbeat: float
    pid: int = 0
    capabilities: Dict[str, Any] = field(default_factory=dict)
    draining: bool = False
    #: Cumulative accounting, updated by the router on lease/complete.
    tasks_done: int = 0
    tasks_failed: int = 0

    def age(self, now: float) -> float:
        return now - self.last_heartbeat

    def status_payload(self, now: float) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "pid": self.pid,
            "draining": self.draining,
            "heartbeat_age_seconds": round(self.age(now), 3),
            "tasks_done": self.tasks_done,
            "tasks_failed": self.tasks_failed,
        }


class WorkerRegistry:
    """Thread-safe registry of live workers with lease-TTL eviction.

    ``lease_ttl`` is the renewal interval contract handed to workers;
    a worker is considered dead once its last heartbeat is older than
    ``lease_ttl * grace`` (grace defaults to 3 renewals missed).
    """

    def __init__(self, lease_ttl: float = 5.0, grace: float = 3.0) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.lease_ttl = lease_ttl
        self.grace = grace
        self._lock = threading.Lock()
        self._workers: Dict[str, WorkerInfo] = {}
        self._drain_all = False
        self.evicted_total = 0

    # ----------------------------------------------------------- protocol --

    def register(
        self,
        name: str = "",
        pid: int = 0,
        capabilities: Optional[Dict[str, Any]] = None,
    ) -> WorkerInfo:
        now = time.monotonic()
        worker = WorkerInfo(
            id=uuid.uuid4().hex[:12],
            name=name or f"worker-{len(self._workers) + 1}",
            registered_at=now,
            last_heartbeat=now,
            pid=pid,
            capabilities=dict(capabilities or {}),
        )
        with self._lock:
            worker.draining = self._drain_all
            self._workers[worker.id] = worker
        return worker

    def heartbeat(self, worker_id: str) -> WorkerInfo:
        """Renew a worker's lease; raises for unknown (evicted) workers."""
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                raise UnknownWorkerError(
                    f"unknown worker {worker_id!r} (evicted? re-register)"
                )
            worker.last_heartbeat = time.monotonic()
            return worker

    def deregister(self, worker_id: str) -> Optional[WorkerInfo]:
        with self._lock:
            return self._workers.pop(worker_id, None)

    # ----------------------------------------------------------- liveness --

    def get(self, worker_id: str) -> Optional[WorkerInfo]:
        with self._lock:
            return self._workers.get(worker_id)

    def require(self, worker_id: str) -> WorkerInfo:
        worker = self.get(worker_id)
        if worker is None:
            raise UnknownWorkerError(
                f"unknown worker {worker_id!r} (evicted? re-register)"
            )
        return worker

    def live_workers(self) -> List[WorkerInfo]:
        """Workers holding a fresh lease (draining ones included)."""
        deadline = self.lease_ttl * self.grace
        now = time.monotonic()
        with self._lock:
            return [
                w for w in self._workers.values() if w.age(now) <= deadline
            ]

    def accepting_workers(self) -> List[WorkerInfo]:
        """Live workers that may be handed new leases."""
        return [w for w in self.live_workers() if not w.draining]

    def evict_expired(self) -> List[WorkerInfo]:
        """Remove workers whose lease lapsed; returns the evicted ones."""
        deadline = self.lease_ttl * self.grace
        now = time.monotonic()
        evicted: List[WorkerInfo] = []
        with self._lock:
            for worker_id in list(self._workers):
                worker = self._workers[worker_id]
                if worker.age(now) > deadline:
                    evicted.append(self._workers.pop(worker_id))
            self.evicted_total += len(evicted)
        return evicted

    # -------------------------------------------------------------- drain --

    def drain(self, worker_id: Optional[str] = None) -> None:
        """Flag one worker (or, with ``None``, the whole fleet) to drain."""
        with self._lock:
            if worker_id is None:
                self._drain_all = True
                for worker in self._workers.values():
                    worker.draining = True
            else:
                worker = self._workers.get(worker_id)
                if worker is None:
                    raise UnknownWorkerError(
                        f"unknown worker {worker_id!r}"
                    )
                worker.draining = True

    # -------------------------------------------------------------- stats --

    def status_payload(self) -> List[Dict[str, Any]]:
        now = time.monotonic()
        with self._lock:
            workers = sorted(
                self._workers.values(), key=lambda w: w.registered_at,
            )
            return [w.status_payload(now) for w in workers]

    def count(self) -> int:
        with self._lock:
            return len(self._workers)
