"""Worker lifecycle (repro.fleet.registry) and task routing
(repro.fleet.router) — pure in-process unit tests, no sockets.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine.runner import JobResult, JobSpec
from repro.errors import UnknownWorkerError
from repro.fleet import Router, TaskRecord, WorkerRegistry


def _task(task_id, job_id="j1", index=0, priority=0, spec=None):
    return TaskRecord(
        id=task_id,
        job_id=job_id,
        index=index,
        spec=spec or JobSpec(workload="database"),
        priority=priority,
    )


def _ok(spec=None):
    return JobResult(
        spec=spec or JobSpec(workload="database"), status="ok", result=None,
    )


def _failed(spec=None):
    return JobResult(
        spec=spec or JobSpec(workload="database"), status="error",
        error="boom",
    )


class TestRegistry:
    def test_register_heartbeat_deregister(self):
        registry = WorkerRegistry(lease_ttl=5.0)
        worker = registry.register(name="alpha", pid=123)
        assert registry.get(worker.id) is worker
        assert registry.heartbeat(worker.id) is worker
        assert [w.id for w in registry.live_workers()] == [worker.id]
        registry.deregister(worker.id)
        assert registry.get(worker.id) is None
        with pytest.raises(UnknownWorkerError):
            registry.heartbeat(worker.id)

    def test_eviction_after_missed_heartbeats(self):
        registry = WorkerRegistry(lease_ttl=0.02, grace=1.0)
        worker = registry.register(name="mortal")
        time.sleep(0.06)
        evicted = registry.evict_expired()
        assert [w.id for w in evicted] == [worker.id]
        assert registry.count() == 0
        assert registry.evicted_total == 1

    def test_heartbeat_keeps_worker_alive(self):
        registry = WorkerRegistry(lease_ttl=0.05, grace=1.0)
        worker = registry.register(name="alive")
        for _ in range(4):
            time.sleep(0.02)
            registry.heartbeat(worker.id)
        assert registry.evict_expired() == []
        assert registry.live_workers()

    def test_drain_one_and_all(self):
        registry = WorkerRegistry()
        a = registry.register(name="a")
        b = registry.register(name="b")
        registry.drain(a.id)
        assert a.draining and not b.draining
        assert {w.id for w in registry.accepting_workers()} == {b.id}
        registry.drain(None)
        assert b.draining
        assert registry.accepting_workers() == []
        # a worker joining a draining fleet inherits the flag
        late = registry.register(name="late")
        assert late.draining

    def test_drain_unknown_worker_raises(self):
        with pytest.raises(UnknownWorkerError):
            WorkerRegistry().drain("nope")


class TestRouterLeasing:
    def _router(self, **kwargs):
        registry = WorkerRegistry()
        worker = registry.register(name="w")
        return Router(registry, **kwargs), worker

    def test_lease_orders_by_priority_then_arrival(self):
        router, worker = self._router(max_inflight=10)
        # Job A: two short shard spans.  Job B, submitted after it at the
        # same priority: one whole-trace simulate on the slower reference
        # backend, the task a biggest-first (LPT) order would hand out
        # first.  Arrival wins; only a higher priority jumps the line.
        span = JobSpec(workload="database", shard_start=0, shard_stop=1000)
        router.add_tasks([
            _task("a0", job_id="A", spec=span),
            _task("a1", job_id="A", index=1, spec=span),
        ])
        router.add_tasks([
            _task("b0", job_id="B", spec=JobSpec(
                workload="database", backend="reference",
            )),
            _task("urgent", job_id="C", priority=5),
        ])
        granted = router.lease(worker.id, max_tasks=4)
        assert [t.id for t in granted] == ["urgent", "a0", "a1", "b0"]

    def test_fifo_breaks_cost_ties(self):
        router, worker = self._router(max_inflight=10)
        router.add_tasks([_task("first"), _task("second")])
        granted = router.lease(worker.id, max_tasks=2)
        assert [t.id for t in granted] == ["first", "second"]

    def test_max_inflight_bounds_leases(self):
        router, worker = self._router(max_inflight=2)
        router.add_tasks([_task(f"t{i}") for i in range(5)])
        assert len(router.lease(worker.id, max_tasks=10)) == 2
        # at the bound: nothing more until something completes
        assert router.lease(worker.id, max_tasks=10) == []
        router.complete(worker.id, "t0", _ok())
        assert len(router.lease(worker.id, max_tasks=10)) == 1

    def test_runner_pool_raises_the_bound(self):
        # a worker with a 3-process runner pool holds one task per process
        registry = WorkerRegistry()
        big = registry.register(name="big", capabilities={"runner_workers": 3})
        small = registry.register(name="small")
        router = Router(registry, max_inflight=1)
        assert router.capacity(big) == 3 and router.capacity(small) == 1
        router.add_tasks([_task(f"t{i}") for i in range(5)])
        assert router.wants_more() is False  # 5 pending >= 3 + 1 slots
        assert len(router.lease(big.id, max_tasks=10)) == 3
        assert len(router.lease(small.id, max_tasks=10)) == 1

    def test_gate_counts_pending_not_leased_tasks(self):
        router, worker = self._router(max_inflight=2)
        router.add_tasks([_task("a0"), _task("a1")])
        assert router.wants_more() is False  # 2 pending cover 2 slots
        router.lease(worker.id, max_tasks=2)
        assert router.wants_more() is True   # leased work plans ahead

    def test_wait_for_room_wakes_on_a_lease(self):
        router, worker = self._router(max_inflight=1)
        router.add_tasks([_task("t0")])
        assert router.wait_for_room(timeout=0.0) is False
        leaser = threading.Timer(0.1, router.lease, args=(worker.id,))
        leaser.start()
        started = time.monotonic()
        assert router.wait_for_room(timeout=20.0) is True
        assert time.monotonic() - started < 10.0
        leaser.join(timeout=5.0)

    def test_on_ready_fires_when_a_lease_could_succeed(self):
        router, worker = self._router(max_inflight=1)
        fired = []
        router.on_ready = lambda: fired.append(len(fired))
        router.add_tasks([_task("t0"), _task("t1")])
        assert len(fired) == 1
        router.lease(worker.id)
        assert len(fired) == 1  # a lease frees no capacity
        router.complete(worker.id, "t0", _ok())
        assert len(fired) == 2  # the worker's slot is free again

    def test_unknown_worker_rejected(self):
        router, _ = self._router()
        router.add_tasks([_task("t")])
        with pytest.raises(UnknownWorkerError):
            router.lease("ghost")

    def test_draining_worker_gets_nothing(self):
        router, worker = self._router()
        router.registry.drain(worker.id)
        router.add_tasks([_task("t")])
        assert router.lease(worker.id) == []


class TestRouterCompletion:
    def _leased(self, retries=1):
        registry = WorkerRegistry()
        worker = registry.register(name="w")
        router = Router(registry, max_inflight=10, retries=retries)
        router.add_tasks([_task("t1"), _task("t2", index=1)])
        router.lease(worker.id, max_tasks=2)
        return router, worker

    def test_success_accounts_to_worker(self):
        router, worker = self._leased()
        task = router.complete(worker.id, "t1", _ok())
        assert task.state == "done"
        assert worker.tasks_done == 1
        assert router.counts()["done"] == 1

    def test_failure_requeues_until_retries_exhausted(self):
        router, worker = self._leased(retries=1)
        task = router.complete(worker.id, "t1", _failed())
        assert task.state == "pending"  # attempt 1 failed, retry allowed
        assert router.requeued_total == 1
        router.lease(worker.id, max_tasks=1)  # attempt 2
        task = router.complete(worker.id, "t1", _failed())
        assert task.state == "failed"
        assert worker.tasks_failed == 2

    def test_release_worker_requeues_leased_only(self):
        router, worker = self._leased()
        router.complete(worker.id, "t1", _ok())
        released = router.release_worker(worker.id)
        # the done task is NOT requeued — completed work survives a death
        assert [t.id for t in released] == ["t2"]
        assert router.counts() == {
            "pending": 1, "leased": 0, "done": 1, "failed": 0,
        }

    def test_stale_completion_ignored_after_requeue(self):
        registry = WorkerRegistry()
        dead = registry.register(name="dead")
        live = registry.register(name="live")
        router = Router(registry, max_inflight=10, retries=2)
        router.add_tasks([_task("t")])
        router.lease(dead.id)
        router.release_worker(dead.id)      # eviction path
        router.lease(live.id)               # re-leased by the survivor
        # the dead worker's late answer must not complete the fresh lease
        task = router.complete(dead.id, "t", _ok())
        assert task.state == "leased"
        assert task.worker_id == live.id
        task = router.complete(live.id, "t", _ok())
        assert task.state == "done"

    def test_unknown_task_is_stale_not_an_error(self):
        # A healthy worker finishing a task whose job was already failed
        # and forgotten must get a shrug, not an error that crashes it.
        router, worker = self._leased()
        assert router.complete(worker.id, "nope", _ok()) is None
        router.forget_job("j1")
        assert router.complete(worker.id, "t1", _ok()) is None

    def test_outstanding_counts_and_forget(self):
        router, worker = self._leased()
        assert router.counts() == {
            "pending": 0, "leased": 2, "done": 0, "failed": 0,
        }
        router.complete(worker.id, "t1", _ok())
        assert router.counts() == {
            "pending": 0, "leased": 1, "done": 1, "failed": 0,
        }
        router.forget_job("j1")
        assert router.counts() == {
            "pending": 0, "leased": 0, "done": 0, "failed": 0,
        }

    def test_drop_job_fails_pending_tasks(self):
        registry = WorkerRegistry()
        registry.register(name="w")
        router = Router(registry)
        router.add_tasks([_task("a"), _task("b", index=1)])
        assert router.drop_job("j1") == 2
        assert router.counts()["failed"] == 2
