"""Queue lifecycle, dedup and cancellation (repro.service.jobqueue +
repro.obs.metrics)."""

from __future__ import annotations

import threading

import pytest

from repro.service.jobqueue import JobQueue, JobState, QueueFullError
from repro.obs.metrics import MetricsRegistry, percentile
from repro.service.protocol import parse_job_request


def sweep_request(queues=(16, 32), priority=0, workload="database"):
    return parse_job_request({
        "kind": "sweep",
        "priority": priority,
        "sweep": {"workloads": [workload],
                  "axes": {"store_queue": list(queues)}},
    })


class TestJobQueue:
    def test_lifecycle_queued_running_done(self):
        queue = JobQueue()
        job, deduped = queue.submit(sweep_request())
        assert not deduped and job.state is JobState.QUEUED
        claimed = queue.next_job(timeout=1.0)
        assert claimed is job and job.state is JobState.RUNNING
        queue.finish(job, result={"answer": 42})
        assert job.state is JobState.DONE
        assert job.status_payload()["result"] == {"answer": 42}
        assert job.finished_at is not None

    def test_identical_inflight_submissions_dedup(self):
        queue = JobQueue()
        first, deduped_first = queue.submit(sweep_request())
        second, deduped_second = queue.submit(sweep_request())
        assert not deduped_first and deduped_second
        assert second is first
        assert first.dedup_count == 1
        assert queue.depth() == 1

    def test_dedup_holds_while_running_but_not_after(self):
        queue = JobQueue()
        job, _ = queue.submit(sweep_request())
        queue.next_job(timeout=1.0)  # now running
        again, deduped = queue.submit(sweep_request())
        assert deduped and again is job
        queue.finish(job, result=None)
        fresh, deduped = queue.submit(sweep_request())
        assert not deduped and fresh is not job

    def test_different_requests_do_not_dedup(self):
        queue = JobQueue()
        a, _ = queue.submit(sweep_request(queues=(16,)))
        b, _ = queue.submit(sweep_request(queues=(32,)))
        assert a is not b and queue.depth() == 2

    def test_priority_order_then_fifo(self):
        queue = JobQueue()
        low, _ = queue.submit(sweep_request(queues=(1,), priority=0))
        urgent, _ = queue.submit(sweep_request(queues=(2,), priority=5))
        also_low, _ = queue.submit(sweep_request(queues=(3,), priority=0))
        order = [queue.next_job(timeout=1.0) for _ in range(3)]
        assert order == [urgent, low, also_low]

    def test_bounded_capacity_rejects(self):
        queue = JobQueue(capacity=2)
        queue.submit(sweep_request(queues=(1,)))
        queue.submit(sweep_request(queues=(2,)))
        with pytest.raises(QueueFullError):
            queue.submit(sweep_request(queues=(3,)))
        # identical submissions still dedup even at capacity
        _, deduped = queue.submit(sweep_request(queues=(1,)))
        assert deduped

    def test_cancelled_job_never_runs(self):
        queue = JobQueue()
        job, _ = queue.submit(sweep_request())
        assert queue.cancel(job.id)
        assert job.state is JobState.CANCELLED
        assert queue.next_job(timeout=0.05) is None

    def test_cancel_refuses_running_and_unknown(self):
        queue = JobQueue()
        job, _ = queue.submit(sweep_request())
        queue.next_job(timeout=1.0)
        assert not queue.cancel(job.id)
        assert not queue.cancel("nope")
        assert job.state is JobState.RUNNING

    def test_cancelled_key_frees_dedup_slot(self):
        queue = JobQueue()
        job, _ = queue.submit(sweep_request())
        queue.cancel(job.id)
        fresh, deduped = queue.submit(sweep_request())
        assert not deduped and fresh is not job

    def test_history_bound_forgets_oldest_terminal(self):
        queue = JobQueue(history=2)
        ids = []
        for n in range(4):
            job, _ = queue.submit(sweep_request(queues=(n + 100,)))
            ids.append(job.id)
            queue.next_job(timeout=1.0)
            queue.finish(job, result=None)
        assert queue.get(ids[0]) is None and queue.get(ids[1]) is None
        assert queue.get(ids[2]) is not None and queue.get(ids[3]) is not None

    def test_concurrent_identical_submissions_run_once(self):
        queue = JobQueue()
        results = []
        barrier = threading.Barrier(8)

        def submit():
            barrier.wait()
            results.append(queue.submit(sweep_request()))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        jobs = {job.id for job, _ in results}
        deduped = [flag for _, flag in results]
        assert len(jobs) == 1
        assert sum(deduped) == 7
        assert queue.depth() == 1

    def test_submit_with_result_is_done_and_never_claimed(self):
        # An answer known at submit (an estimate, a result-store hit) makes
        # the job terminal under the submit's own lock acquisition: no
        # dispatcher can claim it and lease it out in between.
        queue = JobQueue()
        job, deduped = queue.submit(sweep_request(), result={"answer": 42})
        assert not deduped
        assert job.state is JobState.DONE and job.done_event.is_set()
        assert job.status_payload()["result"] == {"answer": 42}
        assert job.started_at is not None and job.finished_at is not None
        assert queue.next_job(timeout=0) is None
        assert queue.depth() == 0
        # done on arrival: a resubmission is new work, not a dedup
        again, deduped = queue.submit(sweep_request())
        assert not deduped and again is not job

    def test_submit_with_result_takes_no_queue_slot(self):
        queue = JobQueue(capacity=1)
        queue.submit(sweep_request(queues=(8,)))
        job, _ = queue.submit(sweep_request(queues=(16,)), result={})
        assert job.state is JobState.DONE

    def test_retire_hook_runs_before_waiters_wake(self):
        queue = JobQueue()
        seen = []
        queue.on_retire = lambda job: seen.append(
            (job.state, job.done_event.is_set()),
        )
        job, _ = queue.submit(sweep_request())
        queue.next_job(timeout=1.0)
        queue.finish(job, result={})
        assert seen == [(JobState.DONE, False)]

    def test_closed_once_close_is_called(self):
        queue = JobQueue()
        assert not queue.closed
        queue.close()
        assert queue.closed
        assert queue.next_job(timeout=1.0) is None
        with pytest.raises(RuntimeError):
            queue.submit(sweep_request())


class TestCancelRaces:
    def test_cancel_while_deduped_fans_out_exactly_n_detaches(self):
        """N clients attached to one job, N concurrent cancels.

        Each waiter's cancel must detach exactly one attachment; the final
        cancel (no waiters left) cancels the job itself.  No outcome may
        be lost or double-counted under concurrency.
        """
        queue = JobQueue()
        waiters = 7
        job, _ = queue.submit(sweep_request())
        for _ in range(waiters):
            again, deduped = queue.submit(sweep_request())
            assert deduped and again is job
        assert job.dedup_count == waiters

        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(waiters + 1)

        def cancel():
            barrier.wait()
            outcome = queue.cancel(job.id)
            with lock:
                outcomes.append(outcome)

        threads = [
            threading.Thread(target=cancel) for _ in range(waiters + 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert outcomes.count("detached") == waiters
        assert outcomes.count("cancelled") == 1
        assert job.state is JobState.CANCELLED
        assert queue.next_job(timeout=0.05) is None

    def test_detach_keeps_the_job_alive_for_remaining_waiters(self):
        queue = JobQueue()
        job, _ = queue.submit(sweep_request())
        queue.submit(sweep_request())  # one waiter attaches
        assert queue.cancel(job.id) == "detached"
        assert job.state is JobState.QUEUED  # the other client still waits
        claimed = queue.next_job(timeout=1.0)
        assert claimed is job  # ... and the job still runs
        # running with no waiters left: cancel is refused, not detached
        assert queue.cancel(job.id) == ""

    def test_priority_order_survives_concurrent_submit_and_cancel(self):
        queue = JobQueue(capacity=256)
        cancelled = []
        lock = threading.Lock()

        def churn(offset):
            for n in range(10):
                job, _ = queue.submit(
                    sweep_request(
                        queues=(1000 + offset * 100 + n,), priority=n % 3,
                    ),
                )
                if n % 4 == 0:
                    assert queue.cancel(job.id) == "cancelled"
                    with lock:
                        cancelled.append(job.id)

        threads = [
            threading.Thread(target=churn, args=(k,)) for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        drained = []
        while True:
            job = queue.next_job(timeout=0.05)
            if job is None:
                break
            drained.append(job)
        assert len(drained) == 40 - len(cancelled)
        # no cancelled job is ever dispatched ...
        assert not set(cancelled) & {job.id for job in drained}
        # ... and dispatch order is priority-monotonic despite the churn
        priorities = [job.priority for job in drained]
        assert priorities == sorted(priorities, reverse=True)


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        metrics = MetricsRegistry()
        metrics.inc("jobs_submitted_total")
        metrics.inc("jobs_submitted_total", 2)
        metrics.gauge("queue_depth", lambda: 7)
        snapshot = metrics.to_dict()
        assert snapshot["counters"]["jobs_submitted_total"] == 3
        assert snapshot["gauges"]["queue_depth"] == 7.0

    def test_latency_percentiles(self):
        metrics = MetricsRegistry()
        for ms in range(1, 101):
            metrics.observe("job_exec", ms / 1000.0)
        summary = metrics.latency_summary("job_exec")
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(0.0505, abs=1e-3)
        assert summary["p99"] == pytest.approx(0.099, abs=1e-3)
        assert summary["mean"] == pytest.approx(0.0505, abs=1e-4)

    def test_percentile_edge_cases(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.99) == 3.0
        assert percentile([1.0, 2.0], 0.5) == pytest.approx(1.5)

    def test_prometheus_rendering(self):
        metrics = MetricsRegistry()
        metrics.inc("jobs_submitted_total", 4)
        metrics.gauge("queue_depth", lambda: 2)
        metrics.observe("job_exec", 0.5)
        text = metrics.render_prometheus()
        assert "# TYPE repro_jobs_submitted_total counter" in text
        assert "repro_jobs_submitted_total 4" in text
        assert "repro_queue_depth 2" in text
        assert "# TYPE repro_job_exec_seconds summary" in text
        assert 'repro_job_exec_seconds{quantile="0.95"} 0.500000' in text
        assert "repro_job_exec_seconds_count 1" in text
        assert text.endswith("\n")
