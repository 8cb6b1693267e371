"""End-to-end fleet tests: coordinator + in-process workers over real HTTP.

The acceptance contract of repro.fleet: results produced by a fleet (any
number of workers, with or without a mid-run worker death) are
**bit-identical** to single-node execution; saturation answers are
structured 429/503 with ``Retry-After``; cluster-wide dedup serves
repeated requests from the shared artifact store without touching a
worker.

Workers run as threads here (the real thing is a process; the wire
protocol is identical either way) so a "killed" worker is simply one that
stops heartbeating while holding a lease.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.config import StorePrefetchMode
from repro.engine import serialize
from repro.engine.runner import (
    EngineRunner, JobResult, JobSpec, RunReport, ShardedReport,
)
from repro.fleet import FleetCoordinator, FleetWorker, TaskRecord
from repro.harness.experiment import Workbench
from repro.service import JobState
from repro.service.client import ServiceClient, ServiceError

from conftest import FLEET_SETTINGS as SMALL

# Every test here shares conftest's module-scoped ``cache_dir``: traces,
# annotations, shard probes and finished service results live in one
# store, exactly how a real fleet shares state.


@pytest.fixture(scope="module")
def golden(cache_dir):
    return Workbench(SMALL, cache_dir=cache_dir).run("database")


def _record_quiescent_log(cache_dir, job):
    """Run the simulate *job* (its wire form) sharded once, so its
    quiescent log is in the shared store and the fleet's next run of it
    splits; the coordinator never records one itself."""
    runner = EngineRunner(settings=SMALL, cache_dir=str(cache_dir), workers=1)
    runner.run_sharded(JobSpec.coerce(job), 2).raise_on_failure()


def _post(url, path, body):
    request = urllib.request.Request(
        f"{url}{path}", data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return json.loads(response.read())


class TestFleetExecution:
    def test_simulate_bit_identical_to_single_node(
        self, fleet_factory, golden,
    ):
        fleet = fleet_factory(workers=1)
        client = fleet.client()
        health = client.health()
        assert health["mode"] == "fleet"
        assert health["fleet"]["workers"] == 1
        assert "reference" in health["backends"]

        receipt = client.submit({
            "kind": "simulate",
            "job": {"workload": "database", "variant": "pc"},
            "backend": "event",
        })
        status = client.wait(receipt["id"], timeout=120)
        assert status["state"] == "done"
        report = RunReport.from_dict(status["result"]["report"])
        assert report.jobs[0].ok
        assert report.jobs[0].result == golden

    def test_sharded_result_decodes_to_sharded_report(
        self, fleet_factory, cache_dir,
    ):
        fleet = fleet_factory(workers=1)
        client = fleet.client()
        receipt = client.submit({
            "kind": "simulate",
            "job": {"workload": "database", "variant": "pc",
                    "core_changes": {"store_buffer": 20}},
            "shards": 2,
        })
        report = client.result(receipt["id"], timeout=120)
        assert isinstance(report, ShardedReport)
        status = client.status(receipt["id"])
        # A first run has no recorded cuts: one whole-trace shard.
        assert status["result"]["sharded"]["requested"] == 2
        assert status["result"]["sharded"]["shard_count"] == 1
        assert ServiceClient.decode_report(status).merged == report.merged
        plain = Workbench(SMALL, cache_dir=cache_dir).run(
            "database", store_buffer=20,
        )
        assert report.merged == plain

    def test_sweep_spreads_over_two_workers(self, fleet_factory, golden):
        fleet = fleet_factory(workers=2, max_inflight=1)
        client = fleet.client()
        receipt = client.submit({
            "kind": "sweep",
            "sweep": {
                "workloads": ["database"],
                "variant": "pc",
                "axes": {"store_queue": [8, 16]},
            },
            "backend": "event",
        })
        status = client.wait(receipt["id"], timeout=180)
        assert status["state"] == "done"
        assert len(status["result"]["records"]) == 2
        report = RunReport.from_dict(status["result"]["report"])
        assert all(job.ok for job in report.jobs)
        assert sum(w.tasks_done for w in fleet.workers) == 2
        # order is the sweep's grid order, regardless of which worker ran
        # which point
        queues = [dict(job.spec.core_changes)["store_queue"]
                  for job in report.jobs]
        assert queues == [8, 16]

    def test_dead_worker_shard_is_recomputed(
        self, fleet_factory, golden, cache_dir,
    ):
        """A worker dies mid-shard; its shard is re-leased and recomputed.

        The zombie leases one shard over the real wire, executes it with a
        kill fault aimed at that shard, then goes silent.  After eviction
        the replacement worker recomputes the shard from its start — and
        the merged result must equal the straight-through golden bit for
        bit.
        """
        _record_quiescent_log(
            cache_dir, {"workload": "database", "variant": "pc"},
        )
        fleet = fleet_factory(workers=0, lease_ttl=0.3)
        url = fleet.coord.url
        zombie = _post(url, "/v1/fleet/register", {"name": "zombie"})

        client = fleet.client()
        receipt = client.submit({
            "kind": "simulate",
            "job": {"workload": "database", "variant": "pc"},
            "shards": 2,
            # bit-identical to the default backend, but a request the
            # module's shared result store has not answered yet
            "backend": "reference",
        })
        job_id = receipt["id"]

        # Long-poll until the expansion lands and the zombie holds a lease.
        lease = _post(
            url, "/v1/fleet/lease",
            {"worker": zombie["worker"], "max": 1, "wait": 20},
        )
        assert len(lease["tasks"]) == 1
        spec = serialize.from_jsonable(lease["tasks"][0]["spec"])
        assert spec.sharded

        # Execute the leased shard with a kill fault: the attempt dies ...
        runner = EngineRunner(
            settings=SMALL, cache_dir=str(cache_dir), workers=1, retries=0,
        )
        doomed = dataclasses.replace(spec, fault=f"kill@{spec.shard_start}")
        assert not runner.run([doomed]).jobs[0].ok
        # ... and the zombie never reports back, never heartbeats again.

        fleet.add_worker("replacement")
        status = client.wait(job_id, timeout=180)
        assert status["state"] == "done"

        assert status["result"]["sharded"]["rounds"] == 2  # re-leased
        assert status["result"]["sharded"]["shard_count"] == 2
        report = ShardedReport.from_dict(status["result"]["report"])
        assert report.merged == golden
        assert all(job.ok for job in report.jobs)
        recomputed = [
            job for job in report.jobs
            if job.spec.shard_start == spec.shard_start
        ]
        assert [job.attempts for job in recomputed] == [2]
        assert fleet.coord.registry.evicted_total == 1

    def test_sharded_status_ships_each_epoch_once(
        self, fleet_factory, cache_dir,
    ):
        # Only the merge reads the per-shard results, so the finished
        # status carries the epochs once: inside the merged result.
        job = {"workload": "database", "variant": "pc",
               "core_changes": {"store_buffer": 12}}
        _record_quiescent_log(cache_dir, job)
        fleet = fleet_factory(workers=1)
        client = fleet.client()
        receipt = client.submit({"kind": "simulate", "job": job, "shards": 2})
        status = client.wait(receipt["id"], timeout=120)
        assert status["state"] == "done"
        report = ShardedReport.from_dict(status["result"]["report"])
        assert len(report.jobs) == 2
        assert all(job.ok and job.result is None for job in report.jobs)
        merged = len(json.dumps(serialize.to_jsonable(report.merged)))
        assert len(json.dumps(status)) < merged + 8192

    def test_cluster_wide_dedup_serves_from_result_store(
        self, fleet_factory, cache_dir,
    ):
        body = {
            "kind": "simulate",
            "job": {
                "workload": "database", "variant": "pc",
                "core_changes": {"store_queue": 24},
            },
            "backend": "event",
        }
        fleet = fleet_factory(workers=1)
        client = fleet.client()
        first = client.wait(client.submit(body)["id"], timeout=120)
        assert first["state"] == "done"
        before = fleet.coord.metrics.to_dict()["counters"].get(
            "fleet_result_cache_hits_total", 0,
        )
        assert before == 0

        again = client.wait(client.submit(body)["id"], timeout=30)
        assert again["state"] == "done"
        assert again["result"] == first["result"]
        counters = fleet.coord.metrics.to_dict()["counters"]
        assert counters["fleet_result_cache_hits_total"] == 1

        # A *different* coordinator sharing the store — and owning ZERO
        # workers — still answers instantly: dedup-by-request-hash extends
        # across nodes and restarts.
        other = fleet_factory(workers=0)
        answer = other.client().wait(
            other.client().submit(body)["id"], timeout=30,
        )
        assert answer["state"] == "done"
        assert answer["result"] == first["result"]


    def test_result_store_is_keyed_by_settings(
        self, fleet_factory, cache_dir,
    ):
        # Two coordinators on one cache directory, differing only in
        # ``measure``: the second must simulate, not replay the first's
        # payload.
        body = {
            "kind": "simulate",
            "job": {
                "workload": "database", "variant": "pc",
                "core_changes": {"store_prefetch": "sp1"},
            },
        }
        short = fleet_factory(workers=1)
        first = short.client().result(
            short.client().submit(body)["id"], timeout=120,
        )
        longer = dataclasses.replace(SMALL, measure=8000)
        fleet = fleet_factory(workers=1, settings=longer)
        client = fleet.client()
        report = client.result(client.submit(body)["id"], timeout=120)
        counters = fleet.coord.metrics.to_dict()["counters"]
        assert counters.get("fleet_result_cache_hits_total", 0) == 0
        direct = Workbench(longer, cache_dir=cache_dir).run(
            "database", store_prefetch=StorePrefetchMode.AT_RETIRE,
        )
        assert report.jobs[0].result == direct
        assert report.jobs[0].result != first.jobs[0].result

    def test_figure_job_over_two_workers(self, fleet_factory):
        from repro.harness.figures import figure2

        fleet = fleet_factory(workers=2)
        client = fleet.client()
        data = client.result(
            client.submit_figure("figure2", ["database"])["id"], timeout=240,
        )
        assert data == figure2(Workbench(SMALL, cache_dir=None), ["database"])
        assert sum(w.tasks_done for w in fleet.workers) == 1

class TestFleetObservability:
    """Cross-process trace propagation and metrics federation, end to end."""

    def test_sigkill_re_lease_yields_one_trace_tree(
        self, fleet_factory, cache_dir, tmp_path,
    ):
        """One job, two workers, one SIGKILL: still a single span tree.

        The zombie worker leases a shard over the real wire, restores the
        propagated trace context, executes with a kill fault (emitting its
        engine spans parented under the coordinator's job span), then goes
        silent.  The replacement recomputes the re-leased shard.
        The merged trace must form ONE connected tree rooted at the
        coordinator's ``fleet_job`` span, with engine spans from both
        workers — and the result must stay bit-identical to a single-node
        run without any tracing (observer neutrality).
        """
        from repro.obs import (
            ObsOptions,
            connected_roots,
            job_timeline,
            load_events,
            span_tree,
            trace_context,
        )

        golden = Workbench(SMALL, cache_dir=cache_dir).run("tpcw")
        trace_dir = tmp_path / "traces"
        obs = ObsOptions.for_trace(trace_dir, trace_epochs=False)
        fleet = fleet_factory(workers=0, lease_ttl=0.3, obs=obs)
        url = fleet.coord.url
        zombie = _post(url, "/v1/fleet/register", {"name": "obs-zombie"})

        client = fleet.client()
        receipt = client.submit({
            "kind": "simulate",
            "job": {"workload": "tpcw", "variant": "pc"},
            "shards": 2,
        })
        job_id = receipt["id"]

        lease = _post(
            url, "/v1/fleet/lease",
            {"worker": zombie["worker"], "max": 1, "wait": 20},
        )
        assert len(lease["tasks"]) == 1
        entry = lease["tasks"][0]
        # The lease carries the job's trace context on the wire.
        assert entry["traceparent"].startswith(f"00-{job_id}-")

        runner = EngineRunner(
            settings=SMALL, cache_dir=str(cache_dir), workers=1, retries=0,
            obs=obs,
        )
        spec = serialize.from_jsonable(entry["spec"])
        doomed = dataclasses.replace(spec, fault=f"kill@{spec.shard_start}")
        with trace_context(entry["traceparent"]):
            outcome = runner.run([doomed]).jobs[0]
        assert not outcome.ok
        # ... and the zombie never reports back, never heartbeats again.

        fleet.add_worker("obs-replacement", obs=obs)
        status = client.wait(job_id, timeout=180)
        assert status["state"] == "done"

        # Neutrality: tracing + federation changed nothing in the result.
        report = ShardedReport.from_dict(status["result"]["report"])
        assert report.merged == golden

        events = load_events(trace_dir)
        roots = connected_roots(events, job_id)
        assert len(roots) == 1, f"split trace tree: {len(roots)} roots"
        (root,) = roots
        nodes = span_tree(events, job_id)
        assert nodes[root]["name"] == "fleet_job"
        batches = [
            node for node in nodes.values()
            if node["name"] == "engine_batch" and node["parent"] == root
        ]
        assert len(batches) >= 2  # spans from both the zombie and the
        #                           replacement hang under the job root

        timeline = job_timeline(events, job_id)
        assert timeline is not None and timeline.state == "done"
        assert len(timeline.workers) == 2
        assert timeline.phases["recovery"] > 0.0
        # The five phases tile the wall: reconcile within the 5% bound.
        assert timeline.phase_sum == pytest.approx(
            timeline.wall, rel=0.05,
        )

    def test_workers_federate_labeled_series_onto_metrics(
        self, fleet_factory,
    ):
        from test_obs_metrics import parse_exposition

        fleet = fleet_factory(workers=2, max_inflight=1)
        client = fleet.client()
        receipt = client.submit({
            "kind": "sweep",
            "sweep": {
                "workloads": ["database"],
                "variant": "pc",
                "axes": {"store_queue": [40, 48]},
            },
            "backend": "event",
        })
        assert client.wait(receipt["id"], timeout=180)["state"] == "done"

        def scrape():
            with urllib.request.urlopen(
                fleet.coord.url + "/metrics", timeout=10.0,
            ) as response:
                return response.read().decode("utf-8")

        # Totals ride on heartbeats; wait for both workers to phone home.
        family = "repro_fleet_worker_tasks_done_total"
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            families = parse_exposition(scrape())
            samples = families.get(family, {"samples": []})["samples"]
            if (
                len(samples) == 2
                and sum(value for _, _, value in samples) == 2
            ):
                break
            time.sleep(0.2)
        families = parse_exposition(scrape())
        assert families[family]["type"] == "counter"
        labels = sorted(labels for _, labels, _ in families[family]["samples"])
        assert labels == ['{worker="w0"}', '{worker="w1"}']
        assert sum(v for _, _, v in families[family]["samples"]) == 2

        # Fleet-wide total gauge, derived from the same reports.
        total_family = families["repro_fleet_tasks_done_total"]
        assert total_family["samples"][0][2] == 2

        # Point-in-time health gauges carry per-worker labels too, and
        # are rebuilt per scrape for live workers only.
        inflight = families["repro_fleet_worker_inflight"]
        assert sorted(
            labels for _, labels, _ in inflight["samples"]
        ) == ['{worker="w0"}', '{worker="w1"}']

        # The JSON rendering exposes the same labeled section.
        with urllib.request.urlopen(
            fleet.coord.url + "/metrics?format=json", timeout=10.0,
        ) as response:
            snapshot = json.loads(response.read())
        series = {
            entry["labels"]["worker"]: entry["value"]
            for entry in snapshot["labeled"]["fleet_worker_tasks_done_total"]
        }
        assert set(series) == {"w0", "w1"}
        assert sum(series.values()) == 2

    def test_eviction_retains_federated_totals_end_to_end(
        self, fleet_factory,
    ):
        """Evicting a worker must not erase what it already reported."""
        fleet = fleet_factory(workers=0, lease_ttl=0.3)
        coord = fleet.coord
        ghost = _post(
            fleet.coord.url, "/v1/fleet/register", {"name": "ghost"},
        )
        _post(
            fleet.coord.url, "/v1/fleet/heartbeat",
            {"worker": ghost["worker"],
             "metrics": {"tasks_done_total": 5.0}},
        )
        assert coord.federation.fleet_total("tasks_done_total") == 5.0
        # Go silent; the eviction loop reaps the lease.
        deadline = time.monotonic() + 10.0
        while (
            coord.registry.evicted_total == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert coord.registry.evicted_total == 1
        assert coord.federation.fleet_total("tasks_done_total") == 5.0
        assert coord.metrics.labeled_value(
            "fleet_worker_tasks_done_total", {"worker": "ghost"},
        ) == 5.0


class TestFleetBackpressure:
    def test_no_workers_means_structured_503(self, fleet_factory):
        fleet = fleet_factory(workers=0)
        with pytest.raises(ServiceError) as excinfo:
            fleet.client().submit({
                "kind": "simulate",
                "job": {"workload": "tpcw", "variant": "pc"},
            })
        assert excinfo.value.status == 503
        assert excinfo.value.payload["code"] == "saturated"
        assert excinfo.value.retry_after >= 1  # from the Retry-After header

    def test_full_queue_answers_429_with_retry_after(self, fleet_factory):
        fleet = fleet_factory(workers=0, queue_capacity=1, max_inflight=1)
        # A registered-but-idle worker keeps admission open while ensuring
        # nothing dequeues: one claimed job saturates its single slot, so
        # the dispatcher stops claiming and the queue fills.
        _post(fleet.coord.url, "/v1/fleet/register", {"name": "idler"})
        client = fleet.client()

        def submit(queue):
            return client.submit({
                "kind": "simulate",
                "job": {
                    "workload": "specjbb", "variant": "pc",
                    "core_changes": {"store_queue": queue},
                },
            })

        submit(4)
        deadline = time.monotonic() + 5.0
        while (
            fleet.coord.queue.counts_by_state()["running"] < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)  # dispatcher claims #1; capacity frees up
        submit(8)  # fills the single queued slot
        with pytest.raises(ServiceError) as excinfo:
            submit(12)
        assert excinfo.value.status == 429
        assert excinfo.value.payload["code"] == "saturated"
        assert excinfo.value.retry_after >= 1

        # Higher-priority work sheds the queued job instead of bouncing.
        queued = [
            job for job in fleet.coord.queue.list_jobs()
            if job.state.value == "queued"
        ]
        assert len(queued) == 1
        urgent = client.submit({
            "kind": "simulate", "priority": 5,
            "job": {
                "workload": "specjbb", "variant": "pc",
                "core_changes": {"store_queue": 16},
            },
        })
        assert urgent["state"] == "queued"
        shed = client.status(queued[0].id)
        assert shed["state"] == "cancelled"
        victim = fleet.coord.queue.get(queued[0].id)
        assert victim is not None and victim.error.startswith("shed:")

    def test_draining_coordinator_answers_503(self, fleet_factory):
        fleet = fleet_factory(workers=1)
        fleet.coord.begin_drain()
        with pytest.raises(ServiceError) as excinfo:
            fleet.client().submit({
                "kind": "simulate",
                "job": {"workload": "tpcw", "variant": "pc"},
            })
        assert excinfo.value.status == 503
        assert fleet.client().health()["status"] == "draining"

    def test_retry_after_is_outstanding_tasks_over_completion_rate(
        self, cache_dir,
    ):
        coord = FleetCoordinator(
            port=0, cache_dir=str(cache_dir), settings=SMALL, lease_ttl=2.5,
        )
        assert coord._retry_after_hint() == 2.5  # no rate measured yet
        coord._record_completion_rate()
        assert coord._retry_after_hint() == 2.5  # one completion: no rate
        worker = coord.registry.register(name="w")
        coord.router.add_tasks([
            TaskRecord(
                id=f"t{i}", job_id="j", index=i,
                spec=JobSpec(workload="database"), priority=0,
            )
            for i in range(10)
        ])
        coord.router.lease(worker.id, max_tasks=2)  # 8 pending + 2 leased

        def hint(*stamps):
            coord._completions.clear()
            coord._completions.extend(stamps)
            return coord._retry_after_hint()

        # 4 completions over 1.5 s: 2 tasks/s, so 10 tasks take 5 s.
        assert hint(100.0, 100.5, 101.0, 101.5) == pytest.approx(5.0)
        assert hint(100.0, 100.001) == 1.0   # 1000 tasks/s: floor
        assert hint(100.0, 200.0) == 60.0    # 0.01 tasks/s: ceiling
        # Only the latest 50 completions count: old ones age out.
        stale = [0.0] * 10
        recent = [100.0 + i / 2 for i in range(50)]  # 2 tasks/s
        assert hint(*stale, *recent) == pytest.approx(5.0)


class TestCoordinatorIsAControlPlane:
    """Expanding a job into tasks reads the shared store at most: the
    coordinator never loads a trace and never simulates."""

    def test_expansion_loads_no_trace_and_runs_no_simulation(
        self, cache_dir, monkeypatch,
    ):
        from repro.core.backend import backend_names, resolve_backend
        from repro.service.jobqueue import Job
        from repro.service.protocol import parse_job_request

        recorded = {"workload": "database", "variant": "pc",
                    "core_changes": {"store_buffer": 24}}
        _record_quiescent_log(cache_dir, recorded)
        calls = []

        def forbidden(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"the coordinator called {name}")
            return call

        monkeypatch.setattr(Workbench, "annotated",
                            forbidden("Workbench.annotated"))
        for name in backend_names():
            monkeypatch.setattr(type(resolve_backend(name)), "simulate",
                                forbidden(f"{name}.simulate"))
        coord = FleetCoordinator(settings=SMALL, cache_dir=str(cache_dir))
        bodies = {
            "recorded sharded": {"kind": "simulate", "shards": 2,
                                 "job": recorded},
            "first sharded": {"kind": "simulate", "shards": 2,
                              "job": {"workload": "specjbb"}},
            "sweep": {"kind": "sweep", "sweep": {
                "workloads": ["database"],
                "axes": {"store_queue": [8, 16]}}},
            "plain": {"kind": "simulate", "job": {"workload": "tpcw"}},
        }
        tasks = {}
        for label, body in bodies.items():
            job = Job(id=label, request=parse_job_request(body), key=label)
            tasks[label] = coord._expand_job(job)
        assert calls == []
        assert {label: len(t) for label, t in tasks.items()} == {
            "recorded sharded": 2, "first sharded": 1, "sweep": 2,
            "plain": 1,
        }
        [whole] = tasks["first sharded"]
        assert (whole.spec.shard_start, whole.spec.shard_stop) == (0, -1)


class TestPlanAhead:
    """The dispatcher plans the next job while the current one executes,
    and the pending-task gate still bounds the backlog."""

    @staticmethod
    def _two_tasks(queue):
        """A job that fans out into two tasks: a two-point sweep."""
        return {
            "kind": "sweep",
            "sweep": {
                "workloads": ["database"], "variant": "pc",
                "axes": {"store_queue": [queue, queue + 1]},
            },
        }

    def test_next_job_is_planned_while_the_first_is_leased(
        self, fleet_factory,
    ):
        fleet = fleet_factory(workers=0, max_inflight=2)
        coord, url = fleet.coord, fleet.coord.url
        # An HTTP-only worker with two slots: it leases, never completes.
        holder = _post(url, "/v1/fleet/register", {"name": "holder"})
        client = fleet.client()
        first = client.submit(self._two_tasks(4))["id"]
        lease = _post(url, "/v1/fleet/lease",
                      {"worker": holder["worker"], "max": 2, "wait": 20})
        assert sorted(t["task"] for t in lease["tasks"]) == [
            f"{first}.0", f"{first}.1",
        ]
        second = client.submit(self._two_tasks(8))["id"]
        deadline = time.monotonic() + 30.0
        while (
            not coord.router.job_tasks(second)
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        # Expanded while the first job's tasks are still out.
        assert [t.state for t in coord.router.job_tasks(second)] == [
            "pending", "pending",
        ]
        assert [t.state for t in coord.router.job_tasks(first)] == [
            "leased", "leased",
        ]
        assert coord.queue.get(second).state is JobState.RUNNING

        # Two pending tasks cover both slots: later jobs stay queued, and
        # pending never exceeds the slots plus one job's fan-out.
        slots, fan_out = 2, 2
        later = [client.submit(self._two_tasks(q))["id"] for q in (16, 32)]
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            assert coord.router.counts()["pending"] <= slots + fan_out
            time.sleep(0.01)
        assert [coord.queue.get(j).state for j in later] == [
            JobState.QUEUED, JobState.QUEUED,
        ]

        # Leasing the planned job's tasks opens the gate at once.
        _post(url, "/v1/fleet/complete", {
            "worker": holder["worker"],
            "results": [
                {"task": f"{first}.{i}", "result": _jsonable_result()}
                for i in (0, 1)
            ],
        })
        lease = _post(url, "/v1/fleet/lease",
                      {"worker": holder["worker"], "max": 2, "wait": 20})
        assert len(lease["tasks"]) == 2
        deadline = time.monotonic() + 30.0
        while (
            coord.queue.get(later[0]).state is JobState.QUEUED
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert coord.queue.get(later[0]).state is JobState.RUNNING
        assert coord.router.counts()["pending"] <= slots + fan_out


def _jsonable_result(status="ok", error=""):
    return serialize.to_jsonable(JobResult(
        spec=JobSpec(workload="database"), status=status,
        result=None, error=error,
    ))


class TestCompletionProtocol:
    """The /v1/fleet/complete contract: stale answers are acknowledged,
    malformed batches are rejected atomically — a healthy worker must
    never get an error answer for work the coordinator half-accepted.
    """

    def test_stale_completion_answers_200_not_error(self, fleet_factory):
        # The task's job settled (failed/forgotten) while this worker was
        # still executing; its late answer is a shrug, not a 500 that
        # would crash the worker and cascade through the fleet.
        fleet = fleet_factory(workers=0)
        worker = _post(
            fleet.coord.url, "/v1/fleet/register", {"name": "straggler"},
        )
        answer = _post(
            fleet.coord.url, "/v1/fleet/complete",
            {
                "worker": worker["worker"],
                "results": [{"task": "gone.0", "result": _jsonable_result()}],
            },
        )
        assert answer["ok"] is True
        assert answer["accepted"] == 0
        assert answer["stale"] == 1

    def test_malformed_batch_rejected_before_any_result_applies(
        self, fleet_factory,
    ):
        fleet = fleet_factory(workers=0)
        url = fleet.coord.url
        worker = _post(url, "/v1/fleet/register", {"name": "w"})
        client = fleet.client()
        client.submit({
            "kind": "sweep",
            "sweep": {
                "workloads": ["database"],
                "variant": "pc",
                "axes": {"store_queue": [8, 16]},
            },
        })
        lease = _post(
            url, "/v1/fleet/lease",
            {"worker": worker["worker"], "max": 2, "wait": 20},
        )
        assert len(lease["tasks"]) == 2
        good, other = (entry["task"] for entry in lease["tasks"])

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, "/v1/fleet/complete", {
                "worker": worker["worker"],
                "results": [
                    {"task": good, "result": _jsonable_result()},
                    {"task": other, "result": {"garbage": True}},
                ],
            })
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "results[1]" in body["error"]
        # atomic rejection: the valid first entry was NOT applied
        assert fleet.coord.router.counts()["leased"] == 2

        answer = _post(url, "/v1/fleet/complete", {
            "worker": worker["worker"],
            "results": [
                {"task": good, "result": _jsonable_result()},
                {"task": other, "result": _jsonable_result()},
            ],
        })
        assert answer["accepted"] == 2

    def test_malformed_content_length_answers_400(self, fleet_factory):
        fleet = fleet_factory(workers=0)
        with socket.create_connection(
            (fleet.coord.host, fleet.coord.port), timeout=5.0,
        ) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: banana\r\n\r\n"
            )
            data = sock.recv(65536)
        assert data.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"


class TestStatusLongPoll:
    """``GET /v1/jobs/<id>?wait=S`` and the client's long-polling wait.

    The coordinator keeps no cache (nothing fake is published to the
    module's shared result store); an HTTP-only worker leases the job and
    answers it when the test says so.
    """

    @pytest.fixture
    def coord(self):
        coord = FleetCoordinator(
            port=0, cache_dir=None, settings=SMALL,
        ).start()
        yield coord
        coord.stop()

    @staticmethod
    def _leased_job(coord, queue=16):
        """Submit a simulate job and lease its one task; returns
        ``(job id, worker id)``."""
        worker = _post(coord.url, "/v1/fleet/register", {"name": "hand"})
        receipt = ServiceClient(coord.url).submit({
            "kind": "simulate",
            "job": {
                "workload": "database", "variant": "pc",
                "core_changes": {"store_queue": queue},
            },
        })
        lease = _post(coord.url, "/v1/fleet/lease",
                      {"worker": worker["worker"], "max": 1, "wait": 20})
        assert [t["task"] for t in lease["tasks"]] == [f"{receipt['id']}.0"]
        return receipt["id"], worker["worker"]

    @staticmethod
    def _complete_later(coord, job_id, worker_id, delay, pad=0):
        def complete():
            time.sleep(delay)
            _post(coord.url, "/v1/fleet/complete", {
                "worker": worker_id,
                "results": [
                    {"task": f"{job_id}.0", "result": _jsonable_result()},
                ],
                # A body this large is parsed on the default executor.
                "pad": "x" * pad,
            })

        thread = threading.Thread(target=complete, daemon=True)
        thread.start()
        return thread

    @staticmethod
    def _get(coord, target):
        started = time.monotonic()
        try:
            with urllib.request.urlopen(
                f"{coord.url}{target}", timeout=30.0,
            ) as response:
                code, body = response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            code, body = exc.code, json.loads(exc.read())
        return code, body, time.monotonic() - started

    def test_wait_sees_the_finish_in_at_most_two_requests(self, coord):
        job_id, worker_id = self._leased_job(coord)
        client = ServiceClient(coord.url, timeout=30.0)
        requests = []
        status = client.status

        def counted(*args, **kwargs):
            requests.append(kwargs.get("wait", 0.0))
            return status(*args, **kwargs)

        client.status = counted
        started = time.monotonic()
        self._complete_later(coord, job_id, worker_id, 0.3)
        final = client.wait(job_id, timeout=20.0)
        elapsed = time.monotonic() - started
        assert final["state"] == "done"
        assert 1 <= len(requests) <= 2
        assert all(wait > 0 for wait in requests)
        assert 0.25 <= elapsed < 5.0  # answered as the job ended

    def test_wait_on_an_unfinished_job_times_out_non_terminal(self, coord):
        job_id, _ = self._leased_job(coord)
        code, body, elapsed = self._get(coord, f"/v1/jobs/{job_id}?wait=0.3")
        assert code == 200
        assert body["state"] == "running"
        assert 0.3 <= elapsed < 5.0

    def test_over_cap_wait_is_clamped(self, coord, monkeypatch):
        from repro.fleet import frontend

        job_id, _ = self._leased_job(coord)
        monkeypatch.setattr(frontend, "MAX_LONG_POLL", 0.2)
        code, body, elapsed = self._get(coord, f"/v1/jobs/{job_id}?wait=600")
        assert code == 200 and body["state"] == "running"
        assert elapsed < 5.0

    def test_unknown_job_answers_404_at_once(self, coord):
        code, body, elapsed = self._get(coord, "/v1/jobs/nosuchjob?wait=20")
        assert code == 404 and "unknown job" in body["error"]
        assert elapsed < 5.0

    @pytest.mark.parametrize("value", ["soon", "-1", "nan"])
    def test_bad_wait_answers_400(self, coord, value):
        job_id, _ = self._leased_job(coord)
        code, body, _ = self._get(coord, f"/v1/jobs/{job_id}?wait={value}")
        assert code == 400
        assert body["code"] == "protocol-invalid"
        assert "wait" in body["error"]

    def test_parked_polls_do_not_starve_a_completion(self, coord):
        job_id, worker_id = self._leased_job(coord)
        answers = []

        def poll():
            answers.append(self._get(coord, f"/v1/jobs/{job_id}?wait=20"))

        pollers = [threading.Thread(target=poll) for _ in range(64)]
        for thread in pollers:
            thread.start()
        time.sleep(0.3)  # let every poll park
        # Far more parked polls than default-executor threads, yet the
        # completion (its body parsed off-loop) is merged at once.
        self._complete_later(coord, job_id, worker_id, 0.0, pad=100_000)
        for thread in pollers:
            thread.join(timeout=30.0)
        assert len(answers) == 64
        assert all(code == 200 for code, _, _ in answers)
        assert all(body["state"] == "done" for _, body, _ in answers)
        assert max(elapsed for _, _, elapsed in answers) < 10.0


    def test_no_wakeup_is_lost_when_jobs_end_as_polls_arrive(self):
        import sys

        coord = FleetCoordinator(
            port=0, cache_dir=None, settings=SMALL, max_inflight=32,
        ).start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            worker = _post(coord.url, "/v1/fleet/register", {"name": "hand"})
            client = ServiceClient(coord.url)
            jobs = [
                client.submit({
                    "kind": "simulate",
                    "job": {
                        "workload": "database", "variant": "pc",
                        "core_changes": {"store_queue": 2 ** (i % 8 + 1),
                                         "store_buffer": 2 ** (i // 8)},
                    },
                })["id"]
                for i in range(24)
            ]
            leased = []
            deadline = time.monotonic() + 30.0
            while len(leased) < len(jobs) and time.monotonic() < deadline:
                lease = _post(coord.url, "/v1/fleet/lease", {
                    "worker": worker["worker"], "max": 32, "wait": 5,
                })
                leased += [t["task"] for t in lease["tasks"]]
            assert len(leased) == len(jobs)
            answers = []

            def poll(job_id):
                answers.append(self._get(coord, f"/v1/jobs/{job_id}?wait=20"))

            # Polls arrive while the jobs finish one by one: each poll
            # either sees its job terminal or is woken by its retirement.
            pollers = [
                threading.Thread(target=poll, args=(job_id,))
                for job_id in jobs
            ]
            for thread in pollers:
                thread.start()
            for task in leased:
                _post(coord.url, "/v1/fleet/complete", {
                    "worker": worker["worker"],
                    "results": [{"task": task, "result": _jsonable_result()}],
                })
            for thread in pollers:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in pollers)
            assert [body["state"] for _, body, _ in answers] == (
                ["done"] * len(jobs)
            )
            assert max(elapsed for _, _, elapsed in answers) < 10.0
        finally:
            sys.setswitchinterval(interval)
            coord.stop()

class TestWorkerResilience:
    def _worker(self):
        worker = FleetWorker("http://127.0.0.1:1")
        worker.worker_id = "w-test"
        return worker

    def test_rejected_completion_is_dropped_not_fatal(self, monkeypatch):
        worker = self._worker()

        def reject(path, payload):
            raise urllib.error.HTTPError(path, 500, "boom", None, None)

        monkeypatch.setattr(worker, "_post", reject)
        assert worker._post_complete([{"task": "t", "result": None}]) is True

    def test_eviction_410_stops_the_worker(self, monkeypatch):
        worker = self._worker()

        def gone(path, payload):
            raise urllib.error.HTTPError(path, 410, "gone", None, None)

        monkeypatch.setattr(worker, "_post", gone)
        assert worker._post_complete([{"task": "t", "result": None}]) is False

    def test_unreachable_coordinator_retries_then_gives_up(
        self, monkeypatch,
    ):
        worker = self._worker()
        worker.max_connect_failures = 3
        calls = []

        def unreachable(path, payload):
            calls.append(path)
            raise ConnectionRefusedError("nope")

        monkeypatch.setattr(worker, "_post", unreachable)
        assert worker._post_complete([{"task": "t", "result": None}]) is False
        assert len(calls) == 3


class TestFleetDrain:
    def test_drain_finishes_backlog_and_releases_workers(
        self, fleet_factory,
    ):
        fleet = fleet_factory(workers=1)
        client = fleet.client()
        receipt = client.submit({
            "kind": "simulate",
            "job": {
                "workload": "database", "variant": "pc",
                "core_changes": {"store_queue": 32},
            },
            "backend": "event",
        })
        abandoned = fleet.coord.drain(timeout=120.0)
        assert abandoned == 0
        assert client.status(receipt["id"])["state"] == "done"
        # the drained worker observes the flag and leaves by itself
        deadline = time.monotonic() + 10.0
        while (
            fleet.coord.registry.count() and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert fleet.coord.registry.count() == 0

    def test_fleet_status_payload(self, fleet_factory):
        fleet = fleet_factory(workers=2)
        status = fleet.client().fleet_status()
        assert len(status["workers"]) == 2
        assert status["tasks"] == {
            "pending": 0, "leased": 0, "done": 0, "failed": 0,
        }
        assert status["draining"] is False


#: Runs a figure job, a ``shards=2`` simulate and a ``contexts=2``
#: simulate through a coordinator and its serial in-process worker, then
#: writes the loaded ``repro`` modules to ``argv[1]``.
_RESULT_JOBS = """
import json, sys, threading
from repro.fleet import FleetCoordinator
from repro.fleet.frontend import local_worker
from repro.harness import ExperimentSettings
from repro.service.client import ServiceClient

settings = ExperimentSettings(warmup=1500, measure=8000, seed=11,
                              calibrate=False)
coord = FleetCoordinator(port=0, cache_dir=sys.argv[2],
                         settings=settings).start()
worker = local_worker(coord, workers=1)
thread = threading.Thread(target=worker.run, daemon=True)
thread.start()
client = ServiceClient(coord.url)
for body in (
    {"kind": "figure", "figure": "figure2", "workloads": ["database"]},
    {"kind": "simulate", "job": {"workload": "database"}, "shards": 2},
    {"kind": "simulate",
     "job": {"workload": "database+tpcw", "contexts": 2}},
):
    status = client.wait(client.submit(body)["id"], timeout=200)
    assert status["state"] == "done", status
with open(sys.argv[1], "w") as handle:
    json.dump(sorted(m for m in sys.modules if m.startswith("repro")),
              handle)
coord.begin_drain()
worker.request_stop()
thread.join(timeout=15)
coord.stop()
"""

#: The repro modules a stored result may load without being salted:
#: package plumbing, the store itself, the fleet and service transport,
#: and observability.  None of them computes a number in a payload or
#: shapes one: the coordinator's ``_assemble`` builds its payloads with
#: the salted ``service.executor`` functions.
_UNSALTED_MODULES = (
    "repro", "repro._lazy", "repro.errors", "repro.names",
    "repro.engine", "repro.engine.cache",
    "repro.fleet", "repro.fleet.federation",
    "repro.fleet.frontend", "repro.fleet.registry", "repro.fleet.router",
    "repro.fleet.worker",
    "repro.service", "repro.service.client", "repro.service.jobqueue",
    "repro.obs", "repro.obs.context", "repro.obs.logging",
    "repro.obs.metrics", "repro.obs.options", "repro.obs.recorder",
    "repro.obs.trace",
)


class TestResultKey:
    def test_result_store_is_keyed_by_wire_version(self, monkeypatch):
        # The wire version lives in the wire codec, whose source the
        # result salt hashes (test_artifact_store.TestResultSalt): the key
        # must move with that salt.
        from repro.fleet import frontend
        from repro.service.protocol import parse_job_request

        coord = FleetCoordinator(settings=SMALL, cache_dir=None)
        request = parse_job_request({
            "kind": "simulate", "job": {"workload": "database"},
        })
        current = coord._result_key(request)
        assert coord._result_key(request) == current
        monkeypatch.setattr(frontend, "result_salt", lambda: "another")
        assert coord._result_key(request) != current

    def test_every_module_a_stored_result_loads_is_salted(self, tmp_path):
        # A fresh interpreter runs each result-store job kind through a
        # coordinator and its in-process worker.  Every repro module it
        # loads is hashed into the result key, or is transport or
        # observability code that cannot change a stored number.
        import importlib.util
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.engine.cache import RESULT_SALT_SOURCES, SALT_SOURCES

        src = Path(__file__).resolve().parent.parent / "src"
        dump = tmp_path / "modules.json"
        proc = subprocess.run(
            [sys.executable, "-c", _RESULT_JOBS, str(dump),
             str(tmp_path / "cache")],
            capture_output=True, text=True, timeout=240,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(dump.read_text())
        assert {"repro.harness.figures", "repro.shard.merge",
                "repro.smt.simulator"} <= set(loaded)
        salted = SALT_SOURCES + RESULT_SALT_SOURCES
        package = src / "repro"
        unsalted = []
        for name in loaded:
            origin = importlib.util.find_spec(name).origin
            source = Path(origin).resolve().relative_to(package).as_posix()
            if not any(
                source == s or source.startswith(s + "/") for s in salted
            ):
                unsalted.append(name)
        assert sorted(set(unsalted) - set(_UNSALTED_MODULES)) == []
