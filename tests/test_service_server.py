"""End-to-end service tests over real HTTP (``mlpsim serve``'s server and
repro.service.client).

The acceptance contract: four concurrent clients submitting the same
figure-2-style sweep share ONE engine execution (dedup counter = 3), all
four read bit-identical results matching a direct Workbench run, and
``/metrics`` reports consistent queue/cache counters throughout.

Kept fast with a deliberately tiny trace (the same sizing the engine
runner tests use); the server — a fleet coordinator plus its in-process
worker, as ``mlpsim serve`` builds it — is started in-process on an
ephemeral port.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.config import StorePrefetchMode
from repro.engine.runner import ShardedReport
from repro.fleet import FleetCoordinator, local_worker
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.harness.figures import figure2
from repro.estimate import EpiEstimate
from repro.estimate import estimate as estimate_verb
from repro.service import JobState, ServiceClient, ServiceError
from repro.smt import run_smt

SMALL = ExperimentSettings(warmup=1500, measure=4000, seed=11,
                           calibrate=False)

#: A miniature Figure 2 slice: the store-prefetch axis on one workload.
FIG2_AXES = {"store_prefetch": ["sp0", "sp1", "sp2"]}


class Served:
    """What ``mlpsim serve`` runs: a coordinator plus one in-process worker.

    The worker joins at once, so admission is open, but its pull loop
    only starts on :meth:`start_worker`: until then submissions stage a
    deterministic backlog.  With ``max_inflight=1`` the coordinator
    claims at most one job for the idle worker; :meth:`occupy` fills that
    slot, so every later submission stays queued.
    """

    def __init__(self, cache_dir, workers=1, obs=None, **coord_kwargs):
        coord_kwargs.setdefault("max_inflight", 1)
        self.coord = FleetCoordinator(
            port=0, settings=SMALL,
            cache_dir=None if cache_dir is None else str(cache_dir),
            obs=obs, **coord_kwargs,
        ).start()
        self.url = self.coord.url
        self.metrics = self.coord.metrics
        self.worker = local_worker(self.coord, workers=workers, obs=obs)
        self.worker.lease_wait = 1.0
        self._thread = threading.Thread(target=self.worker.run, daemon=True)

    def start_worker(self):
        self._thread.start()

    def occupy(self):
        """Submit a job and wait until the coordinator claims it."""
        receipt = ServiceClient(self.url).submit_sweep(
            "specjbb", store_queue=[4],
        )
        job = self.coord.queue.get(receipt["id"])
        deadline = time.monotonic() + 5.0
        while job.state is JobState.QUEUED and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.state is JobState.RUNNING
        return receipt

    def stop(self):
        self.coord.begin_drain()
        self.worker.request_stop()
        if self._thread.is_alive():
            self._thread.join(timeout=15.0)
        self.coord.stop()


@pytest.fixture()
def service(tmp_path):
    """The server with its worker held back (see :class:`Served`)."""
    served = Served(tmp_path / "cache")
    yield served
    served.stop()


@pytest.fixture()
def client(service):
    return ServiceClient(service.url, timeout=30.0)


class TestEndToEnd:
    def test_four_concurrent_clients_one_execution(self, service, client):
        receipts = []
        barrier = threading.Barrier(4)

        def submit():
            own = ServiceClient(service.url, timeout=30.0)
            barrier.wait()
            receipts.append(
                own.submit_sweep("database", **FIG2_AXES)
            )

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # (a) all four submissions resolved to one job, three deduplicated
        ids = {receipt["id"] for receipt in receipts}
        assert len(ids) == 1
        assert sum(receipt["deduped"] for receipt in receipts) == 3
        assert service.metrics.counter("jobs_deduped_total") == 3
        assert service.metrics.counter("jobs_submitted_total") == 4

        service.start_worker()
        job_id = ids.pop()
        statuses = [client.wait(job_id, timeout=240.0) for _ in range(4)]

        # (b) every client reads the same bit-identical results, equal to
        # a direct (service-free) Workbench run of the same points
        reports = [ServiceClient.decode_report(s) for s in statuses]
        bench = Workbench(SMALL, cache_dir=None)
        for mode, job in zip(StorePrefetchMode, reports[0].jobs):
            assert job.ok
            direct = bench.run("database", store_prefetch=mode)
            assert job.result == direct
        for report in reports[1:]:
            assert report == reports[0]
        assert statuses[0]["dedup_count"] == 3

        # (c) /metrics agrees with what actually happened
        metrics = client.metrics()
        counters = metrics["counters"]
        assert counters["jobs_submitted_total"] == 4
        assert counters["jobs_deduped_total"] == 3
        assert counters["jobs_done_total"] == 1
        assert counters.get("jobs_failed_total", 0) == 0
        gauges = metrics["gauges"]
        assert gauges["queue_depth"] == 0
        assert gauges["jobs_done"] == 1
        assert gauges["jobs_queued"] == gauges["jobs_running"] == 0
        stats = service.coord.artifacts.stats
        assert gauges["cache_misses"] == stats.misses
        assert gauges["cache_memory_hits"] == stats.memory_hits
        assert metrics["latency"]["job_exec"]["count"] == 1
        prom = client.metrics(format="text")
        assert "repro_jobs_deduped_total 3" in prom
        assert "repro_queue_depth 0" in prom

    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["settings"]["measure"] == SMALL.measure
        assert health["jobs"]["queued"] == 0

    def test_simulate_job_and_status_payload(self, service, client):
        service.start_worker()
        receipt = client.submit_simulate(
            "database", store_prefetch="sp1", store_queue=16,
        )
        status = client.wait(receipt["id"], timeout=240.0)
        assert status["state"] == "done"
        report = ServiceClient.decode_report(status)
        direct = Workbench(SMALL, cache_dir=None).run(
            "database",
            store_prefetch=StorePrefetchMode.AT_RETIRE,
            store_queue=16,
        )
        assert report.jobs[0].result == direct

    def test_figure_job_matches_a_direct_run(self, service, client):
        service.start_worker()
        receipt = client.submit_figure("figure2", ["database"])
        data = client.result(receipt["id"], timeout=240.0)
        assert data == figure2(Workbench(SMALL, cache_dir=None), ["database"])

    def test_cancel_queued_job_via_http(self, service, client):
        # the idle worker's slot is taken: the job stays queued
        service.occupy()
        receipt = client.submit_sweep("tpcw", store_queue=[16])
        cancelled = client.cancel(receipt["id"])
        assert cancelled["cancelled"] is True
        status = client.status(receipt["id"])
        assert status["state"] == "cancelled"
        # cancelling again conflicts
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(receipt["id"])
        assert excinfo.value.status == 409

    def test_bad_requests_answer_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "sweep"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit({
                "kind": "sweep",
                "sweep": {"workloads": ["database"],
                          "axes": {"store_prefetch": ["warp9"]}},
            })
        assert excinfo.value.status == 400
        assert "warp9" in str(excinfo.value)

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("doesnotexist")
        assert excinfo.value.status == 404


class TestLocalWorker:
    def test_pooled_worker_matches_a_direct_run(self, tmp_path):
        served = Served(tmp_path / "cache", workers=2)
        served.start_worker()
        try:
            client = ServiceClient(served.url, timeout=30.0)
            sweep = client.result(
                client.submit_sweep(
                    "database", store_queue=[8, 16, 32], **FIG2_AXES,
                )["id"],
                timeout=240.0,
            )
            pool = served.worker.runner._pool
            figure = client.result(
                client.submit_figure("figure2", ["database"])["id"],
                timeout=240.0,
            )
            # Every task of both jobs ran on one long-lived pool.
            assert pool is not None and served.worker.runner._pool is pool
        finally:
            served.stop()
        bench = Workbench(SMALL, cache_dir=None)
        assert [job.result for job in sweep.jobs] == [
            bench.run("database", store_queue=queue, store_prefetch=mode)
            for queue in (8, 16, 32)
            for mode in StorePrefetchMode
        ]
        assert figure == figure2(bench, ["database"])

    def test_memory_only_server_writes_no_cache(self, tmp_path, monkeypatch):
        auto = tmp_path / "auto-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(auto))
        served = Served(None)
        served.start_worker()
        try:
            client = ServiceClient(served.url, timeout=30.0)
            report = client.result(
                client.submit_simulate("tpcw", store_queue=16)["id"],
                timeout=120.0,
            )
        finally:
            served.stop()
        assert report.jobs[0].ok
        assert not auto.exists()

    def test_shared_trace_file_rotates_in_order(self, tmp_path):
        from repro.obs import ObsOptions
        from repro.obs.trace import read_events, trace_files

        traces = tmp_path / "traces"
        obs = ObsOptions.for_trace(traces, trace_max_bytes=4096)
        served = Served(tmp_path / "cache", obs=obs)
        served.start_worker()
        try:
            client = ServiceClient(served.url, timeout=30.0)
            client.result(
                client.submit_sweep("database", **FIG2_AXES)["id"],
                timeout=120.0,
            )
        finally:
            served.stop()
        # The coordinator and its serial in-process worker write one file.
        assert len(trace_files(traces)) > 2
        stamps = [event["ts"] for event in read_events(traces)]
        assert stamps == sorted(stamps)
        assert {"fleet_task_leased", "span_start"} <= {
            event["kind"] for event in read_events(traces)
        }


class TestProtocolVersioning:
    def test_responses_carry_wire_version(self, client):
        from repro.service.protocol import PROTOCOL_VERSION

        assert client.health()["v"] == PROTOCOL_VERSION
        receipt = client.submit_sweep("database", store_queue=[16])
        assert receipt["v"] == PROTOCOL_VERSION
        assert client.status(receipt["id"])["v"] == PROTOCOL_VERSION

    def test_version_mismatch_is_structured_400(self, client):
        # A v1 client cannot decode v2's column-wise results.
        with pytest.raises(ServiceError) as excinfo:
            client.submit({
                "v": 1,
                "kind": "sweep",
                "sweep": {"workloads": ["database"],
                          "axes": {"store_queue": [16]}},
            })
        assert excinfo.value.status == 400
        assert "protocol version" in str(excinfo.value)
        # even the error document names the version the server speaks
        from repro.service.protocol import PROTOCOL_VERSION
        assert excinfo.value.payload.get("v") == PROTOCOL_VERSION

    def test_search_submission_is_structured_400(self, client):
        # v4 has no design-space search kind: a submission of one is
        # refused on the submit path and told the kinds the server runs.
        from repro.service.protocol import PROTOCOL_VERSION

        assert not hasattr(client, "submit_tune")
        with pytest.raises(ServiceError) as excinfo:
            client.submit({
                "v": PROTOCOL_VERSION,
                "kind": "tune",
                "tune": {"workload": "database", "budget": 2,
                         "space": {"scout": ["none", "hws2"]}},
            })
        assert excinfo.value.status == 400
        message = str(excinfo.value)
        assert "'kind' must be one of" in message
        assert "'sweep'" in message and "'figure'" in message

    def test_result_verb_returns_decoded_report(self, service, client):
        service.start_worker()
        receipt = client.submit_simulate("database", store_queue=16)
        report = client.result(receipt["id"], timeout=240.0)
        assert report.jobs[0].ok
        assert report.jobs[0].result.epoch_count > 0

    def test_result_verb_decodes_sharded_report(self, service, client):
        service.start_worker()
        receipt = client.submit({
            "kind": "simulate",
            "job": {"workload": "database", "variant": "pc"},
            "shards": 2,
        })
        report = client.result(receipt["id"], timeout=240.0)
        assert isinstance(report, ShardedReport)
        direct = Workbench(SMALL, cache_dir=None).run("database")
        assert report.merged == direct
        status = client.status(receipt["id"])
        assert ServiceClient.decode_report(status).merged == direct

    def test_result_verb_raises_on_cancelled_job(self, service, client):
        # the idle worker's slot is taken: the job stays queued until
        # cancelled
        service.occupy()
        receipt = client.submit_sweep("tpcw", store_queue=[16])
        client.cancel(receipt["id"])
        with pytest.raises(ServiceError) as excinfo:
            client.result(receipt["id"], timeout=5.0)
        assert "cancelled" in str(excinfo.value)

    def test_job_listing(self, service, client):
        running = service.occupy()
        client.submit_sweep("database", store_queue=[16])
        client.submit_sweep("tpcw", store_queue=[16])
        listed = client.jobs()
        assert len(listed) == 3
        assert [job["state"] for job in listed
                if job["id"] != running["id"]] == ["queued", "queued"]

    def test_failed_job_carries_traceback(self, service, client,
                                          monkeypatch):
        def boom(request):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(service.worker.engine, "execute", boom)
        service.start_worker()
        receipt = client.submit_figure("figure3", ["database"])
        status = client.wait(receipt["id"], timeout=30.0)
        assert status["state"] == "failed"
        assert "engine exploded" in status["error"]
        assert "RuntimeError" in status["traceback"]
        assert client.metrics()["counters"]["jobs_failed_total"] == 1
        # the worker keeps serving after a poisoned job
        after = client.submit_sweep("database", store_queue=[16])
        assert client.wait(after["id"], timeout=240.0)["state"] == "done"


class TestSaturationAndDrain:
    def test_healthz_reports_backends_and_fleet_shape(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert "reference" in health["backends"]
        assert health["mode"] == "fleet"
        assert health["fleet"]["workers"] == 1  # the in-process worker

    def test_draining_daemon_answers_503_with_retry_after(
        self, service, client,
    ):
        service.coord.begin_drain()
        with pytest.raises(ServiceError) as excinfo:
            client.submit_simulate("database")
        error = excinfo.value
        assert error.status == 503
        assert error.payload["code"] == "saturated"
        assert error.retry_after >= 1  # parsed from the Retry-After header
        assert client.health()["status"] == "draining"
        # draining refuses *new* work; reads still answer
        assert client.jobs() == []

    def test_full_queue_answers_429_with_retry_after(self, tmp_path):
        svc = Served(tmp_path / "cache", queue_capacity=1)
        try:
            own = ServiceClient(svc.url, timeout=30.0)
            svc.occupy()
            own.submit_sweep("database", store_queue=[16])
            with pytest.raises(ServiceError) as excinfo:
                own.submit_sweep("database", store_queue=[32])
            error = excinfo.value
            assert error.status == 429
            assert error.payload["code"] == "saturated"
            assert error.retry_after >= 1
        finally:
            svc.stop()


class TestClientBackoff:
    """Saturation retry behaviour against a scripted stub server."""

    def _stub(self, fail_times, status=429, retry_after="0"):
        import json
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        seen = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                seen.append(self.path)
                if len(seen) <= fail_times:
                    body = json.dumps(
                        {"error": "try later", "code": "saturated"},
                    ).encode("utf-8")
                    self.send_response(status)
                    self.send_header("Retry-After", retry_after)
                else:
                    body = json.dumps(
                        {"id": "j1", "state": "queued", "deduped": False},
                    ).encode("utf-8")
                    self.send_response(202)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        return httpd, seen

    def test_retries_past_saturation_then_succeeds(self):
        import random

        httpd, seen = self._stub(fail_times=2)
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{httpd.server_address[1]}",
                saturation_retries=3,
                backoff=0.001,
                max_backoff=0.01,
                rng=random.Random(7),
            )
            receipt = client.submit_simulate("database")
            assert receipt["id"] == "j1"
            assert len(seen) == 3  # two 429 answers, then the 202
        finally:
            httpd.shutdown()

    def test_exhausted_retries_surface_the_retry_after_hint(self):
        httpd, seen = self._stub(fail_times=99, status=503, retry_after="7")
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{httpd.server_address[1]}",
                saturation_retries=0,  # surface saturation immediately
            )
            with pytest.raises(ServiceError) as excinfo:
                client.submit_simulate("database")
            error = excinfo.value
            assert error.status == 503
            assert error.payload["code"] == "saturated"
            assert error.retry_after == 7.0
            assert len(seen) == 1  # no retry when opted out
        finally:
            httpd.shutdown()

    def test_decorrelated_jitter_stays_within_bounds(self):
        import random

        client = ServiceClient(
            "http://127.0.0.1:9", retries=0,
            backoff=0.01, max_backoff=0.5, rng=random.Random(1),
        )
        previous = client.backoff
        for _ in range(200):
            value = client._jitter_sleep()
            assert client.backoff <= value <= client.max_backoff
            assert value <= max(previous * 3, client.backoff) + 1e-12
            previous = value


class TestClientLongPoll:
    def test_wait_paces_a_server_that_ignores_wait(self):
        import json
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        seen = []

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                seen.append(self.path)
                body = json.dumps({"id": "j1", "state": "running"}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{httpd.server_address[1]}", timeout=5.0,
            )
            with pytest.raises(TimeoutError):
                client.wait("j1", timeout=0.5)
        finally:
            httpd.shutdown()
            httpd.server_close()
        # The requests asked to wait (all but a last look at the
        # deadline); the answers came at once, so the client paused
        # between them instead of spinning.
        assert sum("?wait=" in path for path in seen) >= len(seen) - 1
        assert 2 <= len(seen) <= 15


class TestSmtAndEstimateVerbs:
    def test_smt_simulate_over_http(self, service, client):
        service.start_worker()
        receipt = client.submit_simulate(
            "oltp_java", contexts=2, scheduler="mlp",
        )
        status = client.wait(receipt["id"], timeout=240.0)
        assert status["state"] == "done"
        report = ServiceClient.decode_report(status)
        result = report.jobs[0].result
        assert result.scheduler == "mlp"
        assert len(result.contexts) == 2
        direct = run_smt(
            Workbench(SMALL, cache_dir=None), "oltp_java",
            contexts=2, scheduler="mlp",
        )
        assert result.stp == direct.stp
        assert result.antt == direct.antt

    def test_estimate_resolves_without_the_dispatcher(self, client):
        # The worker never runs: estimates are answered inline on submit,
        # so the job is already done when the receipt comes back.
        receipt = client.submit({
            "kind": "estimate",
            "job": {"workload": "database", "core_changes": {"scout": "hws2"}},
        })
        status = client.wait(receipt["id"], timeout=30.0)
        assert status["state"] == "done"
        result = status["result"]
        assert result["kind"] == "estimate"
        assert result["predicted_epi_per_1000"] > 0
        assert "estimate database" in result["summary"]
        decoded = client.result(receipt["id"])
        assert isinstance(decoded, EpiEstimate)
        assert decoded == estimate_verb("database", scout="hws2")

    def test_estimate_bad_scheduler_answers_400(self, client):
        from repro.service import ServiceError as _err

        with pytest.raises(_err):
            client.submit_simulate(
                "database", contexts=2, scheduler="fifo",
            )
