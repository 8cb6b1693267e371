"""End-to-end service tests over real HTTP (repro.service.server/client).

The acceptance contract: four concurrent clients submitting the same
figure-2-style sweep share ONE engine execution (dedup counter = 3), all
four read bit-identical results matching a direct Workbench run, and
``/metrics`` reports consistent queue/cache counters throughout.

Kept fast with a deliberately tiny trace (the same sizing the engine
runner tests use); the service is started in-process on an ephemeral port.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import StorePrefetchMode
from repro.engine.runner import ShardedReport
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.estimate import EpiEstimate
from repro.estimate import estimate as estimate_verb
from repro.service import ReproService, ServiceClient, ServiceError
from repro.smt import run_smt
from repro.tune import TuneResult

SMALL = ExperimentSettings(warmup=1500, measure=4000, seed=11,
                           calibrate=False)

#: A miniature Figure 2 slice: the store-prefetch axis on one workload.
FIG2_AXES = {"store_prefetch": ["sp0", "sp1", "sp2"]}


@pytest.fixture()
def service(tmp_path):
    """An in-process daemon with the dispatcher held back, so tests can
    stage a deterministic backlog before anything executes."""
    svc = ReproService(
        settings=SMALL,
        cache_dir=tmp_path / "cache",
        workers=1,
        start_dispatcher=False,
    ).start()
    yield svc
    svc.stop()


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

        service.start_dispatcher()
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
        stats = service.engine.artifacts.stats
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
        service.start_dispatcher()
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

    def test_tune_job_returns_best_config(self, service, client):
        service.start_dispatcher()
        receipt = client.submit_tune(
            "database", strategy="grid", budget=2,
            scout=["none", "hws2"],
        )
        status = client.wait(receipt["id"], timeout=240.0)
        assert status["state"] == "done"
        result = status["result"]
        assert result["kind"] == "tune"
        assert result["best"]["knobs"]["scout"] == "hws2"
        assert result["best"]["epi_per_1000"] > 0
        assert "tune:database" in result["summary"]
        decoded = TuneResult.from_dict(result["tune_result"])
        assert decoded.evaluations == 2
        # identical resubmission resumes from the daemon's shared cache
        again = client.submit_tune(
            "database", strategy="grid", budget=2,
            scout=["none", "hws2"],
        )
        second = client.wait(again["id"], timeout=240.0)
        resumed = TuneResult.from_dict(second["result"]["tune_result"])
        assert resumed.evaluations == 0
        assert resumed.resumed > 0
        assert second["result"]["best"] == result["best"]

    def test_cancel_queued_job_via_http(self, service, client):
        # dispatcher never started: the job stays queued
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


class TestProtocolVersioning:
    def test_responses_carry_wire_version(self, client):
        from repro.service.protocol import PROTOCOL_VERSION

        assert client.health()["v"] == PROTOCOL_VERSION
        receipt = client.submit_sweep("database", store_queue=[16])
        assert receipt["v"] == PROTOCOL_VERSION
        assert client.status(receipt["id"])["v"] == PROTOCOL_VERSION

    def test_version_mismatch_is_structured_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({
                "v": 2,
                "kind": "sweep",
                "sweep": {"workloads": ["database"],
                          "axes": {"store_queue": [16]}},
            })
        assert excinfo.value.status == 400
        assert "protocol version" in str(excinfo.value)
        # even the error document names the version the server speaks
        from repro.service.protocol import PROTOCOL_VERSION
        assert excinfo.value.payload.get("v") == PROTOCOL_VERSION

    def test_result_verb_returns_decoded_report(self, service, client):
        service.start_dispatcher()
        receipt = client.submit_simulate("database", store_queue=16)
        report = client.result(receipt["id"], timeout=240.0)
        assert report.jobs[0].ok
        assert report.jobs[0].result.epoch_count > 0

    def test_result_verb_decodes_sharded_report(self, service, client):
        service.start_dispatcher()
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
        # dispatcher never started: the job stays queued until cancelled
        receipt = client.submit_sweep("tpcw", store_queue=[16])
        client.cancel(receipt["id"])
        with pytest.raises(ServiceError) as excinfo:
            client.result(receipt["id"], timeout=5.0)
        assert "cancelled" in str(excinfo.value)

    def test_job_listing(self, service, client):
        client.submit_sweep("database", store_queue=[16])
        client.submit_sweep("tpcw", store_queue=[16])
        listed = client.jobs()
        assert len(listed) == 2
        assert {job["state"] for job in listed} == {"queued"}

    def test_failed_job_carries_traceback(self, service, client,
                                          monkeypatch):
        def boom(request):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(service.dispatcher, "executor", boom)
        service.start_dispatcher()
        receipt = client.submit_sweep("database", store_queue=[16])
        status = client.wait(receipt["id"], timeout=30.0)
        assert status["state"] == "failed"
        assert "engine exploded" in status["error"]
        assert "RuntimeError" in status["traceback"]
        assert client.metrics()["counters"]["jobs_failed_total"] == 1


class TestSaturationAndDrain:
    def test_healthz_reports_backends_and_fleet_shape(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert "reference" in health["backends"]
        assert health["fleet"] == {"workers": 0}

    def test_draining_daemon_answers_503_with_retry_after(
        self, service, client,
    ):
        service.draining = True
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
        svc = ReproService(
            settings=SMALL,
            cache_dir=tmp_path / "cache",
            workers=1,
            queue_capacity=1,
            start_dispatcher=False,
        ).start()
        try:
            own = ServiceClient(svc.url, timeout=30.0)
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


class TestSmtAndEstimateVerbs:
    def test_smt_simulate_over_http(self, service, client):
        service.start_dispatcher()
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
        # No dispatcher: estimates are answered inline on submit, so
        # the job is already done when the receipt comes back.
        receipt = client.submit_estimate("database", scout="hws2")
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
