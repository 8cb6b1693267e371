"""The parallel job runner (repro.engine.runner).

The expensive contract — a multi-worker batch returns bit-identical numbers
to a serial run and the second invocation starts from a warm persistent
cache — is exercised on a deliberately tiny trace so the whole file stays
fast enough for tier 1.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import api
from repro.config import StorePrefetchMode
from repro.engine import EngineRunner, JobSpec, RunReport
from repro.engine.runner import JobResult
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.harness.sweeps import SweepSpec

SMALL = ExperimentSettings(warmup=2000, measure=6000, seed=11, calibrate=False)

GRID_JOBS = [
    JobSpec(
        workload="database",
        core_changes=(("store_prefetch", prefetch), ("store_queue", queue)),
    )
    for prefetch in (StorePrefetchMode.NONE, StorePrefetchMode.AT_RETIRE)
    for queue in (16, 64)
]


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("settings", SMALL)
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    return EngineRunner(**kwargs)


class TestJobSpec:
    def test_describe_renders_knobs(self):
        spec = GRID_JOBS[0]
        assert spec.describe() == \
            "simulate:database/pc store_prefetch=sp0 store_queue=16"

    def test_label_overrides_describe(self):
        spec = dataclasses.replace(GRID_JOBS[0], label="baseline")
        assert spec.describe() == "baseline"

    def test_spec_is_hashable(self):
        assert len({GRID_JOBS[0], GRID_JOBS[0]}) == 1


class TestSerialExecution:
    def test_batch_runs_and_reports(self, tmp_path):
        report = _runner(tmp_path, workers=1).run(GRID_JOBS)
        assert report.ok_count == len(GRID_JOBS)
        assert report.failed == []
        assert report.workers == 1
        assert all(job.result.epi_per_1000 > 0 for job in report.jobs)

    def test_annotate_action_returns_no_result(self, tmp_path):
        job = JobSpec(workload="database", action="annotate")
        report = _runner(tmp_path, workers=1).run([job])
        assert report.ok_count == 1
        assert report.jobs[0].result is None

    def test_unknown_action_fails_the_job_not_the_batch(self, tmp_path):
        jobs = [JobSpec(workload="database", action="bogus"), GRID_JOBS[0]]
        report = _runner(tmp_path, workers=1).run(jobs)
        assert report.jobs[0].status == "failed"
        assert "bogus" in report.jobs[0].error
        assert report.jobs[1].ok

    def test_failed_job_is_retried_once(self, tmp_path):
        job = JobSpec(workload="no-such-workload")
        report = _runner(tmp_path, workers=1).run([job])
        assert report.jobs[0].status == "failed"
        assert report.jobs[0].attempts == 2

    def test_retries_zero_disables_retry(self, tmp_path):
        job = JobSpec(workload="no-such-workload")
        report = _runner(tmp_path, workers=1, retries=0).run([job])
        assert report.jobs[0].attempts == 1

    def test_raise_on_failure(self, tmp_path):
        report = _runner(tmp_path, workers=1).run(
            [JobSpec(workload="no-such-workload")]
        )
        with pytest.raises(RuntimeError, match="1/1 jobs failed"):
            report.raise_on_failure()

    def test_summary_mentions_jobs_and_cache(self, tmp_path):
        report = _runner(tmp_path, workers=1).run(GRID_JOBS[:1])
        text = report.summary()
        assert "1/1 jobs ok" in text
        assert "artifact cache" in text


class TestParallelEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self, tmp_path):
        serial = _runner(tmp_path, workers=1).run(GRID_JOBS)
        parallel = _runner(tmp_path, workers=3).run(GRID_JOBS)
        assert parallel.ok_count == len(GRID_JOBS)
        assert [j.result.epi_per_1000 for j in serial.jobs] == \
            [j.result.epi_per_1000 for j in parallel.jobs]
        assert [j.result.stores_committed for j in serial.jobs] == \
            [j.result.stores_committed for j in parallel.jobs]
        assert [j.result.termination_histogram() for j in serial.jobs] == \
            [j.result.termination_histogram() for j in parallel.jobs]

    def test_second_invocation_is_warm(self, tmp_path):
        cold = _runner(tmp_path, workers=1).run(GRID_JOBS)
        warm = _runner(tmp_path, workers=1).run(GRID_JOBS)
        assert cold.cache_misses > 0
        assert warm.cache_misses == 0
        assert warm.cache_hits > 0
        assert [j.result.epi_per_1000 for j in warm.jobs] == \
            [j.result.epi_per_1000 for j in cold.jobs]

    def test_custom_profiles_reach_workers(self, tmp_path):
        bench = Workbench(SMALL, cache_dir=None)
        base = bench.profile("database")
        scaled = dataclasses.replace(
            base,
            load_miss_per_100=base.load_miss_per_100 * 3,
            store_miss_per_100=base.store_miss_per_100 * 3,
        )
        default = _runner(tmp_path, workers=2).run(GRID_JOBS[:1])
        custom = _runner(
            tmp_path, workers=2, profiles={"database": scaled},
        ).run(GRID_JOBS[:1])
        assert default.ok_count == custom.ok_count == 1
        # The scaled profile hashes to different artifact keys, so the two
        # runs must not have shared (or equal) results.
        assert custom.jobs[0].result.epi_per_1000 != \
            default.jobs[0].result.epi_per_1000


class TestKeptPool:
    def test_one_pool_serves_every_batch(self, tmp_path):
        runner = _runner(tmp_path, workers=2, keep_pool=True)
        try:
            single = runner.run(GRID_JOBS[:1])  # one job goes to the pool too
            pool = runner._pool
            batch = runner.run(GRID_JOBS)
            assert pool is not None and runner._pool is pool
        finally:
            runner.close()
        assert runner._pool is None
        serial = _runner(tmp_path, workers=1).run(GRID_JOBS)
        assert single.results() == serial.results()[:1]
        assert batch.results() == serial.results()

    def test_a_dead_pool_is_replaced(self, tmp_path):
        runner = _runner(tmp_path, workers=2, keep_pool=True, retries=0)
        try:
            runner.run(GRID_JOBS[:2])
            pool = runner._pool
            for process in list(pool._processes.values()):
                process.kill()
            met_dead_pool = runner.run(GRID_JOBS[:2])
            recovered = runner.run(GRID_JOBS[:2])
            assert runner._pool is not pool
        finally:
            runner.close()
        assert met_dead_pool.ok_count == 0
        assert "BrokenProcessPool" in met_dead_pool.jobs[0].error
        assert recovered.ok_count == 2


class TestSweepIntegration:
    def test_api_sweep_matches_serial_workbench(self, tmp_path):
        bench = Workbench(SMALL, cache_dir=tmp_path / "cache")
        spec = SweepSpec.build(
            "database",
            store_prefetch=[StorePrefetchMode.NONE,
                            StorePrefetchMode.AT_RETIRE],
            store_queue=[16, 64],
        )
        parallel = api.sweep(spec, runner=_runner(tmp_path, workers=2))
        serial = [
            bench.run("database", **dict(point)) for point in spec.points()
        ]
        assert [r.point for r in parallel] == spec.points()
        assert [r.epi_per_1000 for r in parallel] == \
            [r.epi_per_1000 for r in serial]

    def test_api_sweep_multi_workload_is_one_batch(self, tmp_path):
        names = ("database", "tpcw")
        spec = SweepSpec.build(names, store_queue=[16, 64])
        records = api.sweep(spec, runner=_runner(tmp_path, workers=2))
        assert [r.workload for r in records] == \
            ["database", "database", "tpcw", "tpcw"]
        bench = Workbench(SMALL, cache_dir=tmp_path / "cache")
        for record in records:
            serial = bench.run(record.workload, **record.knobs)
            assert record.epi_per_1000 == serial.epi_per_1000


class TestReportShape:
    def test_results_preserve_submission_order(self, tmp_path):
        report = _runner(tmp_path, workers=2).run(GRID_JOBS)
        assert [j.spec for j in report.jobs] == GRID_JOBS
        assert report.results() == [j.result for j in report.jobs]

    def test_empty_batch(self, tmp_path):
        report = _runner(tmp_path, workers=2).run([])
        assert isinstance(report, RunReport)
        assert report.jobs == []
        report.raise_on_failure()

    def test_job_result_ok_property(self):
        assert JobResult(spec=GRID_JOBS[0], status="ok").ok
        assert not JobResult(spec=GRID_JOBS[0], status="timeout").ok

    def test_runner_validates_arguments(self):
        with pytest.raises(ValueError):
            EngineRunner(job_timeout=0)
        with pytest.raises(ValueError):
            EngineRunner(retries=-1)


class TestReportWire:
    def test_real_run_survives_json_round_trip(self, tmp_path):
        import json

        report = _runner(tmp_path).run(GRID_JOBS[:2])
        wire = json.loads(json.dumps(report.to_dict()))
        back = RunReport.from_dict(wire)
        assert back == report
        assert back.results() == report.results()
