"""Fault-tolerant sharded execution (kill injection and recovery).

Each test injects a fault through ``JobSpec.fault`` and asserts the
recovery contract: the killed shard is recomputed from its start on a
retry, shards that already succeeded are not rerun, and the merged result
is still bit-identical to the straight-through golden.  A job's first
sharded run is one whole-trace shard that records where later runs may
cut, so the tests that kill one shard of several record that log first
with a fault-free run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.runner import EngineRunner, JobSpec
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.shard.execute import kill_position

SMALL = ExperimentSettings(warmup=1500, measure=4000, seed=11,
                           calibrate=False)


@pytest.fixture(scope="module")
def golden():
    return Workbench(SMALL).run("database")


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("settings", SMALL)
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("retries", 1)
    return EngineRunner(**kwargs)


def _recorded(runner, spec, shards):
    """*spec*, after a fault-free sharded run recorded its quiescent log
    (the fault is not part of the record's key)."""
    runner.run_sharded(
        dataclasses.replace(spec, fault=""), shards,
    ).raise_on_failure()
    return spec


def _holds(job, position):
    return job.spec.shard_start <= position < job.spec.shard_stop


class TestFaultParsing:
    def test_kill_parses(self):
        assert kill_position("kill@2000") == 2000

    @pytest.mark.parametrize(
        "bad", ["explode@5", "kill@", "kill@x", "@5", "corrupt@5"],
    )
    def test_malformed_fault_rejected(self, bad):
        with pytest.raises(ValueError):
            kill_position(bad)


class TestKillRecovery:
    def test_pool_worker_kill_recovers(self, tmp_path, golden):
        runner = _runner(tmp_path, workers=2)
        spec = _recorded(
            runner, JobSpec(workload="database", fault="kill@1200"), 2,
        )
        report = runner.run_sharded(spec, 2)
        report.raise_on_failure()
        assert report.merged == golden
        assert report.plan.shard_count == 2
        assert report.rounds == 2  # the kill broke the whole pool round
        (killed,) = [job for job in report.jobs if _holds(job, 1200)]
        assert killed.attempts == 2

    def test_fault_exhausting_retries_fails_cleanly(self, tmp_path):
        # the fire-once marker would let a retry through, so force the
        # failure to stick by granting zero retries
        runner = _runner(tmp_path, retries=0)
        spec = JobSpec(workload="database", fault="kill@2000")
        report = runner.run_sharded(spec, 2)
        assert not report.ok
        assert report.merged is None
        with pytest.raises(RuntimeError):
            report.raise_on_failure()

    def test_serial_kill_raises_not_exits(self, tmp_path):
        # in the serial path the injector must raise FaultInjectedError,
        # never os._exit the host process; reaching this assert proves it
        runner = _runner(tmp_path, retries=0)
        spec = JobSpec(workload="database", fault="kill@2000")
        report = runner.run_sharded(spec, 1)
        failed = [job for job in report.jobs if not job.ok]
        assert failed
        assert "FaultInjectedError" in failed[0].error


class TestCompletedShardsNotRecomputed:
    def test_only_faulted_shards_rerun(self, tmp_path, golden):
        runner = _runner(tmp_path)
        spec = _recorded(
            runner, JobSpec(workload="database", fault="kill@1200"), 2,
        )
        report = runner.run_sharded(spec, 2)
        report.raise_on_failure()
        assert report.merged == golden
        # the serial executor retries the dead shard in place (the
        # fire-once marker lets the retry through); the other shard ran
        # exactly once
        attempts = {_holds(job, 1200): job.attempts for job in report.jobs}
        assert attempts == {True: 2, False: 1}
