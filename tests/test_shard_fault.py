"""Fault-tolerant sharded execution (kill/corrupt injection and recovery).

Each test injects a fault through ``JobSpec.fault`` and asserts the full
acceptance contract: the run recovers on a retry round, resumes from the
last persisted checkpoint rather than recomputing from scratch, and the
merged result is still bit-identical to the straight-through golden.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.engine.cache import ArtifactCache
from repro.engine.runner import EngineRunner, JobSpec
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.shard import CheckpointStore, FaultInjector

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


class TestFaultParsing:
    def test_kill_and_corrupt_parse(self):
        kill = FaultInjector("kill@2000", None, "t")
        assert (kill.kind, kill.at) == ("kill", 2000)
        corrupt = FaultInjector("corrupt@10", None, "t")
        assert (corrupt.kind, corrupt.at) == ("corrupt", 10)
        assert not FaultInjector("", None, "t").armed

    @pytest.mark.parametrize("bad", ["explode@5", "kill@", "kill@x", "@5"])
    def test_malformed_fault_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultInjector(bad, None, "t")


class TestKillRecovery:
    def test_serial_kill_resumes_from_checkpoint(self, tmp_path, golden):
        runner = _runner(tmp_path)
        spec = JobSpec(workload="database", fault="kill@1200")
        report = runner.run_sharded(spec, 2, checkpoint_every=500)
        report.raise_on_failure()
        assert report.merged == golden
        # the serial executor retries the dead shard in-place (the
        # fire-once marker lets the retry through), resuming mid-shard
        assert any(job.attempts > 1 for job in report.jobs)
        assert any(job.resumed_pos >= 0 for job in report.jobs)
        assert report.checkpoints_written > 0

    def test_pool_worker_kill_recovers(self, tmp_path, golden):
        runner = _runner(tmp_path, workers=2)
        spec = JobSpec(workload="database", fault="kill@1200")
        report = runner.run_sharded(spec, 2, checkpoint_every=500)
        report.raise_on_failure()
        assert report.merged == golden
        assert report.rounds >= 2  # the kill broke the whole pool round
        assert any(job.resumed_pos >= 0 for job in report.jobs)

    def test_fault_exhausting_retries_fails_cleanly(self, tmp_path):
        # without checkpoints the retry restarts from scratch and the
        # fire-once marker lets it through -- so force repeated firing by
        # granting zero retries instead
        runner = _runner(tmp_path, retries=0)
        spec = JobSpec(workload="database", fault="kill@2000")
        report = runner.run_sharded(spec, 2, checkpoint_every=1000)
        assert not report.ok
        assert report.merged is None
        with pytest.raises(RuntimeError):
            report.raise_on_failure()

    def test_serial_kill_raises_not_exits(self, tmp_path):
        # in the serial path the injector must raise FaultInjectedError,
        # never os._exit the host process; reaching this assert proves it
        runner = _runner(tmp_path, retries=0)
        spec = JobSpec(workload="database", fault="kill@2000")
        report = runner.run_sharded(spec, 1, checkpoint_every=1000)
        failed = [job for job in report.jobs if not job.ok]
        assert failed
        assert "FaultInjectedError" in failed[0].error


class TestCorruptRecovery:
    def test_corrupt_checkpoint_discarded_and_rerun(self, tmp_path, golden):
        runner = _runner(tmp_path)
        spec = JobSpec(workload="database", fault="corrupt@1200")
        report = runner.run_sharded(spec, 2, checkpoint_every=500)
        report.raise_on_failure()
        assert report.merged == golden
        # the retry found a tampered checkpoint, discarded it, restarted
        assert any(job.attempts > 1 for job in report.jobs)

    def test_corrupt_run_leaves_verifiable_store(self, tmp_path, golden):
        runner = _runner(tmp_path)
        spec = JobSpec(workload="database", fault="corrupt@1200")
        report = runner.run_sharded(spec, 2, checkpoint_every=500)
        report.raise_on_failure()
        # whatever checkpoints remain in the cache verify cleanly now
        store = CheckpointStore(ArtifactCache(tmp_path / "cache"))
        for job in report.jobs:
            if job.checkpoint_token:
                record = store.load_record(job.checkpoint_token)
                if record is not None:
                    record.verify()


class TestWireVersionedToken:
    def test_checkpoint_of_another_wire_version_is_a_clean_miss(
        self, tmp_path, monkeypatch,
    ):
        # A record's digest is taken over the wire encoding, so a record
        # written under another encoding would fail verification and be
        # reported corrupt.  Keyed by wire version, it is never read.
        from repro.shard import checkpoint

        monkeypatch.setattr(checkpoint, "PROTOCOL_VERSION", 1)
        report = _runner(tmp_path).run_sharded(
            JobSpec(workload="database"), 1, checkpoint_every=1000,
        )
        report.raise_on_failure()
        shard = report.jobs[0].spec
        store = CheckpointStore(ArtifactCache(tmp_path / "cache"))
        old_token = store.token(shard, SMALL)
        assert store.load(shard, SMALL) is not None
        monkeypatch.undo()
        assert store.token(shard, SMALL) != old_token
        assert store.load(shard, SMALL) is None


class TestCompletedShardsNotRecomputed:
    def test_only_faulted_shards_rerun(self, tmp_path, golden):
        runner = _runner(tmp_path)
        spec = JobSpec(workload="database", fault="kill@1200")
        report = runner.run_sharded(spec, 2, checkpoint_every=500)
        report.raise_on_failure()
        assert report.merged == golden
        # a shard that resumed restarted at its checkpoint, not at its
        # shard start: resumed_pos lies strictly inside the shard span
        resumed = [job for job in report.jobs if job.resumed_pos >= 0]
        assert resumed
        plan_bounds = dict(report.plan.shards)
        for job in resumed:
            assert job.spec.shard_start < job.resumed_pos
            stop = plan_bounds[job.spec.shard_start]
            assert job.resumed_pos < stop


class TestResumeApi:
    def test_resume_by_token_completes_interrupted_work(
        self, tmp_path, golden,
    ):
        cache_dir = tmp_path / "cache"
        runner = _runner(tmp_path)
        report = runner.run_sharded(
            JobSpec(workload="database"), 1, checkpoint_every=1000,
        )
        report.raise_on_failure()
        assert report.merged == golden
        token = report.jobs[0].checkpoint_token
        assert token
        job = api.resume(token, cache_dir=cache_dir)
        assert job.ok
        assert job.resumed_pos >= 0
        assert job.result == golden

    def test_resume_unknown_token_is_a_key_error(self, tmp_path):
        with pytest.raises(KeyError):
            api.resume("deadbeef" * 8, cache_dir=tmp_path / "cache")

    def test_resume_by_spec_requires_checkpointing(self):
        with pytest.raises(ValueError):
            api.resume(JobSpec(workload="database"))
