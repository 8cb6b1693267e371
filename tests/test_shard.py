"""Deterministic trace sharding (repro.shard) and sharded execution.

The acceptance contract of the subsystem: for N in {2, 4, 8}, on both
consistency variants, running the shards independently and merging yields
the *same object* a straight-through simulation produces — not statistics
that agree, the identical epoch list and counters.  That holds for a
job's first run, which has no recorded quiescent log and runs as one
whole-trace shard that records it, and for every later run, which splits
at the recorded points.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import api
from repro.core import MlpSimulator
from repro.core.backend import resolve_backend
from repro.core.epoch import (
    EpochRecord,
    TerminationCondition,
    TriggerKind,
)
from repro.core.results import SimulationResult
from repro.core.window import is_quiescent
from repro.engine import serialize
from repro.engine.runner import EngineRunner, JobSpec
from repro.errors import ShardBoundaryError
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.shard import merge_results, run_shard_job, shard_plan_for

SMALL = ExperimentSettings(warmup=1500, measure=4000, seed=11,
                           calibrate=False)


@pytest.fixture(scope="module")
def bench():
    return Workbench(SMALL)


@pytest.fixture(scope="module")
def goldens(bench):
    return {
        variant: bench.run("database", variant=variant)
        for variant in ("pc", "wc")
    }


def _plan(bench, spec, shards):
    """The plan *spec*'s recorded quiescent log gives, or None."""
    return shard_plan_for(bench.artifacts, bench.settings, spec, shards)


def _recorded_plan(bench, spec, shards):
    """*spec*'s plan, recording its quiescent log first if need be: a
    whole-trace shard records it as it runs."""
    if _plan(bench, spec, shards) is None:
        run_shard_job(bench, dataclasses.replace(spec, shard_start=0))
    return _plan(bench, spec, shards)


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("settings", SMALL)
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("workers", 1)
    return EngineRunner(**kwargs)


def _boundaries(config, trace):
    """``(pos, cur, state)`` at every epoch boundary of a straight-through
    run, the state being live (inspect it before stepping on)."""
    simulator = MlpSimulator(config)
    state, accountant = simulator.new_state(trace)
    while not simulator.step_epoch(trace, state, accountant)[0]:
        yield state.pos, state.cur, state


class TestQuiescence:
    @pytest.fixture(scope="class")
    def trace(self, bench):
        return bench.annotated("database", "pc")

    @pytest.fixture(scope="class")
    def config(self, bench):
        return bench.resolved_config("database", "pc")

    def test_probe_finds_quiescent_boundaries(self, config, trace, goldens):
        log = []
        result = MlpSimulator(config).run(trace, quiescent_log=log)
        assert result == goldens["pc"]  # probing does not perturb either
        assert log, "a multi-thousand-instruction run passes quiescence"
        positions = [pos for pos, _ in log]
        assert positions == sorted(positions)
        assert all(0 < pos < len(trace) for pos, _ in log)

    def test_quiescent_state_carries_nothing_forward(self, config, trace):
        # step the simulation by hand and check the predicate against a
        # direct inspection of the machine state at every boundary
        log = []
        MlpSimulator(config).run(trace, quiescent_log=log)
        seen = []
        for pos, cur, state in _boundaries(config, trace):
            if is_quiescent(state):
                unit = state.store_unit
                assert not unit.sb and not unit.sq
                assert all(ready <= cur for ready in state.scoreboard._ready)
                if 0 < pos < len(trace):
                    seen.append((pos, cur))
        assert seen == log

    def test_nonquiescent_when_stores_in_flight(self, config, trace):
        busy = 0
        for _, _, state in _boundaries(config, trace):
            if state.store_unit.sb or state.store_unit.sq:
                busy += 1
                assert not is_quiescent(state)
        assert busy, "the run has boundaries with stores in flight"


class TestShardPlan:
    def test_plan_is_deterministic(self, bench):
        spec = JobSpec(workload="database")
        first = _recorded_plan(bench, spec, 4)
        second = _plan(bench, spec, 4)
        assert first == second

    def test_plan_shape(self, bench):
        spec = JobSpec(workload="database")
        plan = _recorded_plan(bench, spec, 4)
        plan.validate()
        assert 1 <= plan.shard_count <= 4
        bounds = plan.bounds
        assert bounds[0] == 0 and bounds[-1] == plan.instructions
        assert list(bounds) == sorted(set(bounds))

    def test_boundary_starved_plan_degrades(self, bench):
        spec = JobSpec(workload="database")
        generous = _recorded_plan(bench, spec, 64)
        assert generous.requested == 64
        assert generous.shard_count <= 64
        generous.validate()
        # never an unsafe cut: every interior bound is a recorded point
        small = _plan(bench, spec, 2)
        assert set(small.bounds) <= set(generous.bounds)

    def test_api_shard_plan_facade(self, tmp_path):
        # The facade reports the recorded plan and never records one.
        local = Workbench(SMALL, cache_dir=tmp_path / "cache")
        assert api.shard_plan("database", 4, bench=local) is None
        plan = _recorded_plan(local, JobSpec(workload="database"), 4)
        assert plan is not None and plan.shard_count > 1
        assert api.shard_plan("database", 4, bench=local) == plan
        assert api.shard_plan(
            "database", 4, settings=SMALL, cache_dir=tmp_path / "cache",
        ) == plan
        # The record is keyed by the job's inputs: another knob has none.
        assert api.shard_plan(
            "database", 4, bench=local, store_prefetch="sp2",
        ) is None


class TestShardedBitIdentity:
    @pytest.mark.parametrize("variant", ["pc", "wc"])
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_merged_equals_straight_through(
        self, tmp_path, goldens, variant, shards,
    ):
        # The record does not depend on the backend that made it: a first
        # run on one backend records, the next run on the other splits.
        for first, then in (("reference", "event"), ("event", "reference")):
            runner = _runner(tmp_path, cache_dir=tmp_path / first)
            spec = JobSpec(workload="database", variant=variant)
            assert _plan(runner._planning_bench(), spec, shards) is None
            report = runner.run_sharded(
                dataclasses.replace(spec, backend=first), shards,
            )
            report.raise_on_failure()
            assert report.merged == goldens[variant]
            assert report.plan.requested == shards
            assert report.plan.shard_count == 1
            assert report.plan.instructions == report.merged.instructions
            [whole] = [job.spec for job in report.jobs]
            assert (whole.shard_start, whole.shard_stop) == (0, -1)

            recorded = _plan(runner._planning_bench(), spec, shards)
            assert recorded is not None and recorded.shard_count > 1
            assert recorded.instructions == report.plan.instructions
            report = runner.run_sharded(
                dataclasses.replace(spec, backend=then), shards,
            )
            report.raise_on_failure()
            assert report.plan == recorded
            assert [(job.spec.shard_start, job.spec.shard_stop)
                    for job in report.jobs] == list(recorded.shards)
            assert report.merged == goldens[variant]

    def test_single_shard_matches_golden(self, tmp_path, goldens):
        runner = _runner(tmp_path)
        spec = JobSpec(workload="database")
        report = runner.run_sharded(spec, 1)
        report.raise_on_failure()
        assert report.merged == goldens["pc"]
        assert [job.attempts for job in report.jobs] == [1]

    def test_report_ships_each_epoch_once(self, tmp_path, goldens):
        # The merge is the only reader of the per-shard results, so a
        # finished report drops them: its encoding is the merged result
        # plus a small per-shard envelope, not every epoch twice.
        runner = _runner(tmp_path)
        runner.run_sharded(JobSpec(workload="database"), 2)  # records
        report = runner.run_sharded(JobSpec(workload="database"), 2)
        report.raise_on_failure()
        assert len(report.jobs) == 2
        assert all(job.ok and job.result is None for job in report.jobs)
        encoded = len(json.dumps(report.to_dict()))
        merged = len(json.dumps(serialize.to_jsonable(report.merged)))
        assert encoded < merged + 4096

    def test_run_shard_job_rejects_bad_bounds(self, bench):
        trace_len = len(bench.annotated("database", "pc"))
        bad = JobSpec(
            workload="database", shard_start=10, shard_stop=trace_len + 10,
        )
        with pytest.raises(ShardBoundaryError):
            run_shard_job(bench, bad)


class TestShardStart:
    """A shard runs the whole trace from its start (``run(start=)``); the
    result equals the former run over the suffix copy ``trace[lo:]``."""

    @pytest.mark.parametrize("backend", ["reference", "event"])
    @pytest.mark.parametrize("variant", ["pc", "wc"])
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_start_stop_equals_suffix_run(
        self, bench, backend, variant, shards,
    ):
        trace = bench.annotated("database", variant)
        config = bench.resolved_config("database", variant)
        plan = _recorded_plan(
            bench, JobSpec(workload="database", variant=variant), shards,
        )
        simulate = resolve_backend(backend).simulate
        n = len(trace)
        assert plan.shard_count > 1
        for lo, hi in plan.shards:
            stop = hi if hi < n else None
            whole = simulate(config, trace, start=lo, stop=stop)
            suffix = simulate(
                config, trace[lo:], stop=None if stop is None else hi - lo,
            )
            assert whole == suffix
            assert whole.instructions == hi - lo

    @pytest.mark.parametrize("backend", ["reference", "event"])
    def test_start_outside_trace_rejected(self, bench, backend):
        trace = bench.annotated("database", "pc")
        config = bench.resolved_config("database", "pc")
        simulate = resolve_backend(backend).simulate
        for start in (-1, len(trace), len(trace) + 10):
            with pytest.raises(ShardBoundaryError):
                simulate(config, trace, start=start)
        with pytest.raises(ShardBoundaryError):
            simulate(config, trace, start=100, stop=100)


class TestBoundaryReachedAfterStall:
    """Seed 310 at default sizing plans a cut where the cursor first
    arrives non-quiescent and only becomes quiescent an epoch later; the
    shard must stop at that later epoch, not reject the boundary.  This
    is the ``ShardBoundaryError`` the benchmark's documentation lists as
    a known issue of seed 310: the split run, planned from a recorded log,
    merges bit-identically."""

    SETTINGS = ExperimentSettings(seed=310)

    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("seed310-cache")

    @pytest.fixture(scope="class")
    def golden(self, cache_dir):
        return api.run("database", settings=self.SETTINGS,
                       cache_dir=cache_dir, backend="reference")

    @pytest.mark.parametrize("backend", ["reference", "event"])
    def test_two_shards_merge_bit_identically(
        self, cache_dir, golden, backend,
    ):
        runs = [
            api.run(
                "database", settings=self.SETTINGS, cache_dir=cache_dir,
                shards=2, workers=1, backend=backend,
            )
            for _ in range(2)  # the first run records the quiescent log
        ]
        plan = api.shard_plan(
            "database", 2, settings=self.SETTINGS, cache_dir=cache_dir,
        )
        assert plan is not None and plan.shard_count == 2
        assert runs == [golden, golden]


class TestApiRunSharded:
    def test_api_run_routes_through_sharded_path(
        self, tmp_path, goldens,
    ):
        for _ in range(2):  # one recording shard, then a split run
            result = api.run(
                "database", settings=SMALL, cache_dir=tmp_path / "cache",
                shards=4, workers=1,
            )
            assert result == goldens["pc"]
        plan = api.shard_plan(
            "database", 4, settings=SMALL, cache_dir=tmp_path / "cache",
        )
        assert plan is not None and plan.shard_count > 1

    def test_api_run_rejects_bench_with_shards(self, bench):
        with pytest.raises(ValueError):
            api.run("database", bench=bench, shards=2)


def _result(*terminations):
    epochs = [
        EpochRecord(
            index=i, trigger=TriggerKind.LOAD, termination=termination,
            instructions=10,
        )
        for i, termination in enumerate(terminations)
    ]
    return SimulationResult(instructions=10 * len(epochs), epochs=epochs)


class TestMerge:
    def test_merge_renumbers_and_sums(self):
        first = _result(TerminationCondition.WINDOW_FULL,
                        TerminationCondition.WINDOW_FULL)
        second = _result(TerminationCondition.END_OF_TRACE)
        merged = merge_results([first, second])
        assert merged.instructions == 30
        assert [e.index for e in merged.epochs] == [0, 1, 2]
        assert merged.epochs[2].termination == \
            TerminationCondition.END_OF_TRACE

    def test_merge_of_one_is_identity_modulo_copy(self):
        only = _result(TerminationCondition.END_OF_TRACE)
        merged = merge_results([only])
        assert merged == only
        assert merged is not only

    def test_empty_parts_rejected(self):
        with pytest.raises(ShardBoundaryError):
            merge_results([])

    def test_end_of_trace_in_interior_part_rejected(self):
        first = _result(TerminationCondition.END_OF_TRACE)
        second = _result(TerminationCondition.WINDOW_FULL)
        with pytest.raises(ShardBoundaryError):
            merge_results([first, second])

    def test_hwms_take_the_max(self):
        first = dataclasses.replace(
            _result(TerminationCondition.WINDOW_FULL),
            sb_occupancy_hwm=3, sq_occupancy_hwm=1,
        )
        second = dataclasses.replace(
            _result(TerminationCondition.END_OF_TRACE),
            sb_occupancy_hwm=2, sq_occupancy_hwm=5,
        )
        merged = merge_results([first, second])
        assert merged.sb_occupancy_hwm == 3
        assert merged.sq_occupancy_hwm == 5
