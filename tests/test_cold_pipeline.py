"""A cold Workbench computes each pipeline stage once, bit-identically.

Calibration measures the run-length pass the Workbench then uses, so a
cold ``annotated`` generates and annotates each trace once, and only
profiles and annotations reach the disk tier.  Everything must equal the
stage-by-stage pipeline: a standalone calibration, then a fresh trace and
a separate annotation.
"""

from __future__ import annotations

import pytest

from repro.config import MemoryConfig, SimulationConfig
from repro.frontend import BranchPredictor
from repro.harness import experiment
from repro.harness.experiment import ExperimentSettings, Workbench
from repro.memory import MemorySystem, annotate_trace
from repro.workloads import WORKLOADS, calibration, generate_trace
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture
def stage_calls(monkeypatch):
    """Counts of trace generations and annotations, at every call site."""
    calls = {"generate": 0, "annotate": 0, "measure": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        WorkloadGenerator, "generate",
        counting("generate", WorkloadGenerator.generate),
    )
    for module in (calibration, experiment):
        monkeypatch.setattr(
            module, "annotate_trace",
            counting("annotate", module.annotate_trace),
        )
    monkeypatch.setattr(
        calibration, "measure_profile",
        counting("measure", calibration.measure_profile),
    )
    return calls


# Database and specjbb calibrate in one round at this sizing and seed.
ONE_ROUND = ExperimentSettings(warmup=10_000, measure=30_000, seed=1)


class TestStageCounts:
    def test_cold_run_generates_and_annotates_once(
        self, stage_calls, tmp_path,
    ):
        bench = Workbench(ONE_ROUND, cache_dir=tmp_path)
        bench.annotated("database")
        assert stage_calls == {"generate": 1, "annotate": 1, "measure": 1}

    def test_cold_wc_run_generates_once(self, stage_calls, tmp_path):
        bench = Workbench(ONE_ROUND, cache_dir=tmp_path)
        bench.annotated("specjbb", "wc")
        # One calibration pass (pc) plus the wc annotation.
        assert stage_calls == {"generate": 1, "annotate": 2, "measure": 1}

    def test_warm_run_reads_no_trace(self, stage_calls, tmp_path):
        cold = Workbench(ONE_ROUND, cache_dir=tmp_path)
        database = cold.annotated("database")
        specjbb_wc = cold.annotated("specjbb", "wc")
        stage_calls.update(generate=0, annotate=0, measure=0)
        warm = Workbench(ONE_ROUND, cache_dir=tmp_path)
        assert warm.annotated("database") == database
        assert warm.annotated("specjbb", "wc") == specjbb_wc
        assert stage_calls == {"generate": 0, "annotate": 0, "measure": 0}
        assert not (tmp_path / "trace").exists()
        assert {path.name for path in tmp_path.iterdir()} == {
            "profile", "annotation",
        }

    def test_trace_identity_survives_the_handoff(self, tmp_path):
        bench = Workbench(ONE_ROUND, cache_dir=tmp_path)
        bench.annotated("database")
        assert bench.trace("database") is bench.trace("database")
        assert bench.trace("database", "wc") is bench.trace("database", "wc")

    def test_unrequested_handoff_is_dropped(self, stage_calls):
        bench = Workbench(ONE_ROUND, cache_dir=None)
        bench.profile("database")
        bench.annotated("database", tag="other")
        stage_calls.update(generate=0, annotate=0)
        # The calibration's annotation was not kept for a later request.
        bench.annotated("database")
        assert stage_calls["annotate"] == 1
        assert stage_calls["generate"] == 0  # the trace is still in memory


def stagewise(settings: ExperimentSettings, workload: str):
    """The pipeline one stage at a time: calibrate, generate, annotate."""
    profile = calibration.calibrate_profile(
        WORKLOADS[workload],
        instructions=min(150_000, settings.total),
        warmup=min(50_000, settings.warmup + 10_000),
        seed=settings.seed,
    )
    trace = generate_trace(profile, settings.total, settings.seed)
    memory = MemorySystem(MemoryConfig())
    annotated = annotate_trace(
        trace, memory,
        predictor=BranchPredictor(SimulationConfig().core.branch),
        warmup=settings.warmup,
    )
    return profile, annotated, memory.stats


class TestBitIdentity:
    @pytest.mark.parametrize("settings, rounds", [
        # Calibration takes all four measurements here.
        (ExperimentSettings(warmup=10_000, measure=30_000, seed=3), 4),
        # The warmup reset (55000) falls inside the calibration window
        # [50000, 65000), and calibration takes two rounds.
        (ExperimentSettings(warmup=55_000, measure=10_000, seed=7), 2),
    ])
    def test_matches_the_stagewise_pipeline(
        self, settings, rounds, stage_calls,
    ):
        bench = Workbench(settings, cache_dir=None)
        annotated = bench.annotated("database")
        assert stage_calls["measure"] == rounds
        assert stage_calls["generate"] == rounds
        assert stage_calls["annotate"] == rounds
        profile, expected, stats = stagewise(settings, "database")
        assert bench.profile("database") == profile
        assert annotated == expected
        assert bench.memory_for("database").stats == stats
