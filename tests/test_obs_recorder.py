"""EpochTimelineRecorder, trace invariants, and report rendering.

The load-bearing invariant throughout: with tracing enabled, the trace
contains exactly one ``epoch`` event per epoch the simulator committed —
``result.epoch_count`` of them per run — whether the run went through the
serial API, the engine's worker pool, or a raw Workbench.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.obs import (
    ObsOptions,
    EpochTimelineRecorder,
    Tracer,
    load_events,
    render_report,
    render_timeline,
    summarize,
)

SMALL = ExperimentSettings(warmup=2000, measure=6000, seed=13,
                           calibrate=False)


@pytest.fixture(scope="module")
def bench() -> Workbench:
    return Workbench(SMALL)


class TestRecorder:
    def test_one_epoch_event_per_committed_epoch(self, bench):
        tracer = Tracer()
        recorder = EpochTimelineRecorder(tracer, label="db/pc")
        result = bench.run("database", observer=recorder)

        epoch_events = [
            e for e in tracer.events if e["kind"] == "epoch"
        ]
        assert len(epoch_events) == result.epoch_count
        assert recorder.epochs_closed == result.epoch_count
        assert len(recorder.rows) == result.epoch_count
        assert all(e["name"] == "db/pc" for e in epoch_events)

    def test_rows_mirror_epoch_records(self, bench):
        recorder = EpochTimelineRecorder()
        result = bench.run("database", observer=recorder)
        for row, record in zip(recorder.rows, result.epochs):
            assert row["index"] == record.index
            assert row["instructions"] == record.instructions
            assert row["trigger"] == record.trigger.value

    def test_termination_histogram_matches_result(self, bench):
        recorder = EpochTimelineRecorder()
        result = bench.run("database", observer=recorder)
        expected = {
            cond.value: count
            for cond, count in result.termination_histogram().items()
        }
        assert recorder.termination_histogram() == expected

    def test_summary_epochs_per_1k(self, bench):
        recorder = EpochTimelineRecorder()
        result = bench.run("database", observer=recorder)
        summary = recorder.summary()
        assert summary["epochs"] == result.epoch_count
        measured = sum(record.instructions for record in result.epochs)
        assert summary["instructions"] == measured
        assert summary["epochs_per_1k_insts"] == pytest.approx(
            1000.0 * result.epoch_count / measured
        )

    def test_occupancy_hwms_surface_in_result(self, bench):
        recorder = EpochTimelineRecorder()
        result = bench.run(
            "database", store_buffer=8, store_queue=16,
            observer=recorder,
        )
        # The always-on slow-path HWMs land in the result; the recorder
        # samples at epoch begin so its view can only be tighter.
        assert result.sq_occupancy_hwm >= recorder.sq_occupancy_hwm
        assert result.sq_occupancy_hwm > 0


class TestApiTracing:
    def test_run_trace_writes_epoch_per_epoch(self, tmp_path):
        result = api.run(
            "database", settings=SMALL, cache_dir=None,
            trace=tmp_path / "trace",
        )
        events = load_events(tmp_path / "trace")
        epochs = [e for e in events if e["kind"] == "epoch"]
        assert len(epochs) == result.epoch_count

    def test_run_rejects_trace_and_obs_together(self):
        with pytest.raises(ValueError, match="not both"):
            api.run(
                "database", settings=SMALL, cache_dir=None,
                trace="/tmp/x", obs=ObsOptions.for_trace("/tmp/x"),
            )

    def test_sweep_trace_counts_epochs_across_workers(self, tmp_path):
        runner = api.EngineRunner(
            settings=SMALL, cache_dir=tmp_path / "cache", workers=2,
            obs=ObsOptions.for_trace(tmp_path / "trace"),
        )
        spec = api.SweepSpec.build(
            "database", store_prefetch=["sp0", "sp2"],
        )
        report = runner.run(spec.to_jobs())
        report.raise_on_failure()
        events = load_events(tmp_path / "trace")
        epochs = [e for e in events if e["kind"] == "epoch"]
        assert len(epochs) == sum(
            r.epoch_count for r in report.results() if r is not None
        )
        assert len(epochs) > 0
        assert report.ok_count == 2

    def test_sweep_rejects_obs_with_explicit_runner(self, tmp_path):
        runner = api.EngineRunner(settings=SMALL, cache_dir=None)
        spec = api.SweepSpec.build("database", store_prefetch=["sp0"])
        with pytest.raises(ValueError, match="explicit runner"):
            api.sweep(spec, runner=runner, trace=tmp_path / "trace")


class TestReporting:
    @pytest.fixture(scope="class")
    def events(self):
        tracer = Tracer()
        recorder = EpochTimelineRecorder(tracer, label="db/pc")
        bench = Workbench(SMALL)
        with tracer.span("job", job="db/pc"):
            bench.run("database", observer=recorder)
        return tracer.events

    def test_summarize_digest(self, events):
        digest = summarize(events)
        assert digest["epochs"] == digest["kinds"]["epoch"]
        assert 0 < digest["instructions"] <= SMALL.measure
        assert digest["epochs_per_1k_insts"] > 0
        assert digest["spans"]["job"]["count"] == 1

    def test_timeline_elides_long_traces(self, events):
        text = render_timeline(events, limit=10)
        assert "epochs elided" in text
        assert text.endswith("epochs\n")
        full = render_timeline(events, limit=0)
        assert "epochs elided" not in full

    def test_timeline_empty_trace(self):
        assert "no epoch events" in render_timeline([])

    def test_report_sections(self, events):
        text = render_report(events)
        assert "trace summary" in text
        assert "termination conditions" in text
        assert "instruction_miss" in text
        assert "span" in text
