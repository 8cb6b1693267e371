"""The continuous perf harness (repro.bench.perf).

One real (single-rep, single-profile) measurement to prove the pipeline
runs end to end, plus pure-function tests of the report plumbing and the
regression gate on synthetic reports.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.perf import (
    BENCH_MEASURE,
    DEFAULT_PROFILES,
    BenchProfile,
    check_regression,
    load_report,
    run_core_bench,
    run_stage_bench,
    write_report,
)


def _synthetic_report(ips_by_profile, geomean):
    return {
        "schema": 1,
        "profiles": {
            name: {"instructions_per_sec": ips}
            for name, ips in ips_by_profile.items()
        },
        "aggregate": {"instructions_per_sec_geomean": geomean},
    }


class TestRunCoreBench:
    def test_single_profile_smoke(self):
        report = run_core_bench(
            reps=1, warmup_reps=0,
            profiles=(BenchProfile("database_pc", "database"),),
        )
        row = report["profiles"]["database_pc"]
        assert row["instructions"] == BENCH_MEASURE
        assert row["instructions_per_sec"] > 0
        assert row["epochs"] > 0
        assert report["aggregate"]["instructions_per_sec_geomean"] == \
            pytest.approx(row["instructions_per_sec"])

    def test_default_profile_set_covers_every_workload(self):
        assert {p.workload for p in DEFAULT_PROFILES} == \
            {"database", "tpcw", "specjbb", "specweb"}

    def test_rejects_bad_rep_counts(self):
        with pytest.raises(ValueError):
            run_core_bench(reps=0)
        with pytest.raises(ValueError):
            run_core_bench(reps=1, warmup_reps=-1)


class TestRunStageBench:
    def test_single_profile_smoke(self):
        stages = run_stage_bench(
            reps=1, warmup_reps=0,
            profiles=(BenchProfile("database_wc", "database", "wc"),),
        )
        row = stages["profiles"]["database_wc"]
        assert row["generate_insts_per_sec"] > 0
        assert row["annotate_insts_per_sec"] > 0
        assert stages["aggregate"]["annotate_insts_per_sec_geomean"] == \
            pytest.approx(row["annotate_insts_per_sec"])


class TestReportIO:
    def test_write_and_load_round_trip(self, tmp_path):
        report = _synthetic_report({"database_pc": 1000.0}, 1000.0)
        path = write_report(report, tmp_path / "BENCH_core.json")
        assert load_report(path) == report

    def test_load_rejects_non_reports(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            load_report(path)


class TestRegressionGate:
    BASE = _synthetic_report(
        {"database_pc": 1000.0, "database_wc": 2000.0}, 1414.2,
    )

    def test_equal_reports_pass(self):
        assert check_regression(self.BASE, self.BASE) == []

    def test_small_drop_within_tolerance_passes(self):
        current = _synthetic_report(
            {"database_pc": 850.0, "database_wc": 1700.0}, 1202.0,
        )
        assert check_regression(current, self.BASE, 0.20) == []

    def test_large_drop_fails_per_profile_and_geomean(self):
        current = _synthetic_report(
            {"database_pc": 700.0, "database_wc": 1700.0}, 1090.0,
        )
        failures = check_regression(current, self.BASE, 0.20)
        assert len(failures) == 2
        assert any("database_pc" in f for f in failures)
        assert any("geomean" in f for f in failures)

    def test_speedups_never_fail(self):
        current = _synthetic_report(
            {"database_pc": 5000.0, "database_wc": 9000.0}, 6708.2,
        )
        assert check_regression(current, self.BASE, 0.20) == []

    def test_unmatched_profiles_are_ignored(self):
        current = _synthetic_report({"new_profile": 1.0}, 1414.2)
        assert check_regression(current, self.BASE, 0.20) == []

    def test_stage_rates_are_gated(self):
        def with_stages(generate, annotate):
            report = dict(self.BASE)
            report["stages"] = {
                "profiles": {"database_pc": {
                    "generate_insts_per_sec": generate,
                    "annotate_insts_per_sec": annotate,
                }},
                "aggregate": {
                    "generate_insts_per_sec_geomean": generate,
                    "annotate_insts_per_sec_geomean": annotate,
                },
            }
            return report

        base = with_stages(1000.0, 2000.0)
        assert check_regression(with_stages(850.0, 1700.0), base) == []
        failures = check_regression(with_stages(1000.0, 1500.0), base)
        assert len(failures) == 2
        assert all("annotate_insts_per_sec" in f for f in failures)
        # A baseline without stages (e.g. an older report) gates nothing.
        assert check_regression(with_stages(1.0, 1.0), self.BASE) == []

    def test_tolerance_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            check_regression(self.BASE, self.BASE, max_regression=0.0)
        with pytest.raises(ValueError):
            check_regression(self.BASE, self.BASE, max_regression=1.0)


class TestCommittedReport:
    """The BENCH_core.json at the repo root is a valid report recording the
    required speedup over the pre-optimization baseline."""

    def test_committed_report_is_loadable_and_fast_enough(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_core.json"
        report = load_report(path)
        assert "baseline" in report
        assert report["speedup_vs_baseline"] >= 1.5
        assert set(report["stages"]["profiles"]) == set(report["profiles"])
