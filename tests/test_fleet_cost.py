"""The analytical routing cost model (repro.fleet.cost).

The estimator never runs a simulation, so these tests pin its *shape*:
ordering tracks the published workload statistics, backends scale the
estimate by their committed speedups, and shard spans prorate linearly.
"""

from __future__ import annotations

import pytest

from repro.engine.runner import JobSpec
from repro.fleet import estimate_job_cost
from repro.fleet.cost import BACKEND_SPEEDUP, backend_speedup
from repro.harness import ExperimentSettings
from repro.workloads import WORKLOADS

SMALL = ExperimentSettings(warmup=1500, measure=4000, seed=11,
                           calibrate=False)


def _cost(**kwargs):
    return estimate_job_cost(JobSpec(**kwargs), SMALL)


class TestEstimate:
    def test_positive_for_every_workload(self):
        for name in WORKLOADS:
            estimate = _cost(workload=name)
            assert estimate.units > 0
            assert estimate.instructions == SMALL.total
            assert estimate.predicted_epochs > 0

    def test_scales_with_trace_length(self):
        small = estimate_job_cost(JobSpec(workload="database"), SMALL)
        double = estimate_job_cost(
            JobSpec(workload="database"),
            ExperimentSettings(warmup=3000, measure=8000, seed=11,
                               calibrate=False),
        )
        assert double.units == pytest.approx(2.0 * small.units)

    def test_backend_speedup_divides_cost(self):
        reference = _cost(workload="database", backend="reference")
        event = _cost(workload="database", backend="event")
        assert reference.units == pytest.approx(
            event.units * BACKEND_SPEEDUP["event"],
        )
        assert event.units < reference.units

    def test_unknown_backend_charged_as_reference(self):
        assert _cost(workload="database", backend="").units == pytest.approx(
            _cost(workload="database").units
        )

    def test_shard_span_prorates(self):
        whole = _cost(workload="database")
        half = _cost(
            workload="database",
            shard_start=0, shard_stop=SMALL.total // 2,
        )
        assert half.units == pytest.approx(whole.units / 2, rel=1e-3)
        assert half.instructions == pytest.approx(
            whole.instructions / 2, abs=1,
        )

    def test_annotate_cheaper_than_simulate(self):
        warm = _cost(workload="database", action="annotate")
        simulate = _cost(workload="database", backend="reference")
        assert warm.units < simulate.units
        assert warm.predicted_epochs == 0.0

    def test_unknown_workload_gets_neutral_charge(self):
        # Custom profiles registered only on the submitting side must not
        # crash routing; they get the average charge.
        estimate = estimate_job_cost(
            JobSpec(workload="nonesuch"), SMALL, profile=None,
        )
        assert estimate.units > 0

    def test_epoch_heavy_profile_costs_more(self):
        # More serializing locks and store misses => more predicted epochs
        # => higher cost, everything else equal.
        import dataclasses

        base = WORKLOADS["database"]
        heavy = dataclasses.replace(
            base,
            locks_per_1000=base.locks_per_1000 * 3,
            store_miss_per_100=base.store_miss_per_100 * 2,
        )
        spec = JobSpec(workload="database")
        calm = estimate_job_cost(spec, SMALL, profile=base)
        stressed = estimate_job_cost(spec, SMALL, profile=heavy)
        assert stressed.predicted_epochs > calm.predicted_epochs
        assert stressed.units > calm.units

    def test_scaled_is_linear(self):
        estimate = _cost(workload="tpcw")
        half = estimate.scaled(0.5)
        assert half.units == pytest.approx(estimate.units / 2)
        assert half.backend == estimate.backend


class TestBackendSpeedups:
    def test_constant_table(self):
        # The committed BENCH_backends.json geomean ratios, as constants:
        # routing never reads a benchmark file at runtime.
        assert BACKEND_SPEEDUP == {"reference": 1.0, "event": 2.15}
        assert backend_speedup("event") == 2.15

    def test_unknown_backend_charged_as_reference(self):
        assert backend_speedup("quantum") == 1.0
        assert backend_speedup("batch") == 1.0
