"""The analytical EPI estimate (``repro.estimate``): accuracy and speed.

The estimate verb's contract, pinned here:

- at the anchor point (default config, golden-fixture settings) the
  calibrated prediction reproduces measured EPI essentially exactly —
  the calibration scales were fitted there;
- single-knob excursions on the committed fixtures stay within the
  documented :data:`~repro.estimate.VALIDATION_MARGIN` of measurement;
- a call costs well under a millisecond — no trace read, no simulation;
- the spec surface matches ``JobSpec.coerce`` (names, mappings, keyword
  knobs) and multi-context specs average their mix components;
- the one model is the one the fleet's cost router imports — it cannot
  fork.
"""

from __future__ import annotations

import time

import pytest

from repro import api
from repro.engine import serialize
from repro.engine.runner import JobSpec
from repro.estimate import (
    VALIDATION_MARGIN,
    EpiEstimate,
    epochs_per_inst,
    estimate,
    predicted_epi_per_1000,
)
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.workloads import WORKLOADS

GOLDEN_SETTINGS = ExperimentSettings(
    warmup=3000, measure=9000, seed=13, calibrate=False,
)


@pytest.fixture(scope="module")
def bench() -> Workbench:
    return Workbench(GOLDEN_SETTINGS, cache_dir=None)


class TestAnchorAccuracy:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_calibrated_estimate_reproduces_measured_epi(
        self, bench, workload,
    ):
        measured = bench.run(workload).epi_per_1000
        guess = estimate(workload)
        assert guess.predicted_epi_per_1000 == pytest.approx(
            measured, rel=1e-6,
        )

    @pytest.mark.parametrize("knobs", [
        {"scout": "hws2"},
        {"store_prefetch": "sp0"},
        {"store_buffer": 4},
    ])
    def test_single_knob_excursions_stay_within_margin(self, bench, knobs):
        measured = bench.run("database", **knobs).epi_per_1000
        guess = estimate("database", **knobs)
        assert guess.predicted_epi_per_1000 == pytest.approx(
            measured, rel=VALIDATION_MARGIN,
        )

    def test_wc_variant_stays_within_margin(self, bench):
        measured = bench.run("database", variant="wc").epi_per_1000
        guess = estimate("database", variant="wc")
        assert guess.predicted_epi_per_1000 == pytest.approx(
            measured, rel=VALIDATION_MARGIN,
        )


class TestSpeed:
    def test_sub_millisecond_per_call(self):
        estimate("database", scout="hws2")  # warm the imports
        start = time.perf_counter()
        calls = 200
        for _ in range(calls):
            estimate("database", scout="hws2")
        mean = (time.perf_counter() - start) / calls
        assert mean < 1e-3, f"estimate took {mean * 1e3:.3f} ms/call"


class TestSpecSurface:
    def test_name_mapping_and_jobspec_agree(self):
        by_name = estimate("database", scout="hws2")
        by_mapping = estimate({
            "workload": "database", "core_changes": {"scout": "hws2"},
        })
        by_spec = estimate(JobSpec.coerce(
            {"workload": "database", "core_changes": {"scout": "hws2"}},
        ))
        assert by_name == by_mapping == by_spec

    def test_keyword_knobs_split_from_job_fields(self):
        guess = estimate(
            workload="database", variant="pc", scout="hws2",
            store_queue=64,
        )
        spelled = {
            name: getattr(value, "value", value)
            for name, value in guess.knobs
        }
        assert spelled == {"scout": "hws2", "store_queue": 64}
        assert guess.variant == "pc"

    def test_spec_plus_kwargs_is_an_error(self):
        with pytest.raises(ValueError, match="not both"):
            estimate({"workload": "database"}, scout="hws2")

    def test_unknown_workload_lists_valid_names(self):
        with pytest.raises(ValueError) as err:
            estimate("nosql")
        assert "valid workloads" in str(err.value)

    def test_mix_estimate_averages_components(self):
        mixed = estimate("oltp_java", contexts=2)
        parts = [estimate(name) for name in ("database", "specjbb")]
        assert mixed.contexts == 2
        assert mixed.predicted_epi_per_1000 == pytest.approx(
            sum(p.predicted_epi_per_1000 for p in parts) / 2,
        )

    def test_knob_effects_flow_through_the_model(self):
        base = estimate("database")
        scouted = estimate("database", scout="hws2")
        assert scouted.predicted_epi_per_1000 < base.predicted_epi_per_1000

    def test_model_value_matches_the_shared_model(self):
        guess = estimate("tpcw")
        assert guess.model_epi_per_1000 == pytest.approx(
            predicted_epi_per_1000(WORKLOADS["tpcw"], {}),
        )
        # epochs_per_inst is the base term of the same model.
        assert epochs_per_inst(WORKLOADS["tpcw"]) > 0

    def test_api_alias(self):
        assert api.estimate("database") == estimate("database")
        assert api.EpiEstimate is EpiEstimate


class TestSerialization:
    def test_round_trip_is_exact(self):
        guess = estimate("database", contexts=2, scout="hws2")
        wire = serialize.to_jsonable(guess)
        back = serialize.from_jsonable(wire)
        assert isinstance(back, EpiEstimate)
        assert serialize.to_jsonable(back) == wire
        assert back.predicted_epi_per_1000 == guess.predicted_epi_per_1000

    def test_summary_names_the_knobs(self):
        text = estimate("database", contexts=2, scout="hws2").summary()
        assert "database" in text
        assert "contexts=2" in text
        assert "scout=hws2" in text
