"""Axis-name/value validation for sweeps (repro.harness.sweeps)."""

from __future__ import annotations

import pytest

from repro.config import ConsistencyModel, ScoutMode, StorePrefetchMode
from repro.harness.sweeps import (
    AXIS_BOOLS,
    AXIS_ENUMS,
    AXIS_INTS,
    SweepSpec,
    coerce_axis_value,
    valid_axes,
)


class TestValidAxes:
    def test_covers_every_declared_axis(self):
        axes = valid_axes()
        for name in (*AXIS_INTS, *AXIS_BOOLS, *AXIS_ENUMS):
            assert name in axes

    def test_descriptions_name_the_enum_spellings(self):
        axes = valid_axes()
        assert "sp1" in axes["store_prefetch"]
        assert "hws2" in axes["scout"]
        assert "wc" in axes["consistency"]


class TestCoercion:
    def test_enum_spellings(self):
        assert coerce_axis_value("store_prefetch", "sp2") is \
            StorePrefetchMode.AT_EXECUTE
        assert coerce_axis_value("scout", "hws1") is ScoutMode.HWS1
        assert coerce_axis_value("consistency", "WC") is ConsistencyModel.WC

    def test_enum_members_pass_through(self):
        assert coerce_axis_value("scout", ScoutMode.NONE) is ScoutMode.NONE

    def test_bool_and_int_spellings(self):
        assert coerce_axis_value("sle", "true") is True
        assert coerce_axis_value("perfect_stores", False) is False
        assert coerce_axis_value("store_queue", "64") == 64
        assert coerce_axis_value("rob", 128) == 128


class TestActionableErrors:
    def test_unknown_axis_lists_every_valid_axis(self):
        with pytest.raises(ValueError) as excinfo:
            coerce_axis_value("store_que", 16)
        message = str(excinfo.value)
        assert "unknown sweep axis 'store_que'" in message
        for name in valid_axes():
            assert name in message

    def test_fetch_buffer_is_not_an_axis(self):
        # No fetch buffer is modelled, so no value of it could change a
        # result; sweeping it would only cost simulations.
        assert "fetch_buffer" not in valid_axes()
        with pytest.raises(ValueError) as excinfo:
            coerce_axis_value("fetch_buffer", 8)
        message = str(excinfo.value)
        assert "unknown sweep axis 'fetch_buffer'" in message
        assert "valid axes" in message

    def test_bad_enum_value_lists_the_spellings(self):
        with pytest.raises(ValueError) as excinfo:
            coerce_axis_value("store_prefetch", "sp9")
        message = str(excinfo.value)
        assert "'sp9'" in message
        assert "sp0" in message and "sp1" in message and "sp2" in message

    def test_wrong_typed_enum_value_rejected(self):
        with pytest.raises(ValueError):
            coerce_axis_value("store_prefetch", ScoutMode.HWS2)

    @pytest.mark.parametrize("value", ["maybe", 3, None])
    def test_untypeable_bool_rejected(self, value):
        with pytest.raises(ValueError) as excinfo:
            coerce_axis_value("sle", value)
        assert "'true'/'false'" in str(excinfo.value)

    @pytest.mark.parametrize("value", ["sixteen", True, 2.5, None])
    def test_untypeable_int_rejected(self, value):
        with pytest.raises(ValueError) as excinfo:
            coerce_axis_value("store_queue", value)
        assert "integer" in str(excinfo.value)

    def test_sweep_spec_build_surfaces_the_same_message(self):
        with pytest.raises(ValueError) as excinfo:
            SweepSpec.build("database", store_que=[16, 32])
        assert "unknown sweep axis" in str(excinfo.value)


class TestSmtAxes:
    """The job-level ``contexts``/``scheduler`` sweep axes."""

    def test_listed_in_valid_axes(self):
        axes = valid_axes()
        assert "SMT" in axes["contexts"]
        assert "mlp" in axes["scheduler"]

    def test_contexts_coercion(self):
        assert coerce_axis_value("contexts", "2") == 2
        assert coerce_axis_value("contexts", 4) == 4

    @pytest.mark.parametrize("value", ["two", 0, -1, True, 2.5, None])
    def test_bad_contexts_rejected(self, value):
        with pytest.raises(ValueError) as excinfo:
            coerce_axis_value("contexts", value)
        assert "integer >= 1" in str(excinfo.value)

    def test_scheduler_coercion_normalizes_case(self):
        assert coerce_axis_value("scheduler", "MLP") == "mlp"
        assert coerce_axis_value("scheduler", "round_robin") == "round_robin"

    def test_unknown_scheduler_lists_policies(self):
        with pytest.raises(ValueError) as excinfo:
            coerce_axis_value("scheduler", "fifo")
        assert "valid schedulers" in str(excinfo.value)

    @pytest.mark.parametrize("value", [3, None, True])
    def test_non_string_scheduler_rejected(self, value):
        with pytest.raises(ValueError) as excinfo:
            coerce_axis_value("scheduler", value)
        assert "scheduler" in str(excinfo.value)

    def test_to_jobs_lifts_smt_axes_onto_the_spec(self):
        spec = SweepSpec.build(
            "database",
            contexts=[1, 2],
            scheduler=["round_robin", "mlp"],
            store_queue=[16],
        )
        jobs = spec.to_jobs()
        assert len(jobs) == 4
        for job in jobs:
            # Job-level axes never leak into the core knobs.
            assert dict(job.core_changes) == {"store_queue": 16}
        assert {(job.contexts, job.scheduler) for job in jobs} == {
            (1, "round_robin"), (1, "mlp"), (2, "round_robin"), (2, "mlp"),
        }

    def test_points_keep_the_full_tuple_for_labels(self):
        spec = SweepSpec.build("database", contexts=[2])
        (point,) = spec.points()
        assert point == (("contexts", 2),)
