"""The paper's analysis views, read off :class:`SimulationResult` the way
the harness reads them: Figure 3's termination mix, Figure 4's MLP
distribution and Table 2's overlap fraction."""

from __future__ import annotations

import pytest

from repro.core import SimulationResult
from repro.core.epoch import EpochRecord, TerminationCondition, TriggerKind

#: The conditions Figure 3 plots, in its legend order (the report's rows).
FIGURE3_CONDITIONS = [
    condition for condition in TerminationCondition
    if condition is not TerminationCondition.END_OF_TRACE
]


def dominant(result):
    """The most frequent termination among epochs with store MLP >= 1."""
    return max(result.termination_fractions(1).items(),
               key=lambda item: item[1])[0]


def epoch(index, stores=0, loads=0, insts=0,
          term=TerminationCondition.WINDOW_FULL):
    return EpochRecord(
        index=index, trigger=TriggerKind.LOAD, termination=term,
        store_misses=stores, load_misses=loads, inst_misses=insts,
        instructions=50,
    )


@pytest.fixture
def result():
    return SimulationResult(
        instructions=5000,
        epochs=[
            epoch(0, stores=1, term=TerminationCondition.STORE_SERIALIZE),
            epoch(1, stores=2, loads=1),
            epoch(2, loads=3),
            epoch(3, stores=1,
                  term=TerminationCondition.STORE_QUEUE_STORE_BUFFER_FULL),
        ],
        fully_overlapped_stores=4,
        accelerated_stores=2,
    )


class TestTermination:
    def test_order_matches_figure3_legend(self):
        assert FIGURE3_CONDITIONS[0] is TerminationCondition.STORE_BUFFER_FULL
        assert FIGURE3_CONDITIONS[-1] is TerminationCondition.WINDOW_FULL
        assert len(FIGURE3_CONDITIONS) == 8

    def test_stack_covers_all_conditions(self, result):
        fractions = result.termination_fractions(1)
        assert set(fractions) <= set(FIGURE3_CONDITIONS)
        # 3 of 4 epochs have store MLP >= 1; fractions are of all epochs.
        assert sum(fractions.values()) == pytest.approx(0.75)

    def test_store_caused_fraction(self, result):
        caused = sum(fraction for condition, fraction
                     in result.termination_fractions().items()
                     if condition.store_caused)
        assert caused == pytest.approx(0.5)

    def test_dominant_condition(self, result):
        # Among store-MLP>=1 epochs: serialize, window-full, sq+sb-full.
        assert dominant(result) in {
            TerminationCondition.STORE_SERIALIZE,
            TerminationCondition.WINDOW_FULL,
            TerminationCondition.STORE_QUEUE_STORE_BUFFER_FULL,
        }

    def test_empty_result(self):
        empty = SimulationResult(instructions=0)
        assert empty.termination_fractions(1) == {}
        assert empty.termination_fractions() == {}


class TestMlpStats:
    def test_histogram_includes_zero_bucket(self, result):
        distribution = result.mlp_distribution()
        assert distribution.store_mlp_fraction(0) == pytest.approx(0.25)
        assert distribution.store_mlp_fraction(1) == pytest.approx(0.5)
        assert distribution.store_mlp_fraction(2) == pytest.approx(0.25)

    def test_histogram_caps(self):
        result = SimulationResult(instructions=100, epochs=[epoch(0, stores=99)])
        assert result.mlp_distribution().bucketed(10, 5) == {(10, 0): 1.0}

    def test_profile_excludes_zero_store_bars(self, result):
        # Figure 4 plots only store MLP >= 1; the zero bar's mass is what
        # keeps the plotted bars from summing to one.
        cells = result.mlp_distribution().bucketed(10, 5)
        plotted = sum(f for (store_mlp, _), f in cells.items() if store_mlp)
        assert plotted == pytest.approx(0.75)

    def test_expensive_stores(self, result):
        # Epochs 0 and 3: one missing store, nothing else.
        assert result.mlp_distribution().fraction(1, 0) == pytest.approx(0.5)


class TestOverlap:
    def test_breakdown_totals(self, result):
        # 4 fully overlapped + 2 accelerated + 4 in epochs = 10 missing stores.
        assert result.store_miss_count == 4
        assert result.store_overlap_fraction == pytest.approx(0.4)

    def test_empty_breakdown(self):
        assert SimulationResult(instructions=0).store_overlap_fraction == 0.0
