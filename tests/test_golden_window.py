"""Golden-result tests pinning the window scan's exact behaviour.

The numbers below were recorded from the monolithic ``MlpSimulator.run``
before it was decomposed into ``WindowState`` + handler methods +
``EpochAccountant`` (PR 1).  The decomposition must be bit-identical: EPI,
the termination and trigger histograms, and every store-accounting counter
are asserted exactly, not approximately.

If a future PR intentionally changes simulation semantics, these constants
must be re-recorded in the same commit and the change called out in its
description.
"""

from __future__ import annotations

import pytest

from repro.config import ScoutMode, StorePrefetchMode
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench

GOLDEN = {
    "database_pc_default": {
        "epochs": 205,
        "epi_per_1000": 22.777777778,
        "total_misses": 255,
        "terminations": {
            "end_of_trace": 1,
            "instruction_miss": 182,
            "mispred_branch": 4,
            "other_serialize": 4,
            "store_serialize": 2,
            "window_full": 12,
        },
        "triggers": {"instruction": 153, "load": 40, "store": 12},
        "fully_overlapped_stores": 0,
        "accelerated_stores": 0,
        "scout_episodes": 0,
        "stores_committed": 906,
        "store_prefetch_requests": 19,
        "stores_coalesced": 30,
    },
    "database_pc_sp0_small": {
        "epochs": 207,
        "epi_per_1000": 23.0,
        "total_misses": 255,
        "terminations": {
            "end_of_trace": 1,
            "instruction_miss": 182,
            "mispred_branch": 4,
            "other_serialize": 4,
            "store_buffer_full": 4,
            "store_queue_window_full": 1,
            "store_serialize": 2,
            "window_full": 9,
        },
        "triggers": {"instruction": 150, "load": 38, "store": 19},
        "fully_overlapped_stores": 0,
        "accelerated_stores": 0,
        "scout_episodes": 0,
        "stores_committed": 901,
        "store_prefetch_requests": 0,
        "stores_coalesced": 35,
    },
    "database_wc": {
        "epochs": 203,
        "epi_per_1000": 22.480620155,
        "total_misses": 255,
        "terminations": {
            "end_of_trace": 1,
            "instruction_miss": 182,
            "mispred_branch": 4,
            "other_serialize": 4,
            "window_full": 12,
        },
        "triggers": {"instruction": 153, "load": 40, "store": 10},
        "fully_overlapped_stores": 0,
        "accelerated_stores": 0,
        "scout_episodes": 0,
        "stores_committed": 908,
        "store_prefetch_requests": 19,
        "stores_coalesced": 28,
    },
    "tpcw_pc_scout_hws2": {
        "epochs": 147,
        "epi_per_1000": 16.333333333,
        "total_misses": 159,
        "terminations": {
            "instruction_miss": 145,
            "mispred_branch": 1,
            "other_serialize": 1,
        },
        "triggers": {"instruction": 141, "load": 6},
        "fully_overlapped_stores": 0,
        "accelerated_stores": 0,
        "scout_episodes": 1,
        "stores_committed": 725,
        "store_prefetch_requests": 0,
        "stores_coalesced": 1,
    },
    "specjbb_pc_sle_pps": {
        "epochs": 155,
        "epi_per_1000": 17.222222222,
        "total_misses": 173,
        "terminations": {
            "instruction_miss": 146,
            "mispred_branch": 2,
            "window_full": 7,
        },
        "triggers": {"instruction": 131, "load": 20, "store": 4},
        "fully_overlapped_stores": 0,
        "accelerated_stores": 0,
        "scout_episodes": 0,
        "stores_committed": 674,
        "store_prefetch_requests": 4,
        "stores_coalesced": 13,
    },
    "specweb_wc_sp2": {
        "epochs": 149,
        "epi_per_1000": 16.391639164,
        "total_misses": 167,
        "terminations": {
            "instruction_miss": 143,
            "mispred_branch": 2,
            "other_serialize": 1,
            "window_full": 3,
        },
        "triggers": {"instruction": 127, "load": 19, "store": 3},
        "fully_overlapped_stores": 0,
        "accelerated_stores": 0,
        "scout_episodes": 0,
        "stores_committed": 711,
        "store_prefetch_requests": 3,
        "stores_coalesced": 8,
    },
}


@pytest.fixture(scope="module")
def bench() -> Workbench:
    return Workbench(ExperimentSettings(
        warmup=3000, measure=9000, seed=13, calibrate=False,
    ))


def _run(bench: Workbench, case: str):
    if case == "database_pc_default":
        return bench.run("database", backend="reference")
    if case == "database_pc_sp0_small":
        return bench.run(
            "database", backend="reference",
            store_prefetch=StorePrefetchMode.NONE,
            store_buffer=8,
            store_queue=16,
        )
    if case == "database_wc":
        return bench.run("database", variant="wc", backend="reference")
    if case == "tpcw_pc_scout_hws2":
        return bench.run(
            "tpcw", backend="reference", scout=ScoutMode.HWS2,
            store_prefetch=StorePrefetchMode.NONE,
        )
    if case == "specjbb_pc_sle_pps":
        return bench.run(
            "specjbb", variant="pc_sle", backend="reference",
            prefetch_past_serializing=True,
        )
    if case == "specweb_wc_sp2":
        return bench.run(
            "specweb", variant="wc", backend="reference",
            store_prefetch=StorePrefetchMode.AT_EXECUTE,
        )
    raise AssertionError(f"unknown golden case {case!r}")


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_window_scan(bench, case):
    result = _run(bench, case)
    expected = GOLDEN[case]
    assert result.epoch_count == expected["epochs"]
    assert result.epi_per_1000 == pytest.approx(
        expected["epi_per_1000"], abs=1e-9
    )
    assert result.total_misses == expected["total_misses"]
    assert {
        cond.value: count
        for cond, count in result.termination_histogram().items()
    } == expected["terminations"]
    assert {
        kind.value: count
        for kind, count in result.trigger_histogram().items()
    } == expected["triggers"]
    assert result.fully_overlapped_stores == expected["fully_overlapped_stores"]
    assert result.accelerated_stores == expected["accelerated_stores"]
    assert result.scout_episodes == expected["scout_episodes"]
    assert result.stores_committed == expected["stores_committed"]
    assert result.store_prefetch_requests == expected["store_prefetch_requests"]
    assert result.stores_coalesced == expected["stores_coalesced"]
