"""End-to-end reproduction of the paper's qualitative claims.

Each test runs the full pipeline (generate -> annotate -> simulate) at a
reduced trace size and asserts one of the paper's headline findings.  These
are the same checks the benchmark harness makes at full size.
"""

from __future__ import annotations

import pytest

from repro.config import ScoutMode, StorePrefetchMode
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.harness.figures import smac_memory_config, smac_scaled_profile


@pytest.fixture(scope="module")
def bench():
    return Workbench(ExperimentSettings(
        warmup=20_000, measure=50_000, seed=5, calibrate=False,
    ))


WORKLOADS = ("database", "tpcw", "specjbb", "specweb")


class TestStoreImpact:
    """Section 5.1: missing stores contribute significantly to off-chip CPI."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_stores_contribute_to_epi(self, bench, workload):
        with_stores = bench.run(
            workload, store_prefetch=StorePrefetchMode.NONE
        )
        perfect = bench.run(
            workload, store_prefetch=StorePrefetchMode.NONE,
            perfect_stores=True,
        )
        contribution = 1 - perfect.epi / with_stores.epi
        assert contribution > 0.10  # paper: 17%-46% without prefetching

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_store_prefetching_helps(self, bench, workload):
        sp0 = bench.run(workload, store_prefetch=StorePrefetchMode.NONE)
        sp1 = bench.run(workload, store_prefetch=StorePrefetchMode.AT_RETIRE)
        assert sp1.epi <= sp0.epi

    def test_prefetch_at_execute_at_least_matches_retire(self, bench):
        sp1 = bench.run("database", store_prefetch=StorePrefetchMode.AT_RETIRE)
        sp2 = bench.run("database", store_prefetch=StorePrefetchMode.AT_EXECUTE)
        assert sp2.epi <= sp1.epi * 1.02

    def test_prefetching_does_not_close_the_gap_fully(self, bench):
        """Even with store prefetching, missing stores still cost epochs
        (the residual the SMAC/SLE/HWS2 sections attack)."""
        sp2 = bench.run("specweb", store_prefetch=StorePrefetchMode.AT_EXECUTE)
        perfect = bench.run("specweb", perfect_stores=True)
        assert sp2.epi > perfect.epi


class TestSerializationFindings:
    """Section 5.1/5.3: serializing instructions, not queue sizes, limit
    store MLP for TPC-W/SPECjbb/SPECweb."""

    @pytest.mark.parametrize("workload", ("tpcw", "specjbb", "specweb"))
    def test_store_serialize_dominates(self, bench, workload):
        from repro.core.epoch import TerminationCondition
        result = bench.run(workload)
        dominant = max(result.termination_fractions(1).items(),
                       key=lambda item: item[1])[0]
        assert dominant is TerminationCondition.STORE_SERIALIZE

    @pytest.mark.parametrize("workload", ("specjbb", "specweb"))
    def test_enlarging_queues_barely_helps_serialize_bound(
        self, bench, workload
    ):
        small = bench.run(workload, store_queue=32)
        large = bench.run(workload, store_queue=256)
        assert large.epi >= small.epi * 0.93

    def test_database_benefits_from_larger_store_queue(self, bench):
        small = bench.run(
            "database", store_queue=16,
            store_prefetch=StorePrefetchMode.NONE,
        )
        large = bench.run(
            "database", store_queue=256,
            store_prefetch=StorePrefetchMode.NONE,
        )
        assert large.epi < small.epi


class TestConsistencyGap:
    """Section 5.3: WC outperforms PC on stores; SLE closes the gap."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_wc_beats_pc(self, bench, workload):
        pc = bench.run(workload)
        wc = bench.run(workload, variant="wc")
        assert wc.epi < pc.epi

    @pytest.mark.parametrize("workload", ("tpcw", "specjbb", "specweb"))
    def test_sle_narrows_the_gap(self, bench, workload):
        pc = bench.run(workload)
        wc = bench.run(workload, variant="wc")
        pc_sle = bench.run(
            workload, variant="pc_sle", prefetch_past_serializing=True
        )
        gap = pc.epi - wc.epi
        remaining = pc_sle.epi - wc.epi
        assert remaining < 0.5 * gap

    def test_prefetch_past_serializing_helps_pc(self, bench):
        base = bench.run("specjbb")
        optimized = bench.run("specjbb", prefetch_past_serializing=True)
        assert optimized.epi <= base.epi


class TestHardwareScout:
    """Section 5.4: HWS2 almost eliminates store impact and bridges the
    consistency gap."""

    def test_scout_improves_epi(self, bench):
        base = bench.run("database")
        scouted = bench.run("database", scout=ScoutMode.HWS0)
        assert scouted.epi < base.epi

    def test_hws_ladder_monotone(self, bench):
        results = [
            bench.run("specweb", scout=mode).epi
            for mode in (ScoutMode.NONE, ScoutMode.HWS0,
                         ScoutMode.HWS1, ScoutMode.HWS2)
        ]
        assert results[1] < results[0]
        assert results[2] <= results[1] * 1.02
        assert results[3] <= results[2] * 1.02

    def test_hws2_nearly_eliminates_store_impact(self, bench):
        hws2 = bench.run("specweb", scout=ScoutMode.HWS2)
        hws2_perfect = bench.run(
            "specweb", scout=ScoutMode.HWS2, perfect_stores=True
        )
        base = bench.run("specweb")
        base_perfect = bench.run("specweb", perfect_stores=True)
        store_cost_base = base.epi - base_perfect.epi
        store_cost_hws2 = hws2.epi - hws2_perfect.epi
        assert store_cost_hws2 < 0.5 * store_cost_base

    def test_hws2_narrows_consistency_gap(self, bench):
        pc = bench.run("specjbb", scout=ScoutMode.HWS2)
        wc = bench.run("specjbb", variant="wc", scout=ScoutMode.HWS2)
        base_gap = bench.run("specjbb").epi - bench.run(
            "specjbb", variant="wc"
        ).epi
        scout_gap = pc.epi - wc.epi
        assert scout_gap < base_gap


class TestSmac:
    """Section 5.2: the SMAC approaches prefetch-at-execute performance
    without consuming issue bandwidth."""

    @pytest.fixture(scope="class")
    def smac_bench(self):
        bench = Workbench(ExperimentSettings(
            warmup=40_000, measure=80_000, seed=5, calibrate=False,
        ))
        for name in ("database", "specweb"):
            bench.set_profile(name, smac_scaled_profile(name))
        return bench

    def test_smac_improves_epi(self, smac_bench):
        without = smac_bench.run(
            "database",
            memory_config=smac_memory_config(None),
            tag="none",
            store_prefetch=StorePrefetchMode.NONE,
        )
        with_smac = smac_bench.run(
            "database",
            memory_config=smac_memory_config(1024),
            tag="1024",
            store_prefetch=StorePrefetchMode.NONE,
        )
        assert with_smac.epi < without.epi
        assert with_smac.accelerated_stores > 0

    def test_bigger_smac_is_at_least_as_good(self, smac_bench):
        small = smac_bench.run(
            "specweb",
            memory_config=smac_memory_config(64),
            tag="64",
        )
        large = smac_bench.run(
            "specweb",
            memory_config=smac_memory_config(1024),
            tag="1024",
        )
        assert large.epi <= small.epi * 1.05
