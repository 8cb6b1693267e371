"""Reproduction of the paper's Figures 2-8.

Each ``figureN`` function returns plain data structures (dicts keyed the way
the paper's graphs are) so that benches can both print the series and assert
the paper's qualitative claims.  The SMAC experiments (Figures 5 and 6) run
on a scaled memory geometry — see :func:`smac_scaled_profile` — because the
paper warmed its SMAC for one billion instructions, far beyond pure-Python
reach; scaling preserves the ratios between workload footprints and SMAC
capacities, hence the figures' shapes.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..config import (
    CacheConfig,
    MemoryConfig,
    ScoutMode,
    SmacConfig,
    StorePrefetchMode,
)
from ..core.epoch import TerminationCondition
from ..names import ALL_WORKLOADS
from ..workloads import WORKLOADS, WorkloadProfile
from .experiment import SharingSettings, Workbench

_PREFETCH_LABELS = {
    StorePrefetchMode.NONE: "Sp0",
    StorePrefetchMode.AT_RETIRE: "Sp1",
    StorePrefetchMode.AT_EXECUTE: "Sp2",
}

# ---------------------------------------------------------------------------
# Figure 2: store prefetching x store buffer size x store queue size
# ---------------------------------------------------------------------------

FIG2_STORE_BUFFERS = (8, 16, 32)
FIG2_STORE_QUEUES = (16, 32, 64, 256)


def figure2(
    bench: Workbench, workloads: Sequence[str] = ALL_WORKLOADS
) -> Dict[str, Dict[str, float]]:
    """EPI/1000 for every (prefetch, SB, SQ) point plus the perfect-store
    floor, per workload.  Keys: ``"Sp1/sb16/sq32"`` and ``"perfect"``."""
    results: Dict[str, Dict[str, float]] = {}
    for name in workloads:
        series: Dict[str, float] = {}
        for mode in StorePrefetchMode:
            for sb in FIG2_STORE_BUFFERS:
                for sq in FIG2_STORE_QUEUES:
                    result = bench.run(
                        name,
                        store_prefetch=mode,
                        store_buffer=sb,
                        store_queue=sq,
                    )
                    key = f"{_PREFETCH_LABELS[mode]}/sb{sb}/sq{sq}"
                    series[key] = result.epi_per_1000
        series["perfect"] = bench.run(name, perfect_stores=True).epi_per_1000
        results[name] = series
    return results


# ---------------------------------------------------------------------------
# Figure 3: window termination conditions
# ---------------------------------------------------------------------------

def figure3(
    bench: Workbench,
    workloads: Sequence[str] = ALL_WORKLOADS,
    sle: bool = False,
) -> Dict[str, Dict[TerminationCondition, float]]:
    """Termination-condition mix over epochs with store MLP >= 1.

    ``sle=False`` reproduces Figure 3A (default configuration);
    ``sle=True`` reproduces Figure 3B (SLE + prefetch past serializing).
    """
    results: Dict[str, Dict[TerminationCondition, float]] = {}
    variant = "pc_sle" if sle else "pc"
    for name in workloads:
        result = bench.run(
            name,
            variant=variant,
            prefetch_past_serializing=sle,
        )
        results[name] = result.termination_fractions(store_mlp_at_least=1)
    return results


# ---------------------------------------------------------------------------
# Figure 4: MLP distributions
# ---------------------------------------------------------------------------

def figure4(
    bench: Workbench, workloads: Sequence[str] = ALL_WORKLOADS
) -> Dict[str, Dict[Tuple[int, int], float]]:
    """Joint (store MLP, load+inst MLP) epoch fractions, buckets capped at
    the paper's >=10 / >=5."""
    results = {}
    for name in workloads:
        result = bench.run(name)
        results[name] = result.mlp_distribution().bucketed(
            store_cap=10, load_cap=5
        )
    return results


# ---------------------------------------------------------------------------
# Figures 5 & 6: the Store Miss Accelerator
# ---------------------------------------------------------------------------

#: SMAC entry counts swept, scaled 1:256 from the paper's 8K..128K.
SMAC_ENTRY_SWEEP = (32, 64, 128, 256, 512)
SMAC_SCALE = 256

#: Scaled private store-miss footprints (2KB regions per workload),
#: preserving the paper's saturation ordering: database (64K entries)
#: > SPECjbb/TPC-W (32K) > SPECweb (16K).  Small enough that the trace's
#: store-miss budget revisits each region several times (the paper warmed
#: its SMAC over 1G instructions to the same end).
_SMAC_REGIONS = {
    "database": 256,
    "tpcw": 128,
    "specjbb": 128,
    "specweb": 64,
}


def smac_scaled_profile(name: str) -> WorkloadProfile:
    """Workload profile rescaled for the SMAC capacity experiments."""
    profile = WORKLOADS[name]
    return profile.with_(
        store_regions=_SMAC_REGIONS[name],
        store_region_lines_used=1,
        hot_data_bytes=16 * 1024,
        hot_code_bytes=8 * 1024,
        cold_load_bytes=8 * 1024 * 1024,
        shared_bytes=256 * 1024,
    )


def smac_memory_config(entries: int | None) -> MemoryConfig:
    """Scaled memory-side configuration for the SMAC experiments."""
    smac = None
    if entries is not None:
        smac = SmacConfig(entries=entries, associativity=8)
    return MemoryConfig(
        l2=CacheConfig(64 * 1024, 4),
        smac=smac,
    )


def _install_smac_profiles(bench: Workbench, workloads: Sequence[str]) -> None:
    for name in workloads:
        bench.set_profile(name, smac_scaled_profile(name))


def figure5(
    bench: Workbench,
    workloads: Sequence[str] = ALL_WORKLOADS,
    entry_sweep: Sequence[int] = SMAC_ENTRY_SWEEP,
) -> Dict[str, Dict[str, float]]:
    """EPI/1000 per (prefetch mode, SMAC size), plus no-SMAC and perfect.

    Keys: ``"Sp1/none"``, ``"Sp1/smac256"``, ..., ``"Sp1/perfect"``.
    Mutates the bench's profiles to the scaled SMAC variants.
    """
    _install_smac_profiles(bench, workloads)
    results: Dict[str, Dict[str, float]] = {}
    for name in workloads:
        series: Dict[str, float] = {}
        for mode in StorePrefetchMode:
            label = _PREFETCH_LABELS[mode]
            series[f"{label}/none"] = bench.run(
                name,
                memory_config=smac_memory_config(None),
                tag="smac-none",
                store_prefetch=mode,
            ).epi_per_1000
            for entries in entry_sweep:
                series[f"{label}/smac{entries}"] = bench.run(
                    name,
                    memory_config=smac_memory_config(entries),
                    tag=f"smac-{entries}",
                    store_prefetch=mode,
                ).epi_per_1000
            series[f"{label}/perfect"] = bench.run(
                name,
                memory_config=smac_memory_config(None),
                tag="smac-none",
                store_prefetch=mode,
                perfect_stores=True,
            ).epi_per_1000
        results[name] = series
    return results


def figure6(
    bench: Workbench,
    workloads: Sequence[str] = ALL_WORKLOADS,
    entry_sweep: Sequence[int] = SMAC_ENTRY_SWEEP,
    node_counts: Sequence[int] = (2, 4),
) -> Dict[str, Dict[str, Dict[int, float]]]:
    """Impact of coherence on the SMAC.

    Returns per workload::

        {"invalidates_per_1000": {nodes: {entries: value}},
         "invalid_hit_percent":  {nodes: {entries: value}}}
    """
    _install_smac_profiles(bench, workloads)
    results: Dict[str, Dict[str, Dict[int, Dict[int, float]]]] = {}
    for name in workloads:
        invalidates: Dict[int, Dict[int, float]] = {}
        invalid_hits: Dict[int, Dict[int, float]] = {}
        for nodes in node_counts:
            sharing = SharingSettings(nodes=nodes)
            invalidates[nodes] = {}
            invalid_hits[nodes] = {}
            for entries in entry_sweep:
                bench.run(
                    name,
                    memory_config=smac_memory_config(entries),
                    sharing=sharing,
                    tag=f"smac-{entries}",
                )
                stats = bench.memory_for(
                    name, sharing=sharing, tag=f"smac-{entries}"
                ).stats
                instructions = max(1, stats.instructions)
                invalidates[nodes][entries] = (
                    1000.0 * stats.smac_coherence_invalidates / instructions
                )
                store_misses = max(1, stats.store_l2_misses)
                invalid_hits[nodes][entries] = (
                    100.0 * stats.smac_invalidated_hits / store_misses
                )
        results[name] = {
            "invalidates_per_1000": invalidates,
            "invalid_hit_percent": invalid_hits,
        }
    return results


# ---------------------------------------------------------------------------
# Figure 7: memory consistency model optimizations
# ---------------------------------------------------------------------------

#: The six configurations of Figure 7, as (label, trace variant, core knobs).
FIG7_CONFIGS: Tuple[Tuple[str, str, dict], ...] = (
    ("PC1", "pc", {}),
    ("PC2", "pc", {"prefetch_past_serializing": True}),
    ("PC3", "pc_sle", {"prefetch_past_serializing": True}),
    ("WC1", "wc", {}),
    ("WC2", "wc", {"prefetch_past_serializing": True}),
    ("WC3", "wc_sle", {"prefetch_past_serializing": True}),
)


def figure7(
    bench: Workbench, workloads: Sequence[str] = ALL_WORKLOADS
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """EPI/1000 with stores and with perfect stores for PC1-3/WC1-3 under
    each store-prefetch mode.

    Keys: ``results[workload][f"{Sp}/{config}"] = {"with_stores": x,
    "perfect": y}``.
    """
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in workloads:
        series: Dict[str, Dict[str, float]] = {}
        for mode in StorePrefetchMode:
            for label, variant, knobs in FIG7_CONFIGS:
                with_stores = bench.run(
                    name, variant=variant, store_prefetch=mode, **knobs
                ).epi_per_1000
                perfect = bench.run(
                    name,
                    variant=variant,
                    store_prefetch=mode,
                    perfect_stores=True,
                    **knobs,
                ).epi_per_1000
                series[f"{_PREFETCH_LABELS[mode]}/{label}"] = {
                    "with_stores": with_stores,
                    "perfect": perfect,
                }
        results[name] = series
    return results


# ---------------------------------------------------------------------------
# Figure 8: Hardware Scout
# ---------------------------------------------------------------------------

#: The Figure 8 configurations per consistency model.
FIG8_CONFIGS: Tuple[Tuple[str, ScoutMode], ...] = (
    ("NoHWS", ScoutMode.NONE),
    ("HWS0", ScoutMode.HWS0),
    ("HWS1", ScoutMode.HWS1),
    ("HWS2", ScoutMode.HWS2),
)


def figure8(
    bench: Workbench, workloads: Sequence[str] = ALL_WORKLOADS
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """EPI/1000 (with stores / perfect stores) for No-HWS and HWS0-2 under
    PC and WC."""
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in workloads:
        series: Dict[str, Dict[str, float]] = {}
        for model_label, variant in (("PC", "pc"), ("WC", "wc")):
            for label, scout in FIG8_CONFIGS:
                with_stores = bench.run(
                    name, variant=variant, scout=scout
                ).epi_per_1000
                perfect = bench.run(
                    name, variant=variant, scout=scout, perfect_stores=True
                ).epi_per_1000
                series[f"{model_label}/{label}"] = {
                    "with_stores": with_stores,
                    "perfect": perfect,
                }
        results[name] = series
    return results
