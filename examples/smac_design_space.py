#!/usr/bin/env python
"""Store Miss Accelerator design-space exploration.

Sweeps the SMAC's two geometry axes — entry count and sub-blocking factor —
and reports EPI, hit rate and SRAM cost, demonstrating the paper's point
that a few bits of retained *ownership* per line buy most of the benefit of
prefetching without the L2 bandwidth.

Run:  python examples/smac_design_space.py [workload]
"""

from __future__ import annotations

import sys

from repro import SmacConfig, api
from repro.config import StorePrefetchMode
from repro.harness.figures import smac_memory_config, smac_scaled_profile
from repro.harness.formatting import format_table


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "database"
    bench = api.workbench(api.ExperimentSettings(
        warmup=60_000, measure=90_000, seed=4, calibrate=False,
    ))
    bench.set_profile(workload, smac_scaled_profile(workload))

    baseline = bench.run(
        workload,
        memory_config=smac_memory_config(None),
        tag="none",
        store_prefetch=StorePrefetchMode.NONE,
    )
    print(f"{workload}: no SMAC, no prefetch -> "
          f"EPI/1000 = {baseline.epi_per_1000:.3f}")
    print()

    rows = []
    for entries in (64, 128, 256, 512):
        for line_bytes in (1024, 2048, 4096):
            smac = SmacConfig(
                entries=entries, line_bytes=line_bytes, associativity=8,
            )
            memory_config = smac_memory_config(entries)
            memory_config = type(memory_config)(
                l2=memory_config.l2, smac=smac,
            )
            tag = f"smac-{entries}-{line_bytes}"
            result = bench.run(
                workload,
                memory_config=memory_config,
                tag=tag,
                store_prefetch=StorePrefetchMode.NONE,
            )
            smac_stats = bench.memory_for(workload, tag=tag).smac
            hit_rate = smac_stats.hit_ratio if smac_stats is not None else 0.0
            rows.append([
                entries,
                line_bytes,
                smac.coverage_bytes // 1024,
                smac.storage_bits // 8 // 1024,
                result.epi_per_1000,
                100 * hit_rate,
            ])

    print(format_table(
        ["entries", "region B", "coverage KB", "SRAM KB",
         "EPI/1000", "hit %"],
        rows,
        title="SMAC geometry sweep (no store prefetching)",
    ))

    best = min(rows, key=lambda row: row[4])
    print()
    print(f"best geometry: {best[0]} entries x {best[1]}B regions "
          f"({best[3]}KB of SRAM) -> EPI/1000 = {best[4]:.3f} "
          f"vs {baseline.epi_per_1000:.3f} without")


if __name__ == "__main__":
    main()
