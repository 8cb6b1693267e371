#!/usr/bin/env python
"""CI fault-injection smoke: kill a worker mid-shard, verify recovery.

Runs one workload unsharded (the golden), then sharded once without a
fault: a job's first sharded run is one whole-trace shard that records
where later runs may cut.  The next sharded run splits there, across real
pool workers, with a ``kill@M`` fault injected into the shard specs.  The
kill hard-exits the worker about to simulate the shard holding trace
position *M*; the engine must recompute that shard from its start in a
retry round and produce a merged result bit-identical to the golden.

Exits non-zero (with a diagnostic) on any deviation, so the cache
directory can be uploaded as a CI artifact for post-mortem.

Usage::

    python scripts/fault_smoke.py [--cache-dir DIR] [--shards N]
        [--kill-at M]
"""

from __future__ import annotations

import argparse
import sys

from repro.engine.runner import EngineRunner, JobSpec
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", default=".ci-fault-cache")
    parser.add_argument("--workload", default="database")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--kill-at", type=int, default=1200)
    parser.add_argument("--warmup", type=int, default=3000)
    parser.add_argument("--measure", type=int, default=9000)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)

    settings = ExperimentSettings(
        warmup=args.warmup, measure=args.measure, seed=args.seed,
        calibrate=False,
    )

    print(f"fault smoke: golden unsharded run of {args.workload} ...")
    golden = Workbench(settings).run(args.workload)
    print(f"  golden: {golden.summary()}")

    runner = EngineRunner(
        settings=settings, cache_dir=args.cache_dir, workers=2, retries=1,
    )
    spec = JobSpec(workload=args.workload)
    print(f"fault smoke: first sharded x{args.shards} run records the cuts ...")
    first = runner.run_sharded(spec, args.shards)
    print(f"  {first.summary()}")
    failures = []
    if not first.ok or first.merged != golden:
        failures.append("the recording run did not merge to the golden")

    spec = JobSpec(workload=args.workload, fault=f"kill@{args.kill_at}")
    print(f"fault smoke: sharded x{args.shards}, kill@{args.kill_at} ...")
    report = runner.run_sharded(spec, args.shards)
    print(f"  plan: {report.plan.describe()}")
    print(f"  {report.summary()}")
    for job in report.jobs:
        mark = "ok" if job.ok else f"FAILED: {job.error}"
        print(f"  {job.spec.describe():<48} {mark} attempts={job.attempts}")

    if report.plan.shard_count < 2:
        failures.append(
            f"the run after the recording one was not split "
            f"({report.plan.describe()})"
        )
    if not report.ok:
        failures.append("sharded run did not recover from the kill")
    if report.merged != golden:
        failures.append("merged result differs from the unsharded golden")
    killed = [
        job for job in report.jobs
        if job.spec.shard_start <= args.kill_at < job.spec.shard_stop
    ]
    if report.rounds < 2 or [job.attempts for job in killed] != [2]:
        failures.append(
            "the killed shard was not recomputed in a retry round "
            f"(rounds={report.rounds}, attempts="
            f"{[job.attempts for job in killed]})"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"fault smoke OK: the killed shard was recomputed in round "
        f"{report.rounds}, merged == golden"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
