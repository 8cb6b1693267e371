"""Stage microbenchmarks: instructions/sec of generate, annotate and simulate.

A cold run spends its time building the simulator's input (generating the
trace and annotating it through the memory hierarchy); a figure sweep then
replays that input under many core configurations.  This module measures
all three per-instruction loops on a fixed set of workload profiles:

1. build annotated traces for the profiles — fixed seed, fixed sizing,
   ``calibrate=False``, in-memory cache only — so every stage's input is
   bit-identical across machines and commits,
2. per profile, run each stage ``warmup_reps`` times untimed (interpreter
   warmup, branch-predictor-friendly bytecode caches), then ``reps`` timed
   runs with GC disabled, and report the **median**,
3. score the simulator loop in **instructions/sec** (trace instructions
   retired per wall second) and **epochs/sec**, trace generation and
   annotation in instructions/sec (``stages``), plus the geometric mean of
   each across profiles.

The emitted report (``BENCH_core.json`` at the repo root) is the committed
performance baseline.  ``check_regression`` compares a fresh run against
it; the CI perf-smoke step fails the build when any stage's
instructions/sec drops more than 20% below the committed numbers.
"""

from __future__ import annotations

import gc
import json
import math
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import MemoryConfig, ScoutMode, SimulationConfig, StorePrefetchMode
from ..core import MlpSimulator
from ..frontend import BranchPredictor
from ..harness.experiment import ExperimentSettings, Workbench
from ..memory import MemorySystem, annotate_trace
from ..workloads import WorkloadGenerator

__all__ = [
    "BENCH_FILENAME",
    "BACKENDS_FILENAME",
    "BenchProfile",
    "DEFAULT_PROFILES",
    "check_backends_regression",
    "check_regression",
    "load_report",
    "run_backend_bench",
    "run_core_bench",
    "run_stage_bench",
    "write_report",
]

#: Canonical location of the committed baseline, relative to the repo root.
BENCH_FILENAME = "BENCH_core.json"

#: Committed per-backend comparison report (``mlpsim bench --perf
#: --backend all``): the same profiles measured on every registered
#: execution backend, with geomean speedups vs the reference loop.
BACKENDS_FILENAME = "BENCH_backends.json"

#: Report schema version (bump when the JSON layout changes).
SCHEMA_VERSION = 1

#: Per-profile rates of the stages that build the simulator's input.
STAGE_METRICS = ("generate_insts_per_sec", "annotate_insts_per_sec")

#: Fixed trace sizing/seeding: changing these invalidates every committed
#: number, so they are constants of the harness rather than CLI knobs.
BENCH_WARMUP = 8_000
BENCH_MEASURE = 24_000
BENCH_SEED = 11


@dataclass(frozen=True)
class BenchProfile:
    """One benchmarked configuration: a workload under fixed core knobs."""

    name: str
    workload: str
    variant: str = "pc"
    core_changes: Tuple[Tuple[str, Any], ...] = ()

    def config_kwargs(self) -> Dict[str, Any]:
        return dict(self.core_changes)


#: The tracked profile set: one per workload, covering the consistency
#: models and the scout/SLE machinery so every class handler is exercised.
DEFAULT_PROFILES: Tuple[BenchProfile, ...] = (
    BenchProfile("database_pc", "database"),
    BenchProfile("database_wc", "database", "wc"),
    BenchProfile(
        "tpcw_scout_hws2", "tpcw",
        core_changes=(
            ("scout", ScoutMode.HWS2),
            ("store_prefetch", StorePrefetchMode.NONE),
        ),
    ),
    BenchProfile(
        "specjbb_sle_pps", "specjbb", "pc_sle",
        core_changes=(("prefetch_past_serializing", True),),
    ),
    BenchProfile(
        "specweb_wc_sp2", "specweb", "wc",
        core_changes=(("store_prefetch", StorePrefetchMode.AT_EXECUTE),),
    ),
)


@dataclass
class _ProfileMeasurement:
    """Internal accumulator for one profile's timed runs."""

    profile: BenchProfile
    instructions: int = 0
    epochs: int = 0
    epi_per_1000: float = 0.0
    seconds: List[float] = field(default_factory=list)

    @property
    def median_seconds(self) -> float:
        return statistics.median(self.seconds)

    def to_dict(self) -> Dict[str, Any]:
        median = self.median_seconds
        return {
            "workload": self.profile.workload,
            "variant": self.profile.variant,
            "instructions": self.instructions,
            "epochs": self.epochs,
            "epi_per_1000": round(self.epi_per_1000, 9),
            "median_seconds": median,
            "min_seconds": min(self.seconds),
            "instructions_per_sec": self.instructions / median,
            "epochs_per_sec": self.epochs / median,
        }


def _geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _bench_workbench() -> Workbench:
    """A cache-less Workbench at the harness's fixed sizing."""
    return Workbench(
        ExperimentSettings(
            warmup=BENCH_WARMUP,
            measure=BENCH_MEASURE,
            seed=BENCH_SEED,
            calibrate=False,
        ),
        cache_dir=None,
    )


def _timed(run_once, reps: int, warmup_reps: int):
    """``(seconds, last result)`` of *reps* timed calls after
    *warmup_reps* untimed ones, with the garbage collector paused."""
    for _ in range(warmup_reps):
        run_once()
    seconds: List[float] = []
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(reps):
            start = time.perf_counter()
            result = run_once()
            seconds.append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return seconds, result


def _check_reps(reps: int, warmup_reps: int) -> None:
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if warmup_reps < 0:
        raise ValueError("warmup_reps must be non-negative")


def _backend_runner(backend: str, config, annotated):
    """A zero-arg callable executing one simulation on *backend*.

    The empty name and ``"reference"`` keep the pre-backend measurement
    loop byte-identical (one reused :class:`MlpSimulator`); other names go
    through :func:`repro.core.backend.resolve_backend`; the ``event``
    backend keeps its skip tables on the trace, so warmup repetitions
    absorb the one-time table build exactly like a long-lived sweep does.
    """
    if not backend or backend == "reference":
        simulator = MlpSimulator(config)
        return lambda: simulator.run(annotated)
    from ..core.backend import resolve_backend

    chosen = resolve_backend(backend)
    return lambda: chosen.simulate(config, annotated)


def run_core_bench(
    reps: int = 5,
    warmup_reps: int = 2,
    profiles: Sequence[BenchProfile] = DEFAULT_PROFILES,
    verbose: bool = False,
    backend: str = "",
) -> Dict[str, Any]:
    """Measure the core simulation loop and return the report dict.

    *reps* timed repetitions per profile (median reported) after
    *warmup_reps* untimed ones.  The annotated traces are built through a
    cache-less Workbench at the harness's fixed sizing, so the numbers are
    a pure function of the code under test and the host machine.
    *backend* measures a specific execution backend; the default keeps the
    historical reference-loop measurement.
    """
    _check_reps(reps, warmup_reps)
    bench = _bench_workbench()
    measurements: List[_ProfileMeasurement] = []
    for profile in profiles:
        annotated = bench.annotated(profile.workload, profile.variant)
        config = bench.simulation_config(
            profile.workload, **profile.config_kwargs()
        )
        if profile.variant.startswith("wc"):
            from ..config import ConsistencyModel

            config = config.with_core(consistency=ConsistencyModel.WC)
        run_once = _backend_runner(backend, config, annotated)
        measurement = _ProfileMeasurement(profile=profile)
        measurement.seconds, result = _timed(run_once, reps, warmup_reps)
        measurement.instructions = result.instructions
        measurement.epochs = result.epoch_count
        measurement.epi_per_1000 = result.epi_per_1000
        measurements.append(measurement)
        if verbose:
            row = measurement.to_dict()
            print(
                f"  {profile.name:20s} "
                f"{row['instructions_per_sec']:12.0f} insts/s "
                f"{row['epochs_per_sec']:10.1f} epochs/s "
                f"(median of {reps}: {row['median_seconds'] * 1e3:.2f} ms)"
            )

    per_profile = {m.profile.name: m.to_dict() for m in measurements}
    settings: Dict[str, Any] = {
        "warmup": BENCH_WARMUP,
        "measure": BENCH_MEASURE,
        "seed": BENCH_SEED,
        "reps": reps,
        "warmup_reps": warmup_reps,
    }
    if backend:
        settings["backend"] = backend
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": "mlpsim-core",
        "settings": settings,
        "python": platform.python_version(),
        "profiles": per_profile,
        "aggregate": {
            "instructions_per_sec_geomean": _geomean(
                [row["instructions_per_sec"] for row in per_profile.values()]
            ),
            "epochs_per_sec_geomean": _geomean(
                [row["epochs_per_sec"] for row in per_profile.values()]
            ),
        },
    }


def run_stage_bench(
    reps: int = 5,
    warmup_reps: int = 2,
    profiles: Sequence[BenchProfile] = DEFAULT_PROFILES,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Measure trace generation and annotation, the cold-run stages.

    Per profile, *generate* builds its workload's trace from scratch and
    *annotate* classifies the profile's trace variant through a fresh
    default memory system and branch predictor, as a Workbench does.
    Returns ``{"profiles": {name: row}, "aggregate": geomeans}``.
    """
    _check_reps(reps, warmup_reps)
    bench = _bench_workbench()
    total = BENCH_WARMUP + BENCH_MEASURE
    branch = SimulationConfig().core.branch
    rows: Dict[str, Dict[str, Any]] = {}
    for profile in profiles:
        workload = bench.profile(profile.workload)
        trace = bench.trace(profile.workload, profile.variant)
        generate, _ = _timed(
            lambda: WorkloadGenerator(workload, BENCH_SEED).generate(total),
            reps, warmup_reps,
        )
        annotate, _ = _timed(
            lambda: annotate_trace(
                trace, MemorySystem(MemoryConfig()),
                predictor=BranchPredictor(branch), warmup=BENCH_WARMUP,
            ),
            reps, warmup_reps,
        )
        row = rows[profile.name] = {
            "generate_insts_per_sec": total / statistics.median(generate),
            "annotate_insts_per_sec": len(trace) / statistics.median(annotate),
        }
        if verbose:
            print(
                f"  {profile.name:20s} "
                f"{row['generate_insts_per_sec']:12.0f} generated/s "
                f"{row['annotate_insts_per_sec']:12.0f} annotated/s"
            )
    return {
        "profiles": rows,
        "aggregate": {
            f"{metric}_geomean": _geomean(
                [row[metric] for row in rows.values()]
            )
            for metric in STAGE_METRICS
        },
    }


def run_backend_bench(
    reps: int = 5,
    warmup_reps: int = 2,
    backends: Optional[Sequence[str]] = None,
    profiles: Sequence[BenchProfile] = DEFAULT_PROFILES,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Measure every execution backend over the tracked profile set.

    Runs :func:`run_core_bench` once per backend (defaulting to every
    registered backend) and reports per-backend profiles/aggregates plus
    geomean speedups relative to the ``reference`` section.
    """
    from ..core.backend import backend_names

    if backends is None:
        backends = sorted(backend_names(), key=lambda n: (n != "reference", n))
    sections: Dict[str, Dict[str, Any]] = {}
    for name in backends:
        if verbose:
            print(f"backend {name}:")
        report = run_core_bench(
            reps=reps, warmup_reps=warmup_reps, profiles=profiles,
            verbose=verbose, backend=name,
        )
        sections[name] = {
            "profiles": report["profiles"],
            "aggregate": report["aggregate"],
        }
    reference = sections.get("reference", {})
    ref_geo = reference.get("aggregate", {}).get(
        "instructions_per_sec_geomean"
    )
    speedups = {
        name: section["aggregate"]["instructions_per_sec_geomean"] / ref_geo
        for name, section in sections.items()
    } if ref_geo else {}
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": "mlpsim-backends",
        "settings": {
            "warmup": BENCH_WARMUP,
            "measure": BENCH_MEASURE,
            "seed": BENCH_SEED,
            "reps": reps,
            "warmup_reps": warmup_reps,
        },
        "python": platform.python_version(),
        "backends": sections,
        "speedup_vs_reference_geomean": speedups,
    }


def check_backends_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.20,
) -> List[str]:
    """The per-backend analogue of :func:`check_regression`.

    Each backend section carries the same ``profiles``/``aggregate`` shape
    as a core-bench report, so the per-profile and geomean thresholds are
    applied within every backend present in both reports.  Backends in only
    one report are ignored.
    """
    failures: List[str] = []
    for name, base_section in baseline.get("backends", {}).items():
        cur_section = current.get("backends", {}).get(name)
        if cur_section is None:
            continue
        failures.extend(
            f"{name}/{failure}"
            for failure in check_regression(
                cur_section, base_section, max_regression=max_regression,
            )
        )
    return failures


def write_report(report: Dict[str, Any], path: str | Path) -> Path:
    """Write *report* as stable, diff-friendly JSON; returns the path."""
    target = Path(path)
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return target


def load_report(path: str | Path) -> Dict[str, Any]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or (
        "profiles" not in data and "backends" not in data
    ):
        raise ValueError(f"{path} is not a perf-bench report")
    return data


def _rate_failure(
    label: str, current: float, base: float, max_regression: float,
) -> List[str]:
    """One failure if *current* is more than *max_regression* below *base*."""
    if current >= base * (1.0 - max_regression):
        return []
    return [
        f"{label}: {current:.0f} insts/s is "
        f"{100 * (1 - current / base):.1f}% below the committed "
        f"baseline ({base:.0f} insts/s; allowed "
        f"{100 * max_regression:.0f}%)"
    ]


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.20,
) -> List[str]:
    """Compare *current* against a committed *baseline* report.

    Returns a list of human-readable failures: one per profile whose
    simulator instructions/sec fell more than *max_regression* below the
    baseline, plus one for the geometric mean, and the same for each
    stage rate in ``stages`` (generate and annotate).  An empty list means
    the run passed.  Profiles, and a ``stages`` section, present in only
    one report are ignored (the tracked set may grow over time).
    """
    if not 0.0 < max_regression < 1.0:
        raise ValueError("max_regression must be in (0, 1)")
    failures: List[str] = []
    for name, base_row in baseline.get("profiles", {}).items():
        cur_row = current.get("profiles", {}).get(name)
        if cur_row is None:
            continue
        failures += _rate_failure(
            name, cur_row["instructions_per_sec"],
            base_row["instructions_per_sec"], max_regression,
        )
    base_geo = baseline.get("aggregate", {}).get(
        "instructions_per_sec_geomean"
    )
    cur_geo = current.get("aggregate", {}).get("instructions_per_sec_geomean")
    if base_geo and cur_geo:
        failures += _rate_failure("geomean", cur_geo, base_geo, max_regression)
    base_stages = baseline.get("stages", {})
    cur_stages = current.get("stages", {})
    for name, base_row in base_stages.get("profiles", {}).items():
        cur_row = cur_stages.get("profiles", {}).get(name)
        if cur_row is None:
            continue
        for metric in STAGE_METRICS:
            failures += _rate_failure(
                f"{name} {metric}", cur_row[metric], base_row[metric],
                max_regression,
            )
    for metric in STAGE_METRICS:
        key = f"{metric}_geomean"
        base_geo = base_stages.get("aggregate", {}).get(key)
        cur_geo = cur_stages.get("aggregate", {}).get(key)
        if base_geo and cur_geo:
            failures += _rate_failure(key, cur_geo, base_geo, max_regression)
    return failures


def _backends_main(
    reps: int,
    warmup_reps: int,
    out: Optional[str],
    baseline: Optional[str],
    max_regression: float,
) -> int:
    """``mlpsim bench --perf --backend all``: the backend matrix report."""
    print(
        f"mlpsim backend bench: {BENCH_MEASURE} measured instructions, "
        f"seed {BENCH_SEED}, median of {reps} (+{warmup_reps} warmup)"
    )
    report = run_backend_bench(
        reps=reps, warmup_reps=warmup_reps, verbose=True,
    )
    for name, speedup in sorted(
        report["speedup_vs_reference_geomean"].items()
    ):
        geo = report["backends"][name]["aggregate"][
            "instructions_per_sec_geomean"
        ]
        print(
            f"  {name:12s} geomean {geo:12.0f} insts/s "
            f"({speedup:.2f}x vs reference)"
        )

    if baseline is not None:
        committed = load_report(baseline)
        failures = check_backends_regression(
            report, committed, max_regression=max_regression,
        )
        if failures:
            print("PERF REGRESSION:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(
            f"  regression gate ok (tolerance {100 * max_regression:.0f}%)"
        )

    if out is not None:
        write_report(report, out)
        print(f"  wrote {out}")
    return 0


def main(
    reps: int = 5,
    warmup_reps: int = 2,
    out: Optional[str] = None,
    baseline: Optional[str] = None,
    max_regression: float = 0.20,
    keep_baseline: bool = True,
    backend: Optional[str] = None,
) -> int:
    """Drive one measurement: print, optionally persist and gate.

    When *out* names an existing report carrying a ``baseline`` section
    (the committed pre-optimization numbers), that section is preserved in
    the rewritten file (*keep_baseline*) so the speedup trail survives
    re-measurement.  *baseline* enables the regression gate against a
    committed report; a failure returns exit status 1.

    *backend* measures a single named execution backend, or ``"all"`` for
    the full backend comparison (written/gated as ``BENCH_backends.json``).
    """
    if backend == "all":
        return _backends_main(
            reps, warmup_reps, out, baseline, max_regression,
        )
    tag = f" [{backend}]" if backend else ""
    print(
        f"mlpsim core bench{tag}: {BENCH_MEASURE} measured instructions, "
        f"seed {BENCH_SEED}, median of {reps} (+{warmup_reps} warmup)"
    )
    report = run_core_bench(
        reps=reps, warmup_reps=warmup_reps, verbose=True,
        backend=backend or "",
    )
    geo = report["aggregate"]["instructions_per_sec_geomean"]
    print(f"  geomean: {geo:.0f} instructions/sec")
    print("stages (trace generation, annotation):")
    report["stages"] = run_stage_bench(
        reps=reps, warmup_reps=warmup_reps, verbose=True,
    )
    stage_geo = report["stages"]["aggregate"]
    print(
        f"  geomean: {stage_geo['generate_insts_per_sec_geomean']:.0f} "
        f"generated/s, {stage_geo['annotate_insts_per_sec_geomean']:.0f} "
        f"annotated/s"
    )

    if baseline is not None:
        committed = load_report(baseline)
        reference = committed
        base_geo = reference.get("aggregate", {}).get(
            "instructions_per_sec_geomean"
        )
        if base_geo:
            print(
                f"  vs committed {baseline}: {geo / base_geo:.2f}x geomean"
            )
        failures = check_regression(
            report, reference, max_regression=max_regression
        )
        if failures:
            print("PERF REGRESSION:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(
            f"  regression gate ok (tolerance "
            f"{100 * max_regression:.0f}%)"
        )

    if out is not None:
        out_path = Path(out)
        if keep_baseline and out_path.exists():
            try:
                previous = load_report(out_path)
            except (ValueError, json.JSONDecodeError):
                previous = {}
            if "baseline" in previous:
                report["baseline"] = previous["baseline"]
                base_geo = report["baseline"]["aggregate"][
                    "instructions_per_sec_geomean"
                ]
                report["speedup_vs_baseline"] = geo / base_geo
        write_report(report, out_path)
        print(f"  wrote {out_path}")
    return 0
