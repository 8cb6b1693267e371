"""The ECM-style analytical EPI model — the ``estimate`` verb.

One model, zero simulation:

- :func:`epochs_per_inst` — the base epochs-per-instruction prediction
  from published workload statistics.
- :func:`predicted_epi_per_1000` — the base model extended with
  per-knob sensitivity scales (store prefetch, SB/SQ sizing, coalescing,
  consistency, SLE, scouting, window sizing), calibrated gentle (see the
  docstring below).
- :func:`estimate` — the user-facing verb behind ``api.estimate``,
  ``mlpsim estimate`` and the service ``estimate`` job kind.  It anchors
  the model's arbitrary unit to measured EPI with per-workload
  calibration scales fitted once against the golden-fixture runs
  (default config, ``warmup=3000 measure=9000 seed=13 calibrate=False``
  — the settings ``tests/test_golden_window.py`` pins), and returns a
  full :class:`EpiEstimate` in well under a millisecond.

Accuracy contract: at the anchor point (default config on a golden
fixture) the calibrated estimate reproduces measured EPI exactly by
construction; away from it the knob scales are trend-calibrated, so the
documented validation margin is :data:`VALIDATION_MARGIN` (25%) for
single-knob excursions on the committed fixtures —
``tests/test_estimate.py`` and the CI sanity gate enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Tuple

from .config import ConsistencyModel, CoreConfig, ScoutMode, StorePrefetchMode
from .engine import serialize
from .workloads import WORKLOADS, WorkloadProfile

__all__ = [
    "VALIDATION_MARGIN",
    "EpiEstimate",
    "epochs_per_inst",
    "estimate",
    "predicted_epi_per_1000",
]

#: Documented accuracy bound of the calibrated estimate vs measured EPI
#: on the golden fixtures (default config and single-knob excursions).
VALIDATION_MARGIN = 0.25

#: Per-workload anchors tying the model's arbitrary unit to measured
#: EPI/1000: ``measured / model`` at the golden-fixture settings
#: (default core config, pc variant).  Workloads without an anchor (a
#: custom profile) report the raw model value with scale 1.0.
_CALIBRATION = {
    "database": 11.830469618,
    "tpcw": 6.298723077,
    "specjbb": 5.171513741,
    "specweb": 5.286004341,
}

# ---------------------------------------------------------------- base --


def epochs_per_inst(profile: WorkloadProfile) -> float:
    """Predicted epochs per instruction from profile statistics.

    Serializing instructions (locks/membars) each close an epoch;
    clustered store misses close roughly one epoch per burst.  Quiet
    phases stretch epochs (stores drain under computation), modelled by
    discounting the store term by the quiet fraction.
    """
    lock_epochs = profile.locks_per_1000 / 1000.0
    store_burst_epochs = (
        (profile.store_miss_per_100 / 100.0)
        / max(1.0, profile.store_burst_mean)
    ) * (1.0 - profile.quiet_fraction)
    return lock_epochs + store_burst_epochs


# ------------------------------------------------------- knob extension --

#: Scale on the whole epoch estimate per scout mode (hws2 also covers
#: SQ-full stalls, the paper's novel trigger — the largest discount).
#: Scouting on/off is the one knob whose measured effect is large (~30-40%
#: on the commercial profiles); the spread *between* scout modes is kept
#: small because measurement ranks them within a few percent of each
#: other.
_SCOUT_SCALE = {
    ScoutMode.NONE: 1.0,
    ScoutMode.HWS0: 0.76,
    ScoutMode.HWS1: 0.74,
    ScoutMode.HWS2: 0.72,
}

#: Scale on the store-burst epoch term per store-prefetch mode (measured
#: sp0 -> sp1 is ~6% of total EPI; sp2 adds little on these profiles).
_PREFETCH_SCALE = {
    StorePrefetchMode.NONE: 1.0,
    StorePrefetchMode.AT_RETIRE: 0.82,
    StorePrefetchMode.AT_EXECUTE: 0.76,
}


def predicted_epi_per_1000(
    profile: WorkloadProfile, knobs: Mapping[str, Any],
) -> float:
    """Analytically predicted EPI/1000 insts for *knobs* on *profile*.

    Knobs not present in *knobs* take their :class:`CoreConfig` defaults,
    so partial candidates (a space over two knobs) predict sensibly.

    Exponents and caps are deliberately gentle: measurement puts each
    sizing knob at a few percent of total EPI, so its predicted spread
    is kept to a few percent too (:func:`estimate` checks single-knob
    excursions against :data:`VALIDATION_MARGIN`).
    """
    defaults = CoreConfig()

    def knob(name: str) -> Any:
        return knobs.get(name, getattr(defaults, name))

    lock = profile.locks_per_1000 / 1000.0
    store = epochs_per_inst(profile) - lock

    store *= _PREFETCH_SCALE.get(knob("store_prefetch"), 1.0)
    sb = max(1, int(knob("store_buffer")))
    store *= min(1.25, (defaults.store_buffer / sb) ** 0.1)
    sq = max(1, int(knob("store_queue")))
    store *= min(1.15, (defaults.store_queue / sq) ** 0.05)
    cb = int(knob("coalesce_bytes"))
    if cb == 0:
        store *= 1.1
    else:
        store *= min(1.15, (defaults.coalesce_bytes / cb) ** 0.05)
    if bool(knob("perfect_stores")):
        store *= 0.6

    if knob("consistency") == ConsistencyModel.WC:
        lock *= 0.85
        store *= 0.95
    if bool(knob("sle")):
        lock *= 0.85
    if bool(knob("prefetch_past_serializing")):
        lock *= 0.9

    total = (lock + store) * _SCOUT_SCALE.get(knob("scout"), 1.0)
    rob = max(1, int(knob("rob")))
    total *= (defaults.rob / rob) ** 0.05
    window = max(1, int(knob("issue_window")))
    total *= (defaults.issue_window / window) ** 0.02
    return 1000.0 * total


# ------------------------------------------------------------- the verb --


@dataclass(frozen=True)
class EpiEstimate:
    """One analytical EPI prediction — no trace read, no simulation run."""

    workload: str
    variant: str
    #: Calibrated prediction in the simulator's figure unit.
    predicted_epi_per_1000: float
    #: Raw model output before the per-workload anchor scale.
    model_epi_per_1000: float
    #: The anchor scale applied (1.0 for unanchored custom profiles).
    calibration_scale: float
    knobs: Tuple[Tuple[str, Any], ...] = ()
    contexts: int = 1

    def summary(self) -> str:
        knobs = " ".join(
            f"{name}={getattr(value, 'value', value)}"
            for name, value in self.knobs
        )
        return (
            f"estimate {self.workload} [{self.variant}] "
            f"EPI/1000={self.predicted_epi_per_1000:.3f} "
            f"(model={self.model_epi_per_1000:.3f} "
            f"x{self.calibration_scale:.2f}"
            + (f", contexts={self.contexts}" if self.contexts > 1 else "")
            + (f", {knobs}" if knobs else "")
            + ")"
        )


def _variant_knobs(variant: str, knobs: dict) -> dict:
    """Fold the lock-idiom variant into the knob dict the model reads."""
    folded = dict(knobs)
    if variant.startswith("wc"):
        folded.setdefault("consistency", ConsistencyModel.WC)
    if variant.endswith("_sle"):
        folded.setdefault("sle", True)
    return folded


def estimate(spec: Any = None, /, **kwargs: Any) -> EpiEstimate:
    """Predict EPI for a job spec analytically — the ``estimate`` verb.

    *spec* is anything :meth:`repro.engine.runner.JobSpec.coerce`
    accepts: a workload name, a mapping (``{"workload": "database",
    "core_changes": {...}, "contexts": 2}``) or a ``JobSpec``; keyword
    arguments build or extend the mapping form directly — job fields
    (``variant=``, ``contexts=``, ``scheduler=``...) land on the spec,
    anything else (``scout="hws2"``, ``store_queue=64``...) is a core
    knob.  Multi-context specs average the per-context component
    predictions (every context runs the same instruction count, so the
    aggregate EPI is the mean).
    """
    import dataclasses as _dc

    from .engine.runner import JobSpec

    if isinstance(spec, str):
        kwargs.setdefault("workload", spec)
        spec = None
    if spec is None:
        field_names = {f.name for f in _dc.fields(JobSpec)}
        knobs_kw = dict(kwargs.pop("core_changes", {}))
        for name in list(kwargs):
            if name not in field_names:
                knobs_kw[name] = kwargs.pop(name)
        if knobs_kw:
            kwargs["core_changes"] = knobs_kw
        spec = kwargs
    elif kwargs:
        raise ValueError("pass either a spec or keyword fields, not both")
    job = JobSpec.coerce(spec)
    knobs = _variant_knobs(job.variant, dict(job.core_changes))
    from .workloads.mixes import resolve_mix

    contexts = max(1, job.contexts)
    assignments = resolve_mix(job.workload, contexts)
    model_total = 0.0
    calibrated_total = 0.0
    for name in assignments:
        profile = WORKLOADS[name]
        model = predicted_epi_per_1000(profile, knobs)
        scale = _CALIBRATION.get(name, 1.0)
        model_total += model
        calibrated_total += model * scale
    count = len(assignments)
    model_mean = model_total / count
    calibrated_mean = calibrated_total / count
    return EpiEstimate(
        workload=job.workload,
        variant=job.variant,
        predicted_epi_per_1000=calibrated_mean,
        model_epi_per_1000=model_mean,
        calibration_scale=(
            calibrated_mean / model_mean if model_mean else 1.0
        ),
        knobs=tuple(job.core_changes),
        contexts=contexts,
    )


serialize.register(EpiEstimate)
