"""Executes the job requests a fleet worker runs whole.

Sweeps and simulates never reach this module: the coordinator expands
them into engine-level tasks (grid points, shards) that workers run
through their :class:`~repro.engine.runner.EngineRunner`, and ``estimate``
is pure arithmetic answered on the submit path (:func:`estimate_payload`).
What is left are the requests that cannot be split into independent
specs — a figure driver runs serially against one warm bench, a tune is a
sequence of ask/tell generations — so the coordinator leases each as a
single task carrying the parsed :class:`JobRequest`, and the worker that
leases it calls :meth:`ServiceEngine.execute`.

One :class:`ServiceEngine` lives per worker.  It shares the worker's
runner and owns one :class:`~repro.harness.experiment.Workbench` on the
same cache directory, on which figure requests run their drivers against
artifacts the runner pre-warmed in parallel.

Results are plain-JSON payloads: figures carry a human-readable nested
dict, tunes the serialized :class:`~repro.tune.TuneResult`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict

from ..engine.cache import ArtifactCache, resolve_cache_dir
from ..engine.runner import EngineRunner, JobSpec
from ..harness.experiment import Workbench
from ..harness.figures import (
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
)
from ..obs.metrics import MetricsRegistry
from ..tune import TuneTelemetry, run_tune
from .protocol import JobRequest, ProtocolError, jsonify

__all__ = ["ServiceEngine", "estimate_payload"]


def estimate_payload(request: JobRequest) -> Dict[str, Any]:
    """The ``estimate`` verb's result payload: pure arithmetic, no engine
    batch, no trace read — the coordinator resolves estimates inline,
    without workers."""
    from .. import estimate as estimate_mod
    from ..engine import serialize

    assert request.job is not None
    guess = estimate_mod.estimate(request.job)
    return {
        "kind": "estimate",
        "estimate": serialize.to_jsonable(guess),
        "summary": guess.summary(),
        "predicted_epi_per_1000": guess.predicted_epi_per_1000,
    }

_FIGURE_DRIVERS = {
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
}

#: Figures that also need the weak-consistency trace variant warmed.
_WC_FIGURES = frozenset({"figure7", "figure8"})


class ServiceEngine:
    """Runs figure and tune requests on one worker's runner and cache."""

    def __init__(self, runner: EngineRunner) -> None:
        self.runner = runner
        self.settings = runner.settings
        self.artifacts = ArtifactCache(resolve_cache_dir(runner.cache_dir))
        # Figure drivers (and their in-process annotations) share one
        # artifact cache object, so a figure run right after another starts
        # from warm memory, not just warm disk.
        self.bench = Workbench(self.settings, artifacts=self.artifacts)
        # Tuning runs through the same runner/cache; its counters live for
        # the worker's lifetime so /metrics sees totals across requests.
        self.tune_telemetry = TuneTelemetry()

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Expose engine batch/job activity, simulation aggregates and
        tuning counters on *registry*."""
        self.runner.telemetry.register_metrics(
            registry, workers=self.runner.workers,
        )
        self.tune_telemetry.register_metrics(registry)

    # ------------------------------------------------------------ execute --

    def execute(self, request: JobRequest) -> Dict[str, Any]:
        """Run one figure or tune request to completion, returning its
        JSON payload."""
        if request.kind == "figure":
            return self._execute_figure(request)
        if request.kind == "tune":
            return self._execute_tune(request)
        raise ProtocolError(
            f"{request.kind!r} jobs run as engine tasks, not whole requests"
        )

    def _execute_tune(self, request: JobRequest) -> Dict[str, Any]:
        """A design-space search through the worker's runner and cache.

        The run shares the fleet's artifact cache, so identical
        (workload, variant, candidate, settings) evaluations across tune
        requests — or against earlier sweeps' tuning runs — are measured
        once; tuning state persists in the same cache, so a cancelled
        request resubmitted later resumes.
        """
        assert request.tune is not None
        spec = request.tune
        if request.backend:
            spec = replace(spec, backend=request.backend)
        result = run_tune(
            spec,
            runner=self.runner,
            cache=self.artifacts,
            telemetry=self.tune_telemetry,
        )
        return {
            "kind": "tune",
            "spec": spec.to_dict(),
            "tune_result": result.to_dict(),
            "summary": result.summary(),
            "best": {
                "epi_per_1000": result.best_epi_per_1000,
                "knobs": {
                    name: getattr(value, "value", value)
                    for name, value in result.best
                },
            },
        }

    def _execute_figure(self, request: JobRequest) -> Dict[str, Any]:
        driver = _FIGURE_DRIVERS[request.figure]
        variants = ["pc"]
        if request.figure in _WC_FIGURES:
            variants.append("wc")
        # Warm phase: fan the expensive annotations across the runner's
        # workers; the driver then runs serially against a warm cache.
        warm = [
            JobSpec(workload=workload, variant=variant, action="annotate")
            for workload in request.workloads
            for variant in variants
        ]
        warm_report = self.runner.run(warm)
        data = driver(self.bench, list(request.workloads))
        return {
            "kind": "figure",
            "figure": request.figure,
            "workloads": list(request.workloads),
            "warm_summary": warm_report.summary(),
            "data": jsonify(data),
        }
