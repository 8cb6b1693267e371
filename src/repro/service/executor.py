"""Executes the job requests a fleet worker runs whole.

Sweeps and simulates are not executed here: the coordinator expands
them into engine-level tasks (grid points, shards) that workers run
through their :class:`~repro.engine.runner.EngineRunner`, and ``estimate``
is pure arithmetic answered on the submit path (:func:`estimate_payload`).
This module only shapes the payloads the coordinator stores for them
(:func:`sweep_payload`, :func:`simulate_payload`, :func:`sharded_payload`),
so the result store's salt covers every stored payload's layout.
What is left is the figure request, which cannot be split into
independent specs — a figure driver runs serially against one warm bench
— so the coordinator leases each as a single task carrying the parsed
:class:`JobRequest`, and the worker that leases it calls
:meth:`ServiceEngine.execute`.

One :class:`ServiceEngine` lives per worker.  It shares the worker's
runner and owns one :class:`~repro.harness.experiment.Workbench` on the
same cache directory, on which figure requests run their drivers against
artifacts the runner pre-warmed in parallel.

Results are plain-JSON payloads: a figure carries a human-readable nested
dict.
"""

from __future__ import annotations

from typing import Any, Dict

from ..engine.cache import ArtifactCache, resolve_cache_dir
from ..engine.runner import EngineRunner, JobSpec, RunReport, ShardedReport
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
from ..harness.sweeps import SweepSpec
from .protocol import JobRequest, ProtocolError, jsonify

__all__ = [
    "ServiceEngine", "estimate_payload", "sharded_payload",
    "simulate_payload", "sweep_payload",
]


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


def sweep_payload(spec: SweepSpec, report: RunReport) -> Dict[str, Any]:
    """A finished sweep's result payload; ``records`` only when every
    point ran."""
    payload: Dict[str, Any] = {
        "kind": "sweep",
        "spec": spec.to_dict(),
        "report": report.to_dict(),
        "summary": report.summary(),
    }
    if not report.failed:
        payload["records"] = [
            {
                "workload": record.workload,
                "point": record.label(),
                "epi_per_1000": record.epi_per_1000,
                "mlp": record.mlp,
                "store_mlp": record.store_mlp,
                "store_bandwidth_overhead": record.store_bandwidth_overhead,
            }
            for record in spec.records(report)
        ]
    return payload


def simulate_payload(report: RunReport) -> Dict[str, Any]:
    """An unsharded simulate's result payload: the one job's report, and
    its result's summary when it ran."""
    payload: Dict[str, Any] = {
        "kind": "simulate",
        "report": report.to_dict(),
        "summary": report.summary(),
    }
    first = report.jobs[0]
    if first.ok and first.result is not None:
        payload["summary"] = first.result.summary()
    return payload


def sharded_payload(requested: int, report: ShardedReport) -> Dict[str, Any]:
    """A sharded simulate's result payload, summarised by its merged
    result."""
    assert report.merged is not None
    return {
        "kind": "simulate",
        "sharded": {
            "requested": requested,
            "shard_count": report.plan.shard_count,
            "plan": report.plan.describe(),
            "rounds": report.rounds,
        },
        "report": report.to_dict(),
        "summary": report.merged.summary(),
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
    """Runs figure requests on one worker's runner and cache."""

    def __init__(self, runner: EngineRunner) -> None:
        self.runner = runner
        # Figure drivers (and their in-process annotations) share one
        # artifact cache object, so a figure run right after another starts
        # from warm memory, not just warm disk.
        self.bench = Workbench(
            runner.settings,
            artifacts=ArtifactCache(resolve_cache_dir(runner.cache_dir)),
        )

    # ------------------------------------------------------------ execute --

    def execute(self, request: JobRequest) -> Dict[str, Any]:
        """Run one figure request to completion, returning its JSON
        payload."""
        if request.kind != "figure":
            raise ProtocolError(
                f"{request.kind!r} jobs run as engine tasks, not whole "
                f"requests"
            )
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
