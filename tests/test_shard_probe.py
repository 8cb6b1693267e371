"""Recorded quiescent logs are backend-independent.

Shard planning picks cuts from the quiescent epoch boundaries a job's
first, whole-trace shard logs as it runs.  That shard may run on any
execution backend, and the record is keyed without it, so every backend
must log exactly the reference oracle's ``(pos, cur)`` points — and
therefore yield the same cuts — on every workload, consistency variant
and store-side configuration that changes where the machine drains.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import ScoutMode, StorePrefetchMode
from repro.core import MlpSimulator
from repro.core.backend import BACKEND_ENV_VAR, backend_names, resolve_backend
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.engine.runner import JobSpec
from repro.shard.execute import run_shard_job, shard_plan_for
from repro.shard.plan import build_plan
from repro.workloads import WORKLOADS

#: Quiescent boundaries are rare (a few per thousand instructions), so
#: the traces are long enough for several per trace and configuration.
SIZING = ExperimentSettings(warmup=1000, measure=20000, seed=7,
                            calibrate=False)

#: Store-side settings that move quiescent boundaries: prefetch off/on,
#: a tight and a huge store queue, scout off and the paper's HWS2.
CONFIGS = [
    {"store_prefetch": prefetch, "store_queue": queue, "scout": scout}
    for prefetch in (StorePrefetchMode.NONE, StorePrefetchMode.AT_EXECUTE)
    for queue in (16, 256)
    for scout in (ScoutMode.NONE, ScoutMode.HWS2)
]


@pytest.fixture(autouse=True)
def _clear_backend_env(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def bench():
    return Workbench(SIZING)


@pytest.mark.parametrize("variant", ["pc", "wc"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_backend_probes_the_reference_points(bench, workload, variant):
    trace = bench.annotated(workload, variant)
    probed = 0
    for changes in CONFIGS:
        config = bench.resolved_config(workload, variant, **changes)
        golden = []
        MlpSimulator(config).run(trace, quiescent_log=golden)
        probed += bool(golden)
        # What a job's first, whole-trace shard records, on whichever
        # backend it defaults to.
        spec = JobSpec(workload=workload, variant=variant,
                       core_changes=tuple(sorted(changes.items())))
        run_shard_job(bench, dataclasses.replace(spec, shard_start=0))
        for shards in (2, 3, 4):
            assert (
                shard_plan_for(bench.artifacts, bench.settings, spec, shards)
                == build_plan(len(trace), golden, shards)
            )
        for name in backend_names():
            log = []
            resolve_backend(name).simulate(config, trace, quiescent_log=log)
            assert log == golden, (
                f"backend {name!r} probed other points on "
                f"{workload}/{variant} {changes}"
            )
            for shards in (2, 3, 4):
                assert (
                    build_plan(len(trace), log, shards).cuts
                    == build_plan(len(trace), golden, shards).cuts
                )
    # TPC-W keeps its store side busy: its traces drain nowhere at this
    # length and plan to a single shard, so only its empty log is compared.
    assert probed or workload == "tpcw"
