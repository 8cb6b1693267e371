"""Derived data lives with its annotated trace.

An :class:`AnnotatedTrace` owns what is derived from it alone — the event
backend's skip tables — so they are built once per trace per process,
never travel in a pickle or a slice, and are freed with the trace.
"""

from __future__ import annotations

import pickle
import sys
import threading
from collections import Counter

import pytest

from repro.config import SimulationConfig
from repro.core.backend import resolve_backend
from repro.core.backends import events
from repro.engine.runner import EngineRunner, JobSpec, ShardedReport
from repro.fleet import FleetCoordinator, FleetWorker
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.memory.annotate import AnnotatedTrace
from repro.service.client import ServiceClient
from repro.trace.annotated import (
    Annotation,
    decode_annotation,
    encode_annotation,
)

SMALL = ExperimentSettings(warmup=1500, measure=4000, seed=11,
                           calibrate=False)

#: Both ``database`` and ``specjbb`` offer a quiescent cut at this sizing
#: (``specjbb`` has none at SMALL's), so every job below runs two shards
#: once its first run has recorded where to cut.
SHARDABLE = ExperimentSettings(warmup=1500, measure=8000, seed=11,
                               calibrate=False)

#: 2-shard jobs alternating workloads, each at its own store buffer size.
JOBS = [
    ("database", 8), ("specjbb", 8), ("database", 16), ("specjbb", 16),
    ("database", 32), ("specjbb", 32),
]


@pytest.fixture(scope="module")
def bench():
    return Workbench(SMALL, cache_dir=None)


@pytest.fixture(scope="module")
def trace(bench):
    return bench.annotated("database", "pc")


@pytest.fixture
def builds(monkeypatch):
    """Every trace ``build_skip_tables`` is called on, in call order (the
    list keeps them alive, so their ids stay distinct)."""
    seen = []
    real = events.build_skip_tables

    def counting(trace):
        seen.append(trace)
        return real(trace)

    monkeypatch.setattr(events, "build_skip_tables", counting)
    return seen


def _built_once_each(seen):
    counts = Counter(id(trace) for trace in seen)
    assert counts and set(counts.values()) == {1}, counts


class TestListType:
    def test_annotation_and_decode_return_annotated_traces(self, bench,
                                                           trace):
        assert type(trace) is AnnotatedTrace
        annotation = Annotation(trace, bench.memory_for("database", "pc"))
        decoded = decode_annotation(encode_annotation(annotation)).trace
        assert type(decoded) is AnnotatedTrace
        assert decoded == trace
        assert decoded.skip_tables is None

    def test_pickle_carries_no_derived_data(self, trace):
        resolve_backend("event").simulate(SimulationConfig(), trace)
        assert trace.skip_tables is not None
        # The pickle is that of the same pairs with nothing derived, and
        # the plain list's plus the class reference (the memo indices it
        # shifts can cost a few bytes more): the tables alone hold three
        # entries per instruction.
        pickled = pickle.dumps(trace)
        assert len(pickled) == len(pickle.dumps(AnnotatedTrace(trace)))
        assert 0 < len(pickled) - len(pickle.dumps(list(trace))) < 100
        copy = pickle.loads(pickled)
        assert type(copy) is AnnotatedTrace and copy == trace
        assert copy.skip_tables is None

    def test_slice_inherits_nothing(self, trace):
        resolve_backend("event").simulate(SimulationConfig(), trace)
        part = trace[100:]
        assert type(part) is list
        assert not hasattr(part, "skip_tables")

    def test_concurrent_first_use_builds_valid_tables(self, trace):
        # Threads racing to build one trace's tables may each build them;
        # whichever assignment wins, every run sees complete tables.
        fresh = AnnotatedTrace(trace[:3000])
        config = SimulationConfig()
        golden = resolve_backend("reference").simulate(config, fresh)
        results = [None] * 8

        def run(index):
            results[index] = resolve_backend("event").simulate(config, fresh)

        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(result == golden for result in results)
        assert fresh.skip_tables.n == len(fresh)

    def test_event_backend_accepts_a_plain_list(self, trace):
        config = SimulationConfig()
        assert (resolve_backend("event").simulate(config, list(trace))
                == resolve_backend("reference").simulate(config, trace))


class TestOneBuildPerTrace:
    def test_engine_serial_path(self, tmp_path, builds):
        runner = EngineRunner(settings=SHARDABLE,
                              cache_dir=tmp_path / "cache", workers=1)
        for workload, store_buffer in JOBS:
            spec = JobSpec(
                workload=workload,
                core_changes=(("store_buffer", store_buffer),),
            )
            runner.run_sharded(spec, 2).raise_on_failure()  # records
            report = runner.run_sharded(spec, 2)
            report.raise_on_failure()
            assert len(report.jobs) == 2
        _built_once_each(builds)
        assert len(builds) == 2  # one trace per workload

    def test_in_process_fleet_worker(self, tmp_path, builds):
        # The coordinator reads the recorded cuts from the shared store.
        coordinator = FleetCoordinator(
            port=0, settings=SHARDABLE, cache_dir=str(tmp_path / "cache"),
            lease_ttl=1.0,
        ).start()
        worker = FleetWorker(coordinator.url, name="w0",
                             lease_wait=1.0).join()
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            client = ServiceClient(coordinator.url)
            for workload, store_buffer in JOBS:
                # The first run records on the table-less reference
                # backend; the second splits on the event backend.
                for backend, shards in (("reference", 1), ("event", 2)):
                    receipt = client.submit({
                        "kind": "simulate", "shards": 2, "backend": backend,
                        "job": {"workload": workload,
                                "core_changes": {
                                    "store_buffer": store_buffer}},
                    })
                    status = client.wait(receipt["id"], timeout=120)
                    assert status["state"] == "done", status
                    report = ShardedReport.from_dict(
                        status["result"]["report"],
                    )
                    assert len(report.jobs) == shards
        finally:
            coordinator.begin_drain()
            worker.request_stop()
            thread.join(timeout=15.0)
            coordinator.stop()
        # Only the worker holds the traces: one build each.
        _built_once_each(builds)
        assert len(builds) == 2
