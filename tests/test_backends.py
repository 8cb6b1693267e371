"""Pluggable execution backends: registry, gating, and bit-identity.

The contract under test is the strongest one the subsystem makes: every
backend returns a :class:`~repro.core.results.SimulationResult` that is
field-for-field equal to the reference tick loop — on curated workload
variants, on seeded random configurations over seeded random traces, and
under sharding.
"""

from __future__ import annotations

import random

import pytest

from conftest import annotated
from repro import api
from repro.config import (
    ConsistencyModel,
    CoreConfig,
    ScoutMode,
    SimulationConfig,
    StorePrefetchMode,
)
from repro.core import MlpSimulator
from repro.core.backend import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    Backend,
    backend_names,
    resolve_backend,
)
from repro.errors import UnknownBackendError
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.harness.figures import smac_memory_config
from repro.isa import InstructionClass as IC

TINY = ExperimentSettings(warmup=1000, measure=3000, seed=7,
                          calibrate=False)

#: Seeded so the sampled configurations and traces are stable run to run;
#: widen coverage by bumping the COUNTs, not by unseeding.
SEED = 20250807
CONFIG_COUNT = 6
TRACE_COUNT = 4


def _alternative_backends():
    return [name for name in backend_names() if name != "reference"]


@pytest.fixture(autouse=True)
def _clear_backend_env(monkeypatch):
    # The CI backend matrix runs the whole tier-1 subset under
    # REPRO_BACKEND; this suite drives selection explicitly, so ambient
    # values must not leak into its registry assertions.
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def bench():
    return Workbench(TINY)


# ---------------------------------------------------------------- registry --


class TestRegistry:
    def test_default_is_event(self):
        assert DEFAULT_BACKEND == "event"
        assert resolve_backend().name == "event"
        assert resolve_backend(None).name == "event"

    def test_builtins_registered(self):
        assert backend_names() == ("event", "reference")
        # Every registered backend is a name plus ``simulate``, and runs
        # a tiny trace to the reference answer.
        trace = [annotated(IC.ALU), annotated(IC.STORE, miss=True)]
        golden = MlpSimulator(SimulationConfig()).run(trace)
        for name in backend_names():
            backend = resolve_backend(name)
            assert isinstance(backend, Backend)
            assert backend.name == name
            assert backend.simulate(SimulationConfig(), trace) == golden

    def test_unknown_backend_is_structured(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            resolve_backend("evnet")
        assert excinfo.value.code == "backend-unknown"
        # The message must name the valid choices — it surfaces verbatim
        # in CLI and service error paths.
        for name in backend_names():
            assert name in str(excinfo.value)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "event")
        assert resolve_backend().name == "event"
        # An explicit name always beats the environment.
        assert resolve_backend("reference").name == "reference"

    def test_env_var_unknown_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        with pytest.raises(UnknownBackendError):
            resolve_backend()

    @pytest.mark.parametrize("consistency", list(ConsistencyModel))
    def test_a_finished_simulation_leaves_no_cyclic_garbage(
        self, bench, consistency,
    ):
        # A long-lived process (a fleet worker) runs simulation after
        # simulation.  A simulator caught in a reference cycle outlives its
        # run, with its trace and skip tables, until the cyclic collector
        # happens to run: the worker's memory then swings by hundreds of
        # MB.  Reference counting alone must free every simulator.
        import gc

        trace = bench.annotated("database", "pc")[:2000]
        config = SimulationConfig().with_core(consistency=consistency)
        gc.collect()
        gc.disable()
        try:
            for name in backend_names():
                resolve_backend(name).simulate(config, trace)
            assert gc.collect() == 0
        finally:
            gc.enable()


# ----------------------------------------------- workload-level differential --


def _config_samples():
    rng = random.Random(SEED)
    samples = []
    for _ in range(CONFIG_COUNT):
        samples.append({
            "variant": rng.choice(["pc", "wc"]),
            "smac_entries": rng.choice([None, 512]),
            "store_prefetch": rng.choice(list(StorePrefetchMode)),
            "scout": rng.choice(list(ScoutMode)),
            "sle": rng.choice([True, False]),
            "store_queue": rng.choice([16, 32, 64]),
            "coalesce_bytes": rng.choice([0, 8, 64]),
        })
    return samples


@pytest.mark.parametrize(
    "sample", _config_samples(),
    ids=lambda s: "-".join(
        [s["variant"], f"smac{s['smac_entries'] or 0}",
         s["store_prefetch"].value, s["scout"].value,
         f"sle{int(s['sle'])}", f"sq{s['store_queue']}",
         f"co{s['coalesce_bytes']}"]
    ),
)
def test_backends_bit_identical_on_workloads(bench, sample):
    memory = (
        smac_memory_config(sample["smac_entries"])
        if sample["smac_entries"] is not None else None
    )
    trace = bench.annotated("database", sample["variant"], memory)
    config = bench.resolved_config(
        "database", sample["variant"],
        store_prefetch=sample["store_prefetch"],
        scout=sample["scout"],
        sle=sample["sle"],
        store_queue=sample["store_queue"],
        coalesce_bytes=sample["coalesce_bytes"],
    )
    golden = MlpSimulator(config).run(trace)
    assert resolve_backend("reference").simulate(config, trace) == golden
    for name in _alternative_backends():
        assert resolve_backend(name).simulate(config, trace) == golden, (
            f"backend {name!r} diverged from reference"
        )


# ------------------------------------------------ random-trace differential --

_KINDS = (
    [IC.ALU] * 6 + [IC.NOP] + [IC.LOAD] * 4 + [IC.STORE] * 4
    + [IC.BRANCH] * 2 + [IC.CALL, IC.RETURN]
    + [IC.CAS, IC.MEMBAR, IC.LOAD_LOCKED, IC.STORE_COND,
       IC.ISYNC, IC.LWSYNC, IC.PREFETCH]
)


def _random_trace(rng: random.Random, length: int):
    trace = []
    for index in range(length):
        kind = rng.choice(_KINDS)
        memory_op = kind in (IC.LOAD, IC.STORE, IC.CAS, IC.LOAD_LOCKED,
                             IC.STORE_COND, IC.PREFETCH)
        smac = memory_op and rng.random() < 0.05
        trace.append(annotated(
            kind,
            miss=memory_op and rng.random() < 0.15,
            imiss=rng.random() < 0.03,
            smac=smac,
            mispred=kind in (IC.BRANCH, IC.CALL, IC.RETURN)
            and rng.random() < 0.2,
            pc=0x1000 + 4 * index,
            address=rng.randrange(64) * 64 if memory_op else 0,
            dest=rng.randrange(32) if rng.random() < 0.5 else -1,
            srcs=tuple(rng.sample(range(32), rng.randrange(3))),
            lock_release=kind is IC.STORE and rng.random() < 0.05,
        ))
    return trace


def _random_config(rng: random.Random) -> SimulationConfig:
    return SimulationConfig(core=CoreConfig(
        store_buffer=rng.choice([1, 2, 8, 32]),
        store_queue=rng.choice([1, 2, 8, 32]),
        coalesce_bytes=rng.choice([0, 8, 64]),
        store_prefetch=rng.choice(list(StorePrefetchMode)),
        consistency=rng.choice(list(ConsistencyModel)),
        scout=rng.choice(list(ScoutMode)),
        sle=rng.choice([True, False]),
        prefetch_past_serializing=rng.choice([True, False]),
        perfect_stores=rng.random() < 0.1,
    ))


@pytest.mark.parametrize("trial", range(TRACE_COUNT))
def test_backends_bit_identical_on_random_traces(trial):
    rng = random.Random(SEED + trial)
    trace = _random_trace(rng, 600)
    config = _random_config(rng)
    golden = MlpSimulator(config).run(trace)
    for name in _alternative_backends():
        assert resolve_backend(name).simulate(config, trace) == golden, (
            f"backend {name!r} diverged on trial {trial} "
            f"(config {config.core})"
        )


# -------------------------------------------------------------- sharding --


class TestSharded:
    @pytest.mark.parametrize("name", _alternative_backends())
    def test_sharded_run_matches_unsharded_reference(self, name):
        golden = api.run("database", settings=TINY, cache_dir=None,
                         backend="reference")
        sharded = api.run(
            "database", settings=TINY, cache_dir=None,
            shards=3, workers=1, backend=name,
        )
        assert sharded == golden


# ------------------------------------------------------- engine and facade --


class TestEndToEnd:
    def test_api_run_backend_equality(self):
        golden = api.run("database", settings=TINY, cache_dir=None,
                         backend="reference")
        for name in _alternative_backends():
            assert api.run("database", settings=TINY, cache_dir=None,
                           backend=name) == golden

    def test_api_run_unknown_backend(self):
        # "batch" names a backend that no longer exists.
        for name in ("evnet", "batch"):
            with pytest.raises(UnknownBackendError):
                api.run("database", settings=TINY, cache_dir=None,
                        backend=name)

    def test_env_var_reaches_workbench(self, bench, monkeypatch):
        golden = bench.run("database", backend="reference")
        monkeypatch.setenv(BACKEND_ENV_VAR, "event")
        assert bench.run("database") == golden

    def test_sweep_backend_equality(self):
        spec = api.SweepSpec.build(
            "database", store_queue=[16, 32],
            store_prefetch=["sp0", "sp2"],
        )
        golden = api.sweep(spec, settings=TINY, cache_dir=None, workers=1,
                           backend="reference")
        for name in _alternative_backends():
            records = api.sweep(spec, settings=TINY, cache_dir=None,
                                workers=1, backend=name)
            assert records == golden, f"sweep via {name!r} diverged"


# ------------------------------------------------------------ wire protocol --


class TestServiceProtocol:
    def test_backend_field_round_trips(self):
        from repro.service.protocol import parse_job_request

        request = parse_job_request({
            "kind": "simulate", "backend": "event",
            "job": {"workload": "database"},
        })
        assert request.backend == "event"
        bare = parse_job_request({
            "kind": "simulate", "job": {"workload": "database"},
        })
        assert bare.backend == ""
        # The backend participates in the dedup signature: the same job on
        # two backends must not be coalesced.
        assert request.signature() != bare.signature()

    def test_unknown_backend_is_a_400(self):
        from repro.service.protocol import ProtocolError, parse_job_request

        for bad in ("evnet", "batch"):
            with pytest.raises(ProtocolError) as excinfo:
                parse_job_request({
                    "kind": "simulate", "backend": bad,
                    "job": {"workload": "database"},
                })
            assert excinfo.value.status == 400
            for name in backend_names():
                assert name in str(excinfo.value)

    def test_backend_rejected_on_figure_jobs(self):
        from repro.service.protocol import ProtocolError, parse_job_request

        with pytest.raises(ProtocolError) as excinfo:
            parse_job_request({
                "kind": "figure", "figure": "figure2", "backend": "event",
            })
        assert excinfo.value.status == 400
