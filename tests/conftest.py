"""Shared fixtures and trace-building helpers for the test suite."""

from __future__ import annotations

import shutil
import threading
from pathlib import Path

import pytest

import repro
from repro.config import (
    CoreConfig,
    MemoryConfig,
    SimulationConfig,
    StorePrefetchMode,
)
from repro.harness import ExperimentSettings
from repro.isa import Instruction, InstructionClass
from repro.memory.annotate import AccessInfo


def make_inst(
    kind: InstructionClass,
    pc: int = 0x1000,
    address: int = 0,
    dest: int = -1,
    srcs: tuple[int, ...] = (),
    taken: bool = False,
    target: int = 0,
    lock_acquire: bool = False,
    lock_release: bool = False,
) -> Instruction:
    """Construct an instruction with test-friendly defaults."""
    return Instruction(
        kind=kind,
        pc=pc,
        address=address,
        size=8,
        dest=dest,
        srcs=srcs,
        taken=taken,
        target=target,
        lock_acquire=lock_acquire,
        lock_release=lock_release,
    )


def annotated(
    kind: InstructionClass,
    miss: bool = False,
    imiss: bool = False,
    smac: bool = False,
    mispred: bool = False,
    **inst_kwargs,
) -> tuple[Instruction, AccessInfo]:
    """One (instruction, classification) pair for direct MLPsim input."""
    return (
        make_inst(kind, **inst_kwargs),
        AccessInfo(
            inst_miss=imiss,
            data_miss=miss or smac,
            smac_hit=smac,
            mispredicted=mispred,
        ),
    )


@pytest.fixture
def package_copy(tmp_path) -> Path:
    """A copy of the ``repro`` sources to edit without touching the tree."""
    root = tmp_path / "repro"
    shutil.copytree(
        Path(repro.__file__).resolve().parent, root,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root


@pytest.fixture
def default_config() -> SimulationConfig:
    return SimulationConfig()


@pytest.fixture
def small_core() -> CoreConfig:
    """The tiny SB=2/SQ=2 core used by the paper's worked examples."""
    return CoreConfig(
        store_buffer=2,
        store_queue=2,
        store_prefetch=StorePrefetchMode.NONE,
        coalesce_bytes=0,
    )


@pytest.fixture
def small_sim(small_core) -> SimulationConfig:
    return SimulationConfig(core=small_core)


@pytest.fixture
def memory_config() -> MemoryConfig:
    return MemoryConfig()


#: Small, uncalibrated sizing for fleets under test.
FLEET_SETTINGS = ExperimentSettings(warmup=1500, measure=4000, seed=11,
                                    calibrate=False)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One artifact store per test module (a fleet's shared store)."""
    return tmp_path_factory.mktemp("fleet-cache")


class _Fleet:
    """A coordinator plus N thread workers, torn down deterministically.

    Workers run as threads (the real thing is a process; the wire
    protocol is identical either way).
    """

    def __init__(self, cache_dir, workers=1, **coord_kwargs):
        from repro.fleet import FleetCoordinator

        coord_kwargs.setdefault("lease_ttl", 1.0)
        coord_kwargs.setdefault("settings", FLEET_SETTINGS)
        self.coord = FleetCoordinator(
            port=0, cache_dir=str(cache_dir), **coord_kwargs,
        ).start()
        self.workers = []
        self.threads = []
        for index in range(workers):
            self.add_worker(f"w{index}")

    def add_worker(self, name, obs=None):
        from repro.fleet import FleetWorker

        worker = FleetWorker(
            self.coord.url, name=name, lease_wait=1.0, obs=obs,
        ).join()
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        self.workers.append(worker)
        self.threads.append(thread)
        return worker

    def client(self, **kwargs):
        from repro.service.client import ServiceClient

        return ServiceClient(self.coord.url, **kwargs)

    def stop(self):
        self.coord.begin_drain()
        for worker in self.workers:
            worker.request_stop()
        for thread in self.threads:
            thread.join(timeout=15.0)
        self.coord.stop()


@pytest.fixture
def fleet_factory(cache_dir):
    """Build fleets on the module's ``cache_dir``; all stop at teardown."""
    fleets = []

    def make(workers=1, **kwargs):
        fleet = _Fleet(cache_dir, workers=workers, **kwargs)
        fleets.append(fleet)
        return fleet

    yield make
    for fleet in fleets:
        fleet.stop()
