"""Shared fixtures and trace-building helpers for the test suite."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import repro
from repro.config import (
    CoreConfig,
    MemoryConfig,
    SimulationConfig,
    StorePrefetchMode,
)
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
