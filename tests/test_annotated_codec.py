"""The columnar annotation codec (repro.trace.annotated)."""

from __future__ import annotations

import gc
import random
import struct
import zlib

import pytest

from conftest import annotated
from test_backends import SEED, _random_trace
from repro.config import MemoryConfig
from repro.errors import TraceError, TraceFormatError
from repro.harness.figures import smac_memory_config
from repro.isa import Instruction, InstructionClass
from repro.memory import MemorySystem
from repro.memory.annotate import _NO_ACCESS, AccessInfo
from repro.trace.annotated import (
    HEADER,
    Annotation,
    decode_annotation,
    encode_annotation,
    gc_paused,
)


def _counters(smac: bool = False):
    config = smac_memory_config(512) if smac else MemoryConfig()
    memory = MemorySystem(config)
    for address in range(0, 64 * 4096, 4096):
        memory.fetch(address)
        memory.store(address)
        memory.load(address + 64)
    return memory.counters()


def _every_shape():
    """Every instruction class, 0-3 sources, lock flags and all 32 masks."""
    trace = []
    kinds = list(InstructionClass)
    for index in range(64):
        mask = index % 32
        inst = Instruction(
            kind=kinds[index % len(kinds)],
            pc=0xFFFF_FFFF_FFFF_FFF0 - 4 * index,
            address=(1 << 63) + 64 * index if index % 3 else 0,
            size=(1, 2, 4, 8, 16)[index % 5],
            dest=index % 64 - 1,
            srcs=((), (5,), (0, 63), (1, 2, 3))[index % 4],
            taken=bool(index & 1),
            target=0x4000 + index if index & 1 else 0,
            lock_acquire=index % 7 == 0,
            lock_release=index % 5 == 0,
        )
        info = AccessInfo(*(bool(mask >> bit & 1) for bit in range(5)))
        trace.append((inst, info))
    return trace


def _samples():
    traces = [_every_shape(), []]
    for trial in range(4):
        traces.append(_random_trace(random.Random(SEED + trial), 600))
    return traces


@pytest.fixture
def encoded():
    return encode_annotation(Annotation(_every_shape(), _counters(smac=True)))


class TestRoundTrip:
    @pytest.mark.parametrize("index", range(len(_samples())))
    def test_random_traces_round_trip_exactly(self, index):
        trace = _samples()[index]
        decoded = decode_annotation(
            encode_annotation(Annotation(trace, _counters()))
        )
        assert decoded.trace == trace
        assert decoded.counters == _counters()
        for (inst, info), (want, _) in zip(decoded.trace, trace):
            assert type(inst.srcs) is tuple and inst.srcs == want.srcs

    def test_counters_with_and_without_a_smac(self):
        for smac in (False, True):
            counters = _counters(smac)
            assert (counters.smac is not None) == smac
            decoded = decode_annotation(
                encode_annotation(Annotation([], counters))
            )
            assert decoded.counters == counters

    def test_access_records_are_shared(self):
        trace = _every_shape() + [annotated(InstructionClass.LOAD, miss=True)]
        decoded = decode_annotation(
            encode_annotation(Annotation(trace, _counters()))
        ).trace
        flagged = {}
        for _, info in decoded:
            if info == _NO_ACCESS:
                assert info is _NO_ACCESS
            else:
                assert flagged.setdefault(info, info) is info

    def test_encoding_is_deterministic(self, encoded):
        again = Annotation(_every_shape(), _counters(smac=True))
        assert encode_annotation(again) == encoded

    @pytest.mark.parametrize("field, value", [
        ("pc", -1), ("size", 256), ("dest", 200), ("srcs", (1, 300)),
    ])
    def test_values_that_do_not_fit_raise(self, field, value):
        inst = Instruction(InstructionClass.LOAD, pc=4, size=8)
        setattr(inst, field, value)
        with pytest.raises(TraceError):
            encode_annotation(Annotation([(inst, _NO_ACCESS)], _counters()))


class TestRejectsForeignInput:
    def test_every_truncation_raises(self, encoded):
        for length in list(range(0, HEADER.size + 8)) + [
            len(encoded) // 2, len(encoded) - 1,
        ]:
            with pytest.raises(TraceFormatError):
                decode_annotation(encoded[:length])

    def test_every_single_byte_flip_raises(self, encoded):
        rng = random.Random(SEED)
        positions = list(range(HEADER.size)) + rng.sample(
            range(HEADER.size, len(encoded)), 64,
        )
        for position in positions:
            damaged = bytearray(encoded)
            damaged[position] ^= 1 << rng.randrange(8)
            with pytest.raises(TraceFormatError):
                decode_annotation(bytes(damaged))

    def test_foreign_version_raises(self, encoded):
        damaged = bytearray(encoded)
        struct.pack_into("<H", damaged, 4, 2)
        with pytest.raises(TraceFormatError, match="version 2"):
            decode_annotation(bytes(damaged))

    @pytest.mark.parametrize("column", ["kind", "flags"])
    def test_out_of_range_column_with_a_valid_checksum_raises(self, column):
        inst = Instruction(InstructionClass.LOAD, pc=4, size=8)
        data = bytearray(encode_annotation(
            Annotation([(inst, _NO_ACCESS)], _counters()),
        ))
        # One record: kind at 0, then 3 x u64, size, dest, then flags.
        data[HEADER.size + {"kind": 0, "flags": 1 + 24 + 2}[column]] = 250
        crc = zlib.crc32(data[HEADER.size:], zlib.crc32(data[:HEADER.size - 4]))
        struct.pack_into("<I", data, HEADER.size - 4, crc)
        with pytest.raises(TraceFormatError):
            decode_annotation(bytes(data))

    def test_trailing_bytes_raise(self, encoded):
        with pytest.raises(TraceFormatError):
            decode_annotation(encoded + b"\0")

    def test_pickle_is_not_an_annotation(self):
        with pytest.raises(TraceFormatError, match="magic"):
            decode_annotation(b"\x80\x05" + bytes(64))


class TestGcPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_decode_restores_the_collector_state(self, encoded, enabled):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            decode_annotation(encoded)
            assert gc.isenabled() is enabled
            with pytest.raises(TraceFormatError):
                decode_annotation(encoded[:40])
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_pause_never_turns_the_collector_on(self):
        was = gc.isenabled()
        try:
            gc.disable()
            with gc_paused():
                with gc_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
            assert not gc.isenabled()
            gc.enable()
            with gc_paused():
                assert not gc.isenabled()
            assert gc.isenabled()
        finally:
            gc.enable() if was else gc.disable()
