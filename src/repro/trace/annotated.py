"""Columnar encoding of annotated traces: the Workbench's annotation artifact.

An annotation is the measurement window as ``(Instruction, AccessInfo)``
pairs plus the counters of the memory system that classified it
(:class:`Annotation`).  Pickling one creates and tracks every record as a
separate object; this codec stores one column per field and rebuilds the
records with their constructors, with the cyclic garbage collector paused.

Format ``MLPN`` version 1: a 32-byte header, then the payload.  Like the
``MLPT`` trace format (:mod:`~repro.trace.writer`), integers are
little-endian and instruction classes are stored as ``KIND_TO_ORDINAL``
ordinals.

Header::

    magic     4s   b"MLPN"
    version   u16  1
    pad       u16
    count     u64  number of records
    tables    u32  distinct source-register tuples
    flagged   u32  records whose AccessInfo has any flag set
    counters  u32  bytes of the counters document
    crc       u32  CRC-32 of the header's other fields and the payload

Payload, one column after another::

    kind      count x u8    InstructionClass ordinal
    pc        count x u64
    address   count x u64
    target    count x u64
    size      count x u8
    dest      count x i8
    flags     count x u8    bit0 taken, bit1 lock_acquire, bit2 lock_release
    srcs      count x u16   index into the source table
    lengths   tables x u8   length of each source tuple
    registers sum(lengths) x i8, the source tuples back to back
    index     flagged x u32 record index, ascending
    mask      flagged x u8  bit0 inst_miss, bit1 data_miss, bit2 smac_hit,
                            bit3 upgrade, bit4 mispredicted
    counters  UTF-8 JSON of the MemoryCounters fields

Records missing from the sparse ``index`` decode to the shared
``_NO_ACCESS``; flagged ones to the interned :class:`AccessInfo` of their
mask.  :func:`decode_annotation` raises :class:`TraceFormatError` for any
input it did not write: truncated, corrupted or of another version.
"""

from __future__ import annotations

import gc
import json
import struct
import sys
import zlib
from array import array
from contextlib import contextmanager
from dataclasses import asdict
from typing import Iterator, NamedTuple

from ..errors import TraceError, TraceFormatError
from ..isa import Instruction
from ..memory.annotate import ACCESS_BY_MASK, _NO_ACCESS, AnnotatedTrace
from ..memory.cache import CacheStats
from ..memory.hierarchy import HierarchyStats, MemoryCounters
from ..memory.smac import SmacStats
from .writer import KIND_TO_ORDINAL, ORDINAL_TO_KIND

MAGIC = b"MLPN"
VERSION = 1
HEADER = struct.Struct("<4sHHQIIII")

_KINDS = tuple(ORDINAL_TO_KIND[i] for i in range(len(ORDINAL_TO_KIND)))
_TAKEN = tuple(bool(flags & 1) for flags in range(8))
_ACQUIRE = tuple(bool(flags & 2) for flags in range(8))
_RELEASE = tuple(bool(flags & 4) for flags in range(8))
_BIG_ENDIAN = sys.byteorder == "big"


class Annotation(NamedTuple):
    """An annotated measurement window and its memory system's counters."""

    trace: AnnotatedTrace
    counters: MemoryCounters


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore its prior state.

    Decoding creates many objects and no cycles; with the collector on it
    rescans the growing heap again and again.  The collector's state is
    process-wide, so this never turns it on if it was off on entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _column(typecode: str, values) -> bytes:
    column = array(typecode, values)
    if _BIG_ENDIAN:
        column.byteswap()
    return column.tobytes()


def _read_column(typecode: str, data: memoryview) -> array:
    column = array(typecode)
    column.frombytes(data)
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def encode_annotation(annotation: Annotation) -> bytes:
    """Serialize *annotation*; raises :class:`TraceError` if a field does
    not fit its column."""
    trace, counters = annotation
    insts = [inst for inst, _ in trace]
    table: dict = {}
    index = array("I")
    masks = bytearray()
    for position, (_, info) in enumerate(trace):
        if info is not _NO_ACCESS:
            mask = (info.inst_miss | info.data_miss << 1 | info.smac_hit << 2
                    | info.upgrade << 3 | info.mispredicted << 4)
            if mask:
                index.append(position)
                masks.append(mask)
    try:
        srcs = _column("H", [table.setdefault(i.srcs, len(table))
                             for i in insts])
        columns = [
            bytes([KIND_TO_ORDINAL[i.kind] for i in insts]),
            _column("Q", [i.pc for i in insts]),
            _column("Q", [i.address for i in insts]),
            _column("Q", [i.target for i in insts]),
            bytes([i.size for i in insts]),
            _column("b", [i.dest for i in insts]),
            bytes([i.taken | i.lock_acquire << 1 | i.lock_release << 2
                   for i in insts]),
            srcs,
            bytes([len(sources) for sources in table]),
            _column("b", [reg for sources in table for reg in sources]),
        ]
    except (OverflowError, ValueError, KeyError, TypeError) as exc:
        raise TraceError(f"cannot encode annotated trace: {exc}") from exc
    document = json.dumps({
        "stats": asdict(counters.stats),
        "l1d": asdict(counters.l1d),
        "smac": asdict(counters.smac) if counters.smac is not None else None,
    }, sort_keys=True).encode("utf-8")
    columns += [_column("I", index), bytes(masks), document]
    payload = b"".join(columns)
    header = HEADER.pack(MAGIC, VERSION, 0, len(insts), len(table),
                         len(index), len(document), 0)[:-4]
    crc = zlib.crc32(payload, zlib.crc32(header))
    return header + crc.to_bytes(4, "little") + payload


def decode_annotation(data: bytes) -> Annotation:
    """Rebuild the :class:`Annotation` that :func:`encode_annotation` wrote."""
    with gc_paused():
        try:
            return _decode(memoryview(data))
        except TraceFormatError:
            raise
        except Exception as exc:
            raise TraceFormatError(
                f"undecodable annotation: {exc!r}"
            ) from exc


def _decode(data: memoryview) -> Annotation:
    if len(data) < HEADER.size:
        raise TraceFormatError("truncated annotation header")
    (magic, version, _, count, tables, flagged, document,
     crc) = HEADER.unpack(data[:HEADER.size])
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise TraceFormatError(f"unsupported annotation version {version}")
    payload = data[HEADER.size:]
    if zlib.crc32(payload, zlib.crc32(data[:HEADER.size - 4])) != crc:
        raise TraceFormatError("annotation checksum mismatch")
    cursor = 0

    def take(size: int) -> memoryview:
        nonlocal cursor
        if cursor + size > len(payload):
            raise TraceFormatError("annotation payload truncated")
        cursor += size
        return payload[cursor - size:cursor]

    kinds = take(count).tobytes()
    pcs = _read_column("Q", take(8 * count))
    addresses = _read_column("Q", take(8 * count))
    targets = _read_column("Q", take(8 * count))
    sizes = take(count).tobytes()
    dests = _read_column("b", take(count))
    flags = take(count).tobytes()
    srcs = _read_column("H", take(2 * count))
    lengths = take(tables).tobytes()
    registers = _read_column("b", take(sum(lengths))).tolist()
    index = _read_column("I", take(4 * flagged))
    masks = take(flagged).tobytes()
    counters = json.loads(take(document).tobytes().decode("utf-8"))
    if cursor != len(payload):
        raise TraceFormatError("annotation payload has trailing bytes")
    # An out-of-range kind, flag, source index or mask raises IndexError
    # below, which decode_annotation reports as a TraceFormatError.
    table = []
    start = 0
    for length in lengths:
        table.append(tuple(registers[start:start + length]))
        start += length
    insts = list(map(
        Instruction,
        map(_KINDS.__getitem__, kinds), pcs, addresses, sizes, dests,
        map(table.__getitem__, srcs), map(_TAKEN.__getitem__, flags),
        targets, map(_ACQUIRE.__getitem__, flags),
        map(_RELEASE.__getitem__, flags),
    ))
    infos = [_NO_ACCESS] * count
    for position, mask in zip(index, masks):
        infos[position] = ACCESS_BY_MASK[mask]
    smac = counters["smac"]
    return Annotation(
        AnnotatedTrace(zip(insts, infos)),
        MemoryCounters(
            stats=HierarchyStats(**counters["stats"]),
            l1d=CacheStats(**counters["l1d"]),
            smac=SmacStats(**smac) if smac is not None else None,
        ),
    )
