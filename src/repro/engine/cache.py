"""Content-addressed artifact cache: an in-memory LRU over framed disk entries.

The pipeline's persisted artifacts (calibrated profiles, annotated traces
and simulation results) are keyed by a SHA-256 hash of the *content* that
produced them — the workload profile, experiment settings, trace variant,
memory-side and core configuration — and of the *code* that produced them
(:func:`schema_salt` hashes the sources of the simulation packages), so a
key can never serve a stale artifact: any input or code change changes the
key.  Generated traces are not persisted: a warm run never reads one, and
regenerating a trace costs less than decoding it, so the Workbench keeps
them in a memory-only instance (``directory=None``).  Values flow through
two tiers:

1. an in-memory LRU (object identity preserved within a process), and
2. an optional on-disk store (shared between processes and runs).

Every disk entry is one frame (``FRAME``: magic, frame version, payload
format, payload length and a CRC-32), then the payload.  An annotation
(:class:`repro.trace.annotated.Annotation`) is encoded in the columnar
``MLPN`` format; every other value is pickled.  Since frame version 2 the
encoded payload is zlib-compressed at level 1 (``COMPRESS_LEVEL``): a
default-sizing ``database`` annotation shrinks from 3.6 MB to 0.63 MB for
~30 ms per write and ~13 ms per read, where level 6 would save another
~17% at ~5x the write time.  A read verifies the frame and its checksum, then
decompresses and decodes with the garbage collector paused.  A bad frame,
a checksum mismatch, a payload that does not decompress or any exception
while decoding counts as ``CacheStats.corrupt``, deletes the entry and is
a miss, so a damaged entry is recomputed, never served.  A version-1
entry (written before compression) is such a foreign frame: a cache from
before version 2 is rebuilt, entry by entry, on first use.

Disk writes are atomic (temp file + ``os.replace``), so parallel workers
racing to fill the same key are safe: last writer wins and every reader
sees either nothing or a complete artifact.  Entries left by older
versions (``*.pkl`` files, and ``trace/``) are never read; ``mlpsim cache
prune --older-than`` removes them.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import logging
import os
import pickle
import struct
import tempfile
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ArtifactCorruptError
from ..trace import annotated as annotation_codec
from ..trace.annotated import gc_paused

log = logging.getLogger(__name__)

#: The sources, relative to the ``repro`` package, whose code decides what
#: an artifact or a cached result holds.  Editing any of them changes the
#: salt and so every key.
SALT_SOURCES = (
    "config.py", "isa", "workloads", "memory", "locks", "frontend",
    "multiproc", "trace", "core", "harness/experiment.py",
)

#: The further sources that decide what a stored *result* holds: the
#: figure and table drivers, shard merging, SMT, the estimate model, the
#: runner that assembles reports, the wire codec a stored payload is
#: encoded with (``PROTOCOL_VERSION`` lives there) and the service modules
#: that shape every stored payload (figure, sweep, simulate, estimate).  Only the fleet's result store
#: hashes them (:func:`result_salt`), so an edit to a figure driver leaves
#: annotation and profile keys where they are.
RESULT_SALT_SOURCES = (
    "harness", "shard", "smt", "analysis", "estimate.py",
    "engine/serialize.py", "engine/runner.py",
    "service/executor.py", "service/protocol.py",
)

#: The ``repro`` package directory, the root the salts hash under.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: Frame header of every disk entry: magic, frame version, payload format,
#: compressed payload length and the CRC-32 of the other header fields and
#: the compressed payload.
FRAME = struct.Struct("<4sH4sQI")
FRAME_MAGIC = b"MLPA"
FRAME_VERSION = 2

#: zlib level of every payload (see the module docstring for why 1).
COMPRESS_LEVEL = 1

#: Payload formats: the columnar annotation codec, and pickle for the rest.
PICKLE_FORMAT = b"PKL5"
ANNOTATION_FORMAT = annotation_codec.MAGIC

#: File suffix of a framed entry; ``*.pkl`` entries of older versions are
#: listed (so ``mlpsim cache`` counts and prunes them) but never read.
ENTRY_SUFFIX = ".mlpa"
_LISTED_SUFFIXES = (ENTRY_SUFFIX, ".pkl")

#: Internal miss marker: distinguishes "no entry" from a cached ``None``
#: (a ``None``-returning factory is a legitimate artifact and must not be
#: recomputed on every lookup).
_MISS = object()


def stable_token(obj: Any) -> str:
    """A canonical, process-independent string rendering of *obj*.

    Supports the value types configuration objects are made of: scalars,
    strings, enums, (frozen) dataclasses and the standard containers.
    Anything else raises ``TypeError`` — an unstable ``repr`` silently
    corrupting cache keys is far worse than a loud failure.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)  # repr round-trips floats exactly
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(
            f"{f.name}={stable_token(getattr(obj, f.name))}"
            for f in fields(obj)
        )
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(stable_token(item) for item in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(stable_token(item) for item in obj)) + "}"
    if isinstance(obj, dict):
        items = sorted(
            (stable_token(key), stable_token(value))
            for key, value in obj.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    raise TypeError(
        f"cannot build a stable cache token for {type(obj).__name__}"
    )


def source_salt(root: Path, sources: Tuple[str, ...] = SALT_SOURCES) -> str:
    """SHA-256 over the ``*.py`` files of *sources* under *root*.

    Each file contributes its path relative to *root* and its bytes, in
    sorted order; sources missing under *root* contribute nothing.
    """
    digest = hashlib.sha256()
    for source in sources:
        path = root / source
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            if not file.is_file():
                continue
            digest.update(file.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(file.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def schema_salt() -> str:
    """This code's key salt: :func:`source_salt` of the ``repro`` package.

    Computed on first use, once per process.
    """
    return source_salt(_PACKAGE_ROOT)


@functools.lru_cache(maxsize=None)
def result_salt() -> str:
    """:func:`source_salt` of :data:`RESULT_SALT_SOURCES`, once per process.

    A stored result's key hashes it next to :func:`schema_salt` (which
    every :func:`content_key` carries).
    """
    return source_salt(_PACKAGE_ROOT, RESULT_SALT_SOURCES)


def content_key(kind: str, *parts: Any) -> str:
    """SHA-256 content hash identifying one artifact."""
    token = stable_token((schema_salt(), kind) + parts)
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def _encode_entry(value: Any) -> bytes:
    """*value* as one framed disk entry."""
    if isinstance(value, annotation_codec.Annotation):
        fmt = ANNOTATION_FORMAT
        payload = annotation_codec.encode_annotation(value)
    else:
        fmt = PICKLE_FORMAT
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    payload = zlib.compress(payload, COMPRESS_LEVEL)
    header = FRAME.pack(FRAME_MAGIC, FRAME_VERSION, fmt, len(payload), 0)
    crc = zlib.crc32(payload, zlib.crc32(header[:-4]))
    return header[:-4] + crc.to_bytes(4, "little") + payload


def _decode_entry(data: bytes) -> Any:
    """The value of a framed disk entry.

    Raises :class:`ArtifactCorruptError` for a bad frame or checksum; the
    payload decoder may raise anything for a payload it did not write.
    """
    view = memoryview(data)
    if len(view) < FRAME.size:
        raise ArtifactCorruptError("truncated entry frame")
    magic, version, fmt, length, crc = FRAME.unpack(view[:FRAME.size])
    if magic != FRAME_MAGIC or version != FRAME_VERSION:
        raise ArtifactCorruptError(
            f"unknown entry frame {magic!r} version {version}"
        )
    payload = view[FRAME.size:]
    if len(payload) != length:
        raise ArtifactCorruptError(
            f"entry holds {len(payload)} payload bytes, frame says {length}"
        )
    if zlib.crc32(payload, zlib.crc32(view[:FRAME.size - 4])) != crc:
        raise ArtifactCorruptError("entry checksum mismatch")
    try:
        payload = zlib.decompress(payload)
    except zlib.error as exc:
        raise ArtifactCorruptError(f"entry payload: {exc}") from exc
    if fmt == ANNOTATION_FORMAT:
        return annotation_codec.decode_annotation(payload)
    if fmt == PICKLE_FORMAT:
        return pickle.loads(payload)
    raise ArtifactCorruptError(f"unknown payload format {fmt!r}")


@dataclass
class CacheStats:
    """Hit/miss accounting, split by tier."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    #: Disk entries dropped as unreadable (each is also a miss).
    corrupt: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def snapshot(self) -> Tuple[int, int]:
        """(hits, misses) — for computing per-job deltas."""
        return (self.hits, self.misses)

    def register_metrics(self, registry: Any, prefix: str = "cache") -> None:
        """Expose this cache's tiers as gauges on a
        :class:`repro.obs.metrics.MetricsRegistry`."""
        registry.gauge(
            f"{prefix}_memory_hits", lambda: self.memory_hits,
            help="artifact cache hits served from the in-memory LRU",
        )
        registry.gauge(
            f"{prefix}_disk_hits", lambda: self.disk_hits,
            help="artifact cache hits served from the on-disk store",
        )
        registry.gauge(
            f"{prefix}_misses", lambda: self.misses,
            help="artifact cache misses (artifact recomputed)",
        )
        registry.gauge(
            f"{prefix}_writes", lambda: self.writes,
            help="artifacts written to the on-disk store",
        )
        registry.gauge(
            f"{prefix}_evictions", lambda: self.evictions,
            help="in-memory LRU evictions",
        )
        registry.gauge(
            f"{prefix}_corrupt", lambda: self.corrupt,
            help="unreadable disk entries dropped and recomputed",
        )


class ArtifactCache:
    """Two-tier content-addressed cache for pipeline artifacts.

    ``directory=None`` disables the persistent tier: the cache degrades to a
    plain in-memory LRU, which is exactly the old Workbench behaviour.
    """

    def __init__(
        self,
        directory: str | Path | None,
        memory_entries: int = 128,
    ) -> None:
        if memory_entries < 1:
            raise ValueError("memory_entries must be positive")
        self.directory: Optional[Path] = (
            Path(directory) if directory is not None else None
        )
        self.memory_entries = memory_entries
        self.stats = CacheStats()
        self._memory: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        #: Per-key writer locks: publish (put) and eviction (prune) of the
        #: same key serialize, so a prune working from a stale directory
        #: listing can never unlink an entry a concurrent writer just
        #: republished.
        self._key_locks: Dict[Tuple[str, str], threading.Lock] = {}
        self._key_locks_guard = threading.Lock()

    def _lock_for(self, kind: str, key: str) -> threading.Lock:
        with self._key_locks_guard:
            return self._key_locks.setdefault((kind, key), threading.Lock())

    # ------------------------------------------------------------ lookup --

    def get(
        self, kind: str, key: str, default: Any = None, *,
        memory: bool = True,
    ) -> Any:
        """The cached value, consulting memory then disk.

        ``memory=False`` reads the disk tier alone and keeps what it reads
        out of the LRU, for values that must not evict the artifacts the
        LRU holds (:meth:`put` takes the same flag).
        """
        mem_key = (kind, key)
        if memory and mem_key in self._memory:
            self._memory.move_to_end(mem_key)
            self.stats.memory_hits += 1
            return self._memory[mem_key]
        value = self._read_disk(kind, key)
        if value is not _MISS:
            if memory:
                self._remember(mem_key, value)
            self.stats.disk_hits += 1
            return value
        self.stats.misses += 1
        return default

    def get_or_create(
        self, kind: str, key: str, factory: Callable[[], Any]
    ) -> Any:
        """The cached value, computing and storing it on a miss."""
        sentinel = object()
        value = self.get(kind, key, default=sentinel)
        if value is not sentinel:
            return value
        value = factory()
        self.put(kind, key, value)
        return value

    def put(
        self, kind: str, key: str, value: Any, *, memory: bool = True,
    ) -> None:
        """Insert into the LRU (unless ``memory=False``) and, when
        persistent, write through to disk."""
        if memory:
            self._remember((kind, key), value)
        self.stats.writes += 1
        if self.directory is None:
            return
        data = _encode_entry(value)
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: writers never expose a partial entry.  The
        # per-key lock additionally orders this publish against a
        # concurrent prune of the same key.
        with self._lock_for(kind, key):
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=ENTRY_SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

    # ---------------------------------------------------------- internals --

    def _remember(self, mem_key: Tuple[str, str], value: Any) -> None:
        self._memory[mem_key] = value
        self._memory.move_to_end(mem_key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _read_disk(self, kind: str, key: str) -> Any:
        """The stored value, or the ``_MISS`` marker — never conflated."""
        if self.directory is None:
            return _MISS
        path = self._path(kind, key)
        try:
            data = path.read_bytes()
            with gc_paused():
                return _decode_entry(data)
        except FileNotFoundError:
            return _MISS
        except Exception as exc:
            # Truncated, damaged or foreign entry: drop it, and recompute.
            log.warning("dropping unreadable cache entry %s: %s", path, exc)
            self.stats.corrupt += 1
            try:
                path.unlink()
            except OSError:
                pass
            return _MISS

    def _path(self, kind: str, key: str) -> Path:
        assert self.directory is not None
        return self.directory / kind / key[:2] / f"{key}{ENTRY_SUFFIX}"

    # -------------------------------------------------------------- admin --

    def clear_memory(self) -> None:
        """Drop the in-memory tier (persistent artifacts survive)."""
        self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)

    # ---------------------------------------------------- disk-tier admin --

    def _disk_entries(self) -> List["DiskEntry"]:
        """Every persisted artifact, with its size and mtime.

        Temp files mid-publish (``.tmp-*``) are skipped; entries that vanish
        while being statted (a concurrent prune or replace) are skipped too.
        """
        if self.directory is None or not self.directory.is_dir():
            return []
        entries: List[DiskEntry] = []
        for kind_dir in sorted(self.directory.iterdir()):
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.glob("*/*")):
                if (path.name.startswith(".tmp-")
                        or path.suffix not in _LISTED_SUFFIXES):
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append(DiskEntry(
                    kind=kind_dir.name,
                    key=path.stem,
                    path=path,
                    bytes=stat.st_size,
                    mtime=stat.st_mtime,
                ))
        return entries

    def disk_stats(self) -> "DiskTierStats":
        """Entry count and footprint of the persistent tier, by kind."""
        stats = DiskTierStats()
        for entry in self._disk_entries():
            stats.entries += 1
            stats.total_bytes += entry.bytes
            kind_entries, kind_bytes = stats.by_kind.get(entry.kind, (0, 0))
            stats.by_kind[entry.kind] = (
                kind_entries + 1, kind_bytes + entry.bytes,
            )
        return stats

    def prune(
        self,
        max_bytes: Optional[int] = None,
        older_than: Optional[float] = None,
        now: Optional[float] = None,
    ) -> "PruneResult":
        """Evict persistent entries, oldest-mtime first.

        ``older_than`` removes every entry whose mtime is more than that many
        seconds in the past; ``max_bytes`` then evicts the oldest remaining
        entries (LRU by mtime — reads do not touch mtime, so this is really
        least-recently-*written*) until the tier fits.  Both criteria may be
        combined; with neither, nothing is removed.  The in-memory tier is
        untouched: evicted artifacts may survive there until process exit.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if older_than is not None and older_than < 0:
            raise ValueError("older_than must be non-negative")
        entries = sorted(self._disk_entries(), key=lambda e: e.mtime)
        total = sum(entry.bytes for entry in entries)
        cutoff = (
            (now if now is not None else time.time()) - older_than
            if older_than is not None else None
        )
        result = PruneResult(
            remaining_entries=len(entries), remaining_bytes=total,
        )
        for index, entry in enumerate(entries):
            stale = cutoff is not None and entry.mtime < cutoff
            over = (
                max_bytes is not None and result.remaining_bytes > max_bytes
            )
            if not stale and not over:
                if max_bytes is None:
                    break  # mtime-sorted: nothing later is stale either
                continue
            # Under the key's writer lock, re-stat before unlinking: the
            # listing above may be stale, and a writer may have republished
            # this key since — its fresh entry must survive the prune.
            with self._lock_for(entry.kind, entry.key):
                try:
                    current_mtime = entry.path.stat().st_mtime
                except FileNotFoundError:
                    # Concurrent removal: already gone, still count it out.
                    result.removed_entries += 1
                    result.removed_bytes += entry.bytes
                    result.remaining_entries -= 1
                    result.remaining_bytes -= entry.bytes
                    continue
                except OSError:
                    continue  # unstattable entry stays in remaining totals
                if current_mtime != entry.mtime:
                    continue  # republished since the listing: keep it
                try:
                    entry.path.unlink()
                except FileNotFoundError:
                    pass
                except OSError:
                    continue  # unremovable entry stays in remaining totals
            result.removed_entries += 1
            result.removed_bytes += entry.bytes
            result.remaining_entries -= 1
            result.remaining_bytes -= entry.bytes
        return result


@dataclass(frozen=True)
class DiskEntry:
    """One persisted artifact on disk."""

    kind: str
    key: str
    path: Path
    bytes: int
    mtime: float


@dataclass
class DiskTierStats:
    """Footprint of the persistent tier."""

    entries: int = 0
    total_bytes: int = 0
    #: kind -> (entry count, bytes)
    by_kind: Dict[str, Tuple[int, int]] = field(default_factory=dict)


@dataclass
class PruneResult:
    """Outcome of one :meth:`ArtifactCache.prune` pass."""

    removed_entries: int = 0
    removed_bytes: int = 0
    remaining_entries: int = 0
    remaining_bytes: int = 0


def resolve_cache_dir(cache_dir: str | Path | None) -> Optional[Path]:
    """Resolve the Workbench/runner ``cache_dir`` convention.

    ``"auto"`` means: honour the ``REPRO_CACHE_DIR`` environment variable,
    defaulting to ``.repro-cache`` under the current directory (covered by
    ``.gitignore``).  ``None`` disables persistence; anything else is used
    as given.
    """
    if cache_dir is None:
        return None
    if cache_dir == "auto":
        return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))
    return Path(cache_dir)
