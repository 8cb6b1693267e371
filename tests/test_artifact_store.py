"""The framed, checksummed, compressed artifact store behind the Workbench.

Every kind round-trips through a compressed version-2 frame; a damaged
disk entry of any kind, and an uncompressed version-1 entry, is dropped
and recomputed, never served and never raised; a warm Workbench
reproduces a cold one's numbers; a stored simulation answers a repeated
run without the annotation; the key salt follows the simulation code.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import shutil
import struct
import zlib
from pathlib import Path

import pytest

from repro import cli
from repro.core.backend import backend_names, resolve_backend
from repro.core.window import WindowObserver
from repro.engine.cache import (
    FRAME,
    FRAME_MAGIC,
    FRAME_VERSION,
    RESULT_SALT_SOURCES,
    SALT_SOURCES,
    ArtifactCache,
    _decode_entry,
    result_salt,
    schema_salt,
    source_salt,
)
from repro.errors import ArtifactCorruptError
from repro.harness.experiment import ExperimentSettings, Workbench
from repro.harness.figures import figure6
from repro.harness.tables import table1, table3
from repro.trace import annotated as codec

# Database and specjbb calibrate in one round at this sizing and seed.
SETTINGS = ExperimentSettings(warmup=10_000, measure=30_000, seed=1)


def _entry(directory, kind):
    (path,) = (directory / kind).glob("*/*.mlpa")
    return path


def _drop_simulations(directory):
    """Forget stored results, so the next run reads its annotation."""
    shutil.rmtree(directory / "simulation")


def _reframe(data: bytearray) -> None:
    """Recompute the frame checksum after editing *data* in place."""
    crc = zlib.crc32(data[FRAME.size:], zlib.crc32(data[:FRAME.size - 4]))
    struct.pack_into("<I", data, FRAME.size - 4, crc)


def _frame(version: int, fmt: bytes, payload: bytes) -> bytes:
    """A well-framed entry of *version* around *payload*, taken as is."""
    data = bytearray(FRAME.pack(FRAME_MAGIC, version, fmt, len(payload), 0))
    data += payload
    _reframe(data)
    return bytes(data)


def _header(path):
    """(version, format) of the entry at *path*."""
    _, version, fmt, _, _ = FRAME.unpack_from(path.read_bytes())
    return version, fmt


def _payload(path) -> bytes:
    """The decompressed payload of the version-2 entry at *path*."""
    return zlib.decompress(path.read_bytes()[FRAME.size:])


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _flip(path):
    data = bytearray(path.read_bytes())
    rng = random.Random(len(data))
    data[rng.randrange(FRAME.size, len(data))] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(data))


def _foreign_frame(path):
    data = bytearray(path.read_bytes())
    struct.pack_into("<H", data, 4, FRAME_VERSION + 1)
    _reframe(data)
    path.write_bytes(bytes(data))


def _foreign_codec(path):
    """A well-framed, compressed annotation of another codec version."""
    version, fmt = _header(path)
    data = bytearray(_payload(path))
    assert data[:4] == codec.MAGIC
    struct.pack_into("<H", data, 4, codec.VERSION + 1)
    inner = zlib.crc32(
        data[codec.HEADER.size:], zlib.crc32(data[:codec.HEADER.size - 4]),
    )
    struct.pack_into("<I", data, codec.HEADER.size - 4, inner)
    path.write_bytes(_frame(version, fmt, zlib.compress(bytes(data), 1)))


def _version1(path):
    """The same value as a version-1 entry: an uncompressed payload."""
    _, fmt = _header(path)
    path.write_bytes(_frame(1, fmt, _payload(path)))


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """A filled cache directory and the results a cold run computed."""
    directory = tmp_path_factory.mktemp("golden-cache")
    bench = Workbench(SETTINGS, cache_dir=directory)
    return directory, {
        "profile": bench.profile("database"),
        "result": bench.run("database"),
        "counters": bench.memory_for("database"),
    }


@pytest.fixture
def cache_copy(golden, tmp_path):
    directory = tmp_path / "cache"
    shutil.copytree(golden[0], directory)
    return directory


class TestDamagedEntries:
    @pytest.mark.parametrize("kind, damage", [
        (kind, damage)
        for kind in ("profile", "annotation", "simulation")
        for damage in (_truncate, _flip, _foreign_frame, _version1)
    ] + [("annotation", _foreign_codec)], ids=lambda value: getattr(
        value, "__name__", value,
    ).strip("_"))
    def test_is_dropped_and_recomputed(self, golden, cache_copy, kind,
                                       damage):
        path = _entry(cache_copy, kind)
        damage(path)
        if kind == "annotation":
            _drop_simulations(cache_copy)
        bench = Workbench(SETTINGS, cache_dir=cache_copy)
        assert bench.run("database") == golden[1]["result"]
        assert bench.profile("database") == golden[1]["profile"]
        assert bench.memory_for("database") == golden[1]["counters"]
        assert bench.artifacts.stats.corrupt == 1
        # The recomputed entry replaced the damaged one.
        assert _header(path)[0] == FRAME_VERSION
        assert ArtifactCache(cache_copy).get(kind, path.stem) is not None

    @pytest.mark.parametrize("kind", ["profile", "annotation"])
    def test_legacy_pickle_is_never_read(self, golden, cache_copy, kind):
        path = _entry(cache_copy, kind)
        legacy = path.with_suffix(".pkl")
        legacy.write_bytes(pickle.dumps("a stale value"))
        path.unlink()
        if kind == "annotation":
            _drop_simulations(cache_copy)
        bench = Workbench(SETTINGS, cache_dir=cache_copy)
        assert bench.run("database") == golden[1]["result"]
        assert bench.artifacts.stats.corrupt == 0
        assert legacy.exists() and path.exists()

    def test_a_payload_that_does_not_decompress_is_corrupt(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("service-result", "k", {"epi": 5.292})
        path = cache._path("service-result", "k")
        _, fmt = _header(path)
        raw = pickle.dumps({"epi": 5.292})
        path.write_bytes(_frame(FRAME_VERSION, fmt, raw))
        with pytest.raises(ArtifactCorruptError, match="payload"):
            _decode_entry(path.read_bytes())
        cache.clear_memory()
        assert cache.get("service-result", "k", "missing") == "missing"
        assert (cache.stats.corrupt, cache.stats.misses) == (1, 1)
        assert not path.exists()

    def test_damaged_entry_of_any_kind_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("service-result", "k", {"epi": 5.292})
        cache._path("service-result", "k").write_bytes(b"\x80\x05junk")
        cache.clear_memory()
        assert cache.get("service-result", "k", "missing") == "missing"
        assert (cache.stats.corrupt, cache.stats.misses) == (1, 1)
        assert not cache._path("service-result", "k").exists()


class TestCompressedFrames:
    def test_every_workbench_kind_round_trips(self, golden):
        directory, values = golden
        cache = ArtifactCache(directory)
        read = {}
        for kind in ("profile", "annotation", "simulation"):
            path = _entry(directory, kind)
            assert _header(path)[0] == FRAME_VERSION == 2
            read[kind] = cache.get(kind, path.stem)
        assert read["profile"] == values["profile"]
        assert read["simulation"] == (values["result"], values["counters"])
        annotation = read["annotation"]
        assert annotation.counters == values["counters"]
        assert codec.encode_annotation(annotation) == _payload(
            _entry(directory, "annotation"),
        )

    def test_a_service_result_round_trips(self, tmp_path):
        value = {"epi": [5.292, 1e-300], "rows": [("db", None)], "n": 2**70}
        ArtifactCache(tmp_path).put("service-result", "k", value)
        cache = ArtifactCache(tmp_path)
        assert _header(cache._path("service-result", "k"))[0] == 2
        assert cache.get("service-result", "k") == value
        assert cache.stats.disk_hits == 1

    def test_an_annotation_is_stored_in_a_quarter_of_its_columns(
        self, golden,
    ):
        path = _entry(golden[0], "annotation")
        annotation = ArtifactCache(golden[0]).get("annotation", path.stem)
        columns = len(codec.encode_annotation(annotation))
        assert path.stat().st_size <= 0.25 * columns


@pytest.fixture
def counted(monkeypatch):
    """Call counts of annotation decodes and of each backend's simulate."""
    calls = {}

    def wrap(owner, attr, label):
        original = getattr(owner, attr)

        def counting(*args, **kwargs):
            calls[label] = calls.get(label, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    wrap(codec, "decode_annotation", "decode")
    for name in backend_names():
        wrap(type(resolve_backend(name)), "simulate", name)
    return calls


def _simulations(counted):
    return sum(counted.get(name, 0) for name in backend_names())


class _EpochCounter(WindowObserver):
    def __init__(self):
        self.epochs = 0

    def on_epoch(self, record):
        self.epochs += 1


# Small and uncalibrated: these tests count calls, not paper numbers.
SMALL = ExperimentSettings(warmup=2_000, measure=6_000, seed=1,
                           calibrate=False)


class TestStoredSimulations:
    def test_a_warm_run_reads_neither_annotation_nor_simulator(
        self, golden, cache_copy, counted,
    ):
        bench = Workbench(SETTINGS, cache_dir=cache_copy)
        assert bench.run("database") == golden[1]["result"]
        assert bench.memory_for("database") == golden[1]["counters"]
        assert counted == {}
        assert bench.artifacts.stats.misses == 0

    def test_each_backend_simulates_once(self, cache_copy, counted):
        _drop_simulations(cache_copy)
        bench = Workbench(SETTINGS, cache_dir=cache_copy)
        results = [
            bench.run("database", backend=backend)
            for backend in ("reference", "event", "reference", "event")
        ]
        assert counted.get("reference") == counted.get("event") == 1
        assert all(result == results[0] for result in results)

    def test_an_observed_run_still_drives_its_observer(
        self, golden, cache_copy, counted,
    ):
        observer = _EpochCounter()
        bench = Workbench(SETTINGS, cache_dir=cache_copy)
        result = bench.run("database", observer=observer)
        assert result == golden[1]["result"]
        assert observer.epochs == result.epoch_count > 0
        assert _simulations(counted) == 1

    def test_a_memory_only_cache_stores_nothing(self, counted):
        bench = Workbench(SMALL, cache_dir=None)
        assert bench.run("database") == bench.run("database")
        assert _simulations(counted) == 2
        assert {kind for kind, _ in bench.artifacts._memory} == {
            "annotation",
        }

    def test_stored_results_never_evict_an_annotation(self, tmp_path):
        bench = Workbench(SMALL, cache_dir=tmp_path)
        annotation = bench.annotated("database")
        base = bench.simulation_config("database")
        for index in range(200):
            bench.run("database", config=dataclasses.replace(
                base, cpi_on_chip=1.0 + index / 1000,
            ))
        assert len(list((tmp_path / "simulation").glob("*/*.mlpa"))) == 200
        assert bench.artifacts.stats.evictions == 0
        assert bench.annotated("database") is annotation
        assert bench.artifacts.stats.disk_hits == 0


class TestWarmEqualsCold:
    def test_tables_and_a_figure6_point(self, tmp_path):
        def numbers(bench):
            return {
                "table1": table1(bench, ("database", "specjbb")),
                "table3": table3(bench, ("database", "specjbb")),
                "wc": bench.run("specjbb", "wc"),
                "wc_counters": bench.memory_for("specjbb", "wc"),
                "figure6": figure6(bench, ("database",), (256,), (2,)),
            }

        cold = Workbench(SETTINGS, cache_dir=tmp_path)
        expected = numbers(cold)
        warm = Workbench(SETTINGS, cache_dir=tmp_path)
        assert numbers(warm) == expected
        assert warm.artifacts.stats.misses == 0
        assert warm.artifacts.stats.disk_hits > 0

    def test_memory_for_is_equal_on_every_path(self, golden, tmp_path):
        handoff = Workbench(SETTINGS, cache_dir=None)
        handoff.annotated("database")
        fresh = Workbench(SETTINGS, cache_dir=None)
        fresh.profile("database")
        fresh.annotated("database", tag="other")  # drops the handoff
        fresh.annotated("database")
        disk = Workbench(SETTINGS, cache_dir=golden[0])
        disk.annotated("database")
        assert disk.artifacts.stats.disk_hits == 2  # profile + annotation
        counters = [
            bench.memory_for("database") for bench in (handoff, fresh, disk)
        ]
        assert counters[0] == counters[1] == counters[2]
        assert counters[0].stats.instructions == SETTINGS.measure

    def test_annotations_keep_identity_in_memory(self, golden):
        bench = Workbench(SETTINGS, cache_dir=golden[0])
        assert bench.annotated("database") is bench.annotated("database")


class TestCacheCli:
    def test_stats_and_prune_see_every_entry(self, cache_copy, capsys):
        legacy = cache_copy / "annotation" / "00" / "old.pkl"
        legacy.parent.mkdir(exist_ok=True)
        legacy.write_bytes(pickle.dumps("old"))
        assert cli.main(["--cache-dir", str(cache_copy), "cache",
                         "stats"]) == 0
        out = capsys.readouterr().out
        assert "4 entries" in out
        assert "annotation        2 entries" in out
        assert "profile           1 entries" in out
        assert "simulation        1 entries" in out
        assert cli.main(["--cache-dir", str(cache_copy), "cache", "prune",
                         "--older-than", "0"]) == 0
        assert "pruned 4 entries" in capsys.readouterr().out
        assert not list(cache_copy.rglob("*.mlpa"))
        assert not legacy.exists()


class TestSchemaSalt:
    def test_is_stable_within_a_process(self):
        assert schema_salt() == schema_salt()
        assert len(schema_salt()) == 64

    def test_follows_the_simulation_sources(self, tmp_path):
        (tmp_path / "core").mkdir()
        (tmp_path / "config.py").write_text("A = 1\n")
        (tmp_path / "core" / "loop.py").write_text("B = 1\n")
        (tmp_path / "service.py").write_text("C = 1\n")
        before = source_salt(tmp_path)
        assert source_salt(tmp_path) == before
        (tmp_path / "service.py").write_text("C = 2\n")
        assert source_salt(tmp_path) == before  # not a simulation source
        (tmp_path / "core" / "loop.py").write_text("B = 2\n")
        assert source_salt(tmp_path) != before

    def test_covers_the_codec_and_the_workbench(self):
        assert "trace" in SALT_SOURCES
        assert "harness/experiment.py" in SALT_SOURCES


def _append_comment(text):
    return text + "# an appended comment\n"


def _bump_wire_version(text):
    from repro.engine.serialize import PROTOCOL_VERSION

    line = f"PROTOCOL_VERSION = {PROTOCOL_VERSION}\n"
    assert line in text
    return text.replace(
        line, f"PROTOCOL_VERSION = {PROTOCOL_VERSION + 1}\n",
    )


class TestResultSalt:
    @pytest.mark.parametrize("source, edit", [
        ("harness/figures.py", _append_comment),
        # Stored payloads are wire encoded: another wire version must
        # miss them, not serve what its clients cannot decode.
        ("engine/serialize.py", _bump_wire_version),
    ], ids=["figure-driver", "wire-version"])
    def test_an_edit_moves_only_the_result_salt(
        self, package_copy, source, edit,
    ):
        artifacts = source_salt(package_copy, SALT_SOURCES)
        results = source_salt(package_copy, RESULT_SALT_SOURCES)
        assert artifacts == schema_salt()
        assert results == result_salt()
        path = package_copy / source
        path.write_text(edit(path.read_text()))
        assert source_salt(package_copy, SALT_SOURCES) == artifacts
        assert source_salt(package_copy, RESULT_SALT_SOURCES) != results
