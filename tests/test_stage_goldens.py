"""Golden digests of the two cold-pipeline stages: generate and annotate.

The window goldens (``test_golden_window.py``) pin simulator numbers, which
a change to trace generation or miss classification could leave untouched
by luck.  These tests pin the stages themselves: a sha256 over every
generated instruction, and over every ``(pc, kind, address, AccessInfo)``
of an annotation plus its :class:`~repro.memory.MemoryCounters`.

Covered: all four workloads at two seeds, each with its base profile and
a rescaled one; every workload's annotation under ``pc`` and ``wc``; and
the Figure 5/6 configuration (scaled SMAC profile, 256-entry SMAC) at 1, 2
and 4 nodes, whose ``smac_hit`` flags and SMAC counters are non-zero.

Run this module as a script to print the digests of the code under test::

    PYTHONPATH=src python tests/test_stage_goldens.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.harness.experiment import (
    ExperimentSettings,
    SharingSettings,
    Workbench,
)
from repro.harness.figures import smac_memory_config, smac_scaled_profile
from repro.workloads import WORKLOADS, WorkloadGenerator

WARMUP = 10_000
MEASURE = 30_000
SEEDS = (7, 20251)
RESCALE = dict(store_miss_scale=1.3, load_miss_scale=0.7, inst_miss_scale=1.6)
SMAC_NODES = (1, 2, 4)

TRACE_GOLDEN = {
    "database/7/base": "e0176b918bd3cb4508ad7b9487dab5c3578f410bc7b07423e40e70955df4599e",
    "database/7/rescaled": "7fef59a99c643951e8906286b3aa8f33ff6737840cb897fc472bbb6e6a36abab",
    "database/20251/base": "c3cf85775015767bd684a6f9d7f927e856ce05c29b2b74a916b682346b725663",
    "database/20251/rescaled": "1bf0682d9ab533745bbd330475407105961f401a27860b485fa3ef166022ebc7",
    "specjbb/7/base": "556401af9e1f8d5c744d5f8374389a668cb66173bec6143e6516fcac2248e98f",
    "specjbb/7/rescaled": "fcb3d1ed82d829a24985935cf0f760cae7d31c9fd5a502b3fd84b5d5a9ecf0f9",
    "specjbb/20251/base": "27bda2c02db4a78d6b333ede0d4a708740fdf52b414b3e5d299ffd0fd38ea1ac",
    "specjbb/20251/rescaled": "38852982e956f1088124c1e7278535f382fba74a3db6b4af4182672acc26baaf",
    "specweb/7/base": "21891c39a4adea89e1482c98fc5b29d732bd3237a6482536262acb7fbe1ca5a2",
    "specweb/7/rescaled": "df75a177543f54c21b4eaf2e4f681ae532fe26ebd7c23016a09e5ae0d478810f",
    "specweb/20251/base": "826430f6755c128b3588ba2c13951e0357449129a5f5e1d7997e7d0b8768bc55",
    "specweb/20251/rescaled": "988d3fb0dc4e361142dbae96fe74b1d7881195507cc2fda13c6c105e6f0c7beb",
    "tpcw/7/base": "882adc58fc7f81a5bcc03ba99a252baf43a7ad111df64e3bb110cd82cf36e85d",
    "tpcw/7/rescaled": "c117ff42174625fc33baab229d6b053e3ef81dbcb8a22a5efa9fe47fa7e3c112",
    "tpcw/20251/base": "7cbf1aad5baf8243533a602620d7f7efc953fe3c952836c1136c69998d929c40",
    "tpcw/20251/rescaled": "1802983671d686ad5d400a9d8cdd5ae2a58266eeceb5c69c3ab085a1dcb15884",
}

ANNOTATION_GOLDEN = {
    "database/pc": "e0ee140c170b6d1feb54fd08d790d82ef38031e0441694237028538c70e9de94",
    "database/wc": "dfe91569cb330651afd6aa941230edb3c351381b3b2c640c6184fae88e5a51c9",
    "specjbb/pc": "84533a9b39cd2a5929abe0abeab65f6ac07e21676d1935a6872214fb50ee6159",
    "specjbb/wc": "aca4cde9a769b64965d707b44040917de310eddb6fc9f5e693fff4c8a7153baa",
    "specweb/pc": "d9f909a44f4f4961600d28a8acc6480892dcc706e49e27b331faa6864b0b6d53",
    "specweb/wc": "372424a7ca1a8e328db78349d538296a0b46e8fe6eea8e32e887ba6cd33522f0",
    "tpcw/pc": "3f95d32baa0b39d72d07863961034487771f0d5143a1abf30dbc7805685c810a",
    "tpcw/wc": "70e085b8fb09498d28b99c1fda59835dd16cb3ca21b1b1054b9b3107a42e5b0e",
    "database/smac256/1n": "2b0047d096dc6e16694994c5a8e10bb2b1bcad35bdadfa28a3b1c35b4968b747",
    "database/smac256/2n": "22592e93491574619eaf1d6f246b8aaf27bce64963e466c12cd656c113a69a7b",
    "database/smac256/4n": "22592e93491574619eaf1d6f246b8aaf27bce64963e466c12cd656c113a69a7b",
    "specjbb/smac256/1n": "55a27a073d590a45f1eb5ee0d1990d781b5df369701c525b048dc0fe785b9036",
    "specjbb/smac256/2n": "ffe8720314647e214a3ba13b5a34614d434b2dda838da5c3c6c1f8827034cc51",
    "specjbb/smac256/4n": "ffe8720314647e214a3ba13b5a34614d434b2dda838da5c3c6c1f8827034cc51",
    "specweb/smac256/1n": "fd435c5d13906cc37e2286fcfb5bb14470ebada384f56dcb777698d6c1ad57de",
    "specweb/smac256/2n": "7349ba4cdbd56b38c0188ee8c977564d86f6d2b0cc0481c144cf927eaac60579",
    "specweb/smac256/4n": "7349ba4cdbd56b38c0188ee8c977564d86f6d2b0cc0481c144cf927eaac60579",
    "tpcw/smac256/1n": "e29875bc0875fc639ee08304490a312fcba262292b7fb0ae767f03519b9311b3",
    "tpcw/smac256/2n": "bb9297247c3882d536ff077936fb20660c2ccf7854204656cae089853857dbb0",
    "tpcw/smac256/4n": "bb9297247c3882d536ff077936fb20660c2ccf7854204656cae089853857dbb0",
}


def _trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for inst in trace:
        digest.update(
            f"{inst.kind.value},{inst.pc},{inst.address},{inst.size},"
            f"{inst.dest},{inst.srcs},{inst.taken:d},{inst.target},"
            f"{inst.lock_acquire:d},{inst.lock_release:d};".encode()
        )
    return digest.hexdigest()


def _annotation_digest(annotated, counters) -> str:
    digest = hashlib.sha256()
    for inst, info in annotated:
        digest.update(
            f"{inst.pc},{inst.kind.value},{inst.address},{info.inst_miss:d}"
            f"{info.data_miss:d}{info.smac_hit:d}{info.upgrade:d}"
            f"{info.mispredicted:d};".encode()
        )
    digest.update(json.dumps(
        dataclasses.asdict(counters), sort_keys=True,
    ).encode())
    return digest.hexdigest()


def trace_digests() -> dict:
    """Digest of every generated trace, keyed ``workload/seed/profile``."""
    digests = {}
    for name in sorted(WORKLOADS):
        base = WORKLOADS[name]
        for seed in SEEDS:
            for label, profile in (("base", base),
                                   ("rescaled", base.with_(**RESCALE))):
                trace = WorkloadGenerator(profile, seed).generate(
                    WARMUP + MEASURE
                )
                digests[f"{name}/{seed}/{label}"] = _trace_digest(trace)
    return digests


def _bench() -> Workbench:
    return Workbench(
        ExperimentSettings(warmup=WARMUP, measure=MEASURE, seed=SEEDS[0],
                           calibrate=False),
        cache_dir=None,
    )


def annotation_stages() -> dict:
    """``(digest, counters)`` of every annotation, keyed
    ``workload/variant`` or ``workload/smac256/<nodes>n``."""
    stages = {}
    bench = _bench()
    for name in sorted(WORKLOADS):
        for variant in ("pc", "wc"):
            annotated = bench.annotated(name, variant)
            counters = bench.memory_for(name, variant)
            stages[f"{name}/{variant}"] = (
                _annotation_digest(annotated, counters), counters,
            )
    for name in sorted(WORKLOADS):
        bench.set_profile(name, smac_scaled_profile(name))
        for nodes in SMAC_NODES:
            sharing = SharingSettings(nodes=nodes)
            annotated = bench.annotated(
                name, memory_config=smac_memory_config(256),
                sharing=sharing, tag="smac-256",
            )
            counters = bench.memory_for(name, sharing=sharing, tag="smac-256")
            stages[f"{name}/smac256/{nodes}n"] = (
                _annotation_digest(annotated, counters), counters,
            )
    return stages


@pytest.fixture(scope="module")
def traces() -> dict:
    return trace_digests()


@pytest.fixture(scope="module")
def annotations() -> dict:
    return annotation_stages()


@pytest.mark.parametrize("key", sorted(TRACE_GOLDEN))
def test_trace_is_bit_identical(traces, key):
    assert traces[key] == TRACE_GOLDEN[key]


@pytest.mark.parametrize("key", sorted(ANNOTATION_GOLDEN))
def test_annotation_is_bit_identical(annotations, key):
    assert annotations[key][0] == ANNOTATION_GOLDEN[key]


@pytest.mark.parametrize("nodes", SMAC_NODES)
def test_smac_configurations_exercise_the_smac(annotations, nodes):
    """The SMAC goldens pin live SMAC state, not all-zero counters."""
    for name in sorted(WORKLOADS):
        counters = annotations[f"{name}/smac256/{nodes}n"][1]
        assert counters.smac.inserts > 0
        assert counters.stats.smac_hits > 0


def test_every_configuration_is_pinned(traces, annotations):
    assert sorted(traces) == sorted(TRACE_GOLDEN)
    assert sorted(annotations) == sorted(ANNOTATION_GOLDEN)


if __name__ == "__main__":
    print("TRACE_GOLDEN =", json.dumps(trace_digests(), indent=4))
    print("ANNOTATION_GOLDEN =", json.dumps(
        {key: stage[0] for key, stage in annotation_stages().items()},
        indent=4,
    ))
