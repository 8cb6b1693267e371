"""The repro.api facade: one front door over workbench, engine, service."""

from __future__ import annotations

import importlib

import pytest

from repro import api
from repro.config import ScoutMode
from repro.harness.experiment import Workbench

SMALL = api.ExperimentSettings(
    warmup=1500, measure=4000, seed=11, calibrate=False,
)


class TestRun:
    def test_matches_a_direct_workbench_run(self):
        via_api = api.run("database", settings=SMALL, cache_dir=None)
        direct = Workbench(SMALL, cache_dir=None).run("database")
        assert via_api == direct

    def test_core_changes_reach_the_simulation(self):
        base = api.run("database", settings=SMALL, cache_dir=None)
        prefetched = api.run(
            "database", settings=SMALL, cache_dir=None, store_prefetch="sp2",
        )
        assert prefetched.epi_per_1000 <= base.epi_per_1000

    def test_shared_workbench_reuses_artifacts(self):
        bench = api.workbench(SMALL, cache_dir=None)
        first = api.run("database", bench=bench)
        second = api.run("database", bench=bench, store_queue=16)
        assert first.instructions == second.instructions
        # one annotation served both runs
        assert bench.artifacts.stats.memory_hits > 0

    def test_jobspec_shaped_mapping_matches_direct_run(self):
        # The JobSpec convention the service speaks works at the front
        # door too: a mapping with core_changes in wire spellings.
        via_mapping = api.run(
            {"workload": "database", "variant": "wc",
             "core_changes": {"scout": "hws2", "store_queue": 16}},
            settings=SMALL, cache_dir=None,
        )
        direct = Workbench(SMALL, cache_dir=None).run(
            "database", variant="wc",
            scout=ScoutMode.HWS2, store_queue=16,
        )
        assert via_mapping == direct

    def test_explicit_kwargs_override_jobspec_fields(self):
        overridden = api.run(
            {"workload": "database", "core_changes": {"store_queue": 16}},
            settings=SMALL, cache_dir=None, store_queue=64,
        )
        direct = Workbench(SMALL, cache_dir=None).run(
            "database", store_queue=64,
        )
        assert overridden == direct

    def test_unknown_knob_lists_valid_axes(self):
        with pytest.raises(ValueError, match="valid axes"):
            api.run("database", settings=SMALL, cache_dir=None,
                    warp_drive=9)

    def test_unknown_job_field_lists_valid_fields(self):
        with pytest.raises(ValueError, match="valid fields"):
            api.run({"workload": "database", "cromulence": 3},
                    settings=SMALL, cache_dir=None)


class TestSweep:
    def test_spec_object_and_mapping_agree(self):
        spec = api.SweepSpec.build("database", store_queue=[16, 32])
        from_spec = api.sweep(
            spec, settings=SMALL, cache_dir=None, workers=1,
        )
        from_mapping = api.sweep(
            {"workloads": ["database"], "axes": {"store_queue": [16, 32]}},
            settings=SMALL, cache_dir=None, workers=1,
        )
        assert [r.epi_per_1000 for r in from_spec] == \
            [r.epi_per_1000 for r in from_mapping]
        assert [dict(r.point)["store_queue"] for r in from_spec] == [16, 32]

    def test_records_match_serial_runs(self):
        records = api.sweep(
            api.SweepSpec.build("database", store_queue=[16, 32]),
            settings=SMALL, cache_dir=None, workers=1,
        )
        bench = Workbench(SMALL, cache_dir=None)
        for record in records:
            direct = bench.run("database", **dict(record.point))
            assert record.epi_per_1000 == direct.epi_per_1000

    def test_malformed_mapping_is_a_type_error(self):
        with pytest.raises(TypeError, match="SweepSpec"):
            api.sweep({"axes": {"store_queue": [16]}})
        with pytest.raises(TypeError, match="SweepSpec"):
            api.sweep("database")

    def test_sharded_sweep_is_bit_identical(self, tmp_path):
        spec = api.SweepSpec.build("database", store_queue=[16, 32])
        plain = api.sweep(
            spec, settings=SMALL, cache_dir=None, workers=1,
        )
        sharded = api.sweep(
            spec, settings=SMALL, cache_dir=tmp_path / "shards",
            workers=1, shards=2,
        )
        assert [r.point for r in sharded] == [r.point for r in plain]
        assert [r.epi_per_1000 for r in sharded] == \
            [r.epi_per_1000 for r in plain]


class TestSurface:
    def test_connect_builds_a_client(self):
        client = api.connect(
            "http://127.0.0.1:9/", timeout=1.0, retries=0,
        )
        assert client.base_url == "http://127.0.0.1:9"
        assert client.retries == 0

    def test_facade_is_exported_from_the_package_root(self):
        import repro

        assert repro.api is api
        assert "api" in repro.__all__

    def test_canonical_homes_remain_importable(self):
        # v2 removed the *aliases*; the classes themselves stay
        # importable from their canonical modules for extension code.
        from repro.engine.runner import EngineRunner
        from repro.harness.experiment import Workbench
        from repro.service.client import ServiceClient

        assert api.EngineRunner is EngineRunner
        assert api.Workbench is Workbench
        assert api.ServiceClient is ServiceClient

    def test_no_design_space_search_surface(self):
        # An exhaustive sweep is the design-space tool; the search
        # package and its facade are gone.
        from repro.service.client import ServiceClient

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.tune")
        for name in ("tune", "SearchSpace", "TuneResult", "TuneSpec"):
            assert not hasattr(api, name)
            assert name not in api.__all__
        assert not hasattr(ServiceClient, "submit_tune")


class TestRunContexts:
    """The redesigned ``contexts=``/``scheduler=`` axis on ``api.run``."""

    def test_multi_context_returns_an_smt_result(self):
        result = api.run(
            "oltp_java", settings=SMALL, cache_dir=None,
            contexts=2, scheduler="mlp",
        )
        assert isinstance(result, api.SmtResult)
        assert result.scheduler == "mlp"
        assert [c.workload for c in result.contexts] == [
            "database", "specjbb",
        ]

    def test_jobspec_mapping_carries_the_smt_fields(self):
        result = api.run(
            {"workload": "database", "contexts": 2},
            settings=SMALL, cache_dir=None,
        )
        assert isinstance(result, api.SmtResult)
        assert result.scheduler == "round_robin"

    def test_single_context_keeps_the_reference_result(self):
        bench = api.workbench(SMALL, cache_dir=None)
        assert api.run("database", bench=bench, contexts=1) == \
            bench.run("database")

    def test_scheduler_requires_multiple_contexts(self):
        with pytest.raises(ValueError, match="contexts > 1"):
            api.run(
                "database", settings=SMALL, cache_dir=None,
                scheduler="mlp",
            )

    def test_contexts_cannot_shard(self):
        with pytest.raises(ValueError, match="not shardable"):
            api.run(
                "database", settings=SMALL, cache_dir=None,
                contexts=2, shards=2,
            )

    def test_contexts_cannot_trace(self):
        with pytest.raises(ValueError, match="trace="):
            api.run(
                "database", settings=SMALL, cache_dir=None,
                contexts=2, trace="run.jsonl",
            )

    def test_valid_schedulers_exported(self):
        assert "mlp" in api.valid_schedulers()


class TestJobSpecSmtFields:
    def test_coerce_validates_contexts(self):
        from repro.engine.runner import JobSpec

        with pytest.raises(ValueError, match="integer >= 1"):
            JobSpec.coerce({"workload": "database", "contexts": 0})

    def test_coerce_validates_scheduler(self):
        from repro.engine.runner import JobSpec

        with pytest.raises(ValueError, match="valid schedulers"):
            JobSpec.coerce({
                "workload": "database", "contexts": 2, "scheduler": "fifo",
            })

    def test_describe_shows_the_smt_suffix(self):
        from repro.engine.runner import JobSpec

        spec = JobSpec.coerce({
            "workload": "oltp_java", "contexts": 2, "scheduler": "mlp",
        })
        assert "x2" in spec.describe()
        assert "mlp" in spec.describe()
