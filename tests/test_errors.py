"""The unified error surface (repro.errors) and its service mirroring.

Three properties matter: every package error descends from ReproError
with a stable machine-readable code; the two compatibility classes are
still the builtins old call sites catch; and the service daemon mirrors
the code of whatever failed into its 4xx/5xx JSON bodies.
"""

from __future__ import annotations

import pytest

from repro import errors
from repro.errors import (
    BatchFailedError,
    EngineConfigError,
    EngineError,
    FaultInjectedError,
    ProtocolError,
    ReproError,
    ShardBoundaryError,
)

ALL_ERRORS = [
    value
    for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, ReproError)
]


class TestHierarchy:
    def test_every_error_is_a_repro_error(self):
        assert len(ALL_ERRORS) >= 10
        for cls in ALL_ERRORS:
            assert issubclass(cls, ReproError)

    def test_codes_are_stable_unique_slugs(self):
        codes = [cls.code for cls in ALL_ERRORS]
        assert len(set(codes)) == len(codes), "codes must not collide"
        for code in codes:
            assert code == code.lower()
            assert " " not in code

    def test_new_shard_codes(self):
        assert ShardBoundaryError.code == "shard-boundary"
        assert FaultInjectedError.code == "fault-injected"
        assert ProtocolError.code == "protocol-invalid"

    def test_one_except_clause_catches_everything(self):
        for cls in ALL_ERRORS:
            with pytest.raises(ReproError):
                raise cls("boom")


class TestCompatibility:
    def test_engine_config_error_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            raise EngineConfigError("bad knob")
        assert issubclass(EngineConfigError, EngineError)

    def test_batch_failed_error_is_still_a_runtime_error(self):
        with pytest.raises(RuntimeError):
            raise BatchFailedError("3/4 jobs failed")

    def test_protocol_error_carries_http_status(self):
        assert ProtocolError("nope").status == 400
        assert ProtocolError("gone", status=409).status == 409

    def test_old_import_path_still_works(self):
        from repro.service.protocol import ProtocolError as OldPath

        assert OldPath is ProtocolError


class TestEngineRaisesTyped:
    def test_bad_runner_params_raise_engine_config_error(self):
        from repro.engine.runner import EngineRunner

        with pytest.raises(EngineConfigError):
            EngineRunner(job_timeout=0)
        with pytest.raises(EngineConfigError):
            EngineRunner(retries=-1)

    def test_sharded_rejects_non_simulate_spec(self, tmp_path):
        from repro.engine.runner import EngineRunner, JobSpec
        from repro.harness import ExperimentSettings

        runner = EngineRunner(
            settings=ExperimentSettings(
                warmup=1500, measure=4000, seed=11, calibrate=False,
            ),
            cache_dir=tmp_path, workers=1,
        )
        with pytest.raises(EngineConfigError):
            runner.run_sharded(
                JobSpec(workload="database", action="annotate"), 2,
            )
        with pytest.raises(EngineConfigError):
            runner.run_sharded(JobSpec(workload="database"), 0)


class TestServiceMirrorsCodes:
    @pytest.fixture()
    def service(self, tmp_path):
        from test_service_server import Served

        served = Served(tmp_path / "cache")
        yield served
        served.stop()

    def test_protocol_error_code_in_400_body(self, service):
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(service.url, timeout=10.0)
        with pytest.raises(ServiceError) as info:
            client.submit({"kind": "definitely-not-a-kind"})
        assert info.value.status == 400
        assert info.value.payload.get("code") == "protocol-invalid"

    def test_unknown_job_404_has_no_stray_code(self, service):
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(service.url, timeout=10.0)
        with pytest.raises(ServiceError) as info:
            client.status("no-such-job")
        assert info.value.status == 404
