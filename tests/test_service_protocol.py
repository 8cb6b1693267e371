"""Request validation and wire serialization (repro.service.protocol)."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest

from repro.config import ScoutMode, StorePrefetchMode
from repro.core.epoch import EpochRecord, TerminationCondition, TriggerKind
from repro.core.results import SimulationResult
from repro.engine import from_jsonable, to_jsonable
from repro.engine.serialize import SerializeError
from repro.engine.runner import JobResult, JobSpec, RunReport, ShardedReport
from repro.fleet.frontend import _AsyncFrontend
from repro.harness.sweeps import SweepSpec
from repro.service.protocol import (
    PROTOCOL_VERSION,
    JobRequest,
    ProtocolError,
    jsonify,
    parse_job_request,
)


def wire(payload):
    """Force a real JSON round trip, as HTTP would."""
    return json.loads(json.dumps(payload))


class TestParseJobRequest:
    def test_sweep_request_coerces_enum_axes(self):
        request = parse_job_request({
            "kind": "sweep",
            "sweep": {
                "workloads": ["database", "tpcw"],
                "axes": {
                    "store_prefetch": ["sp0", "sp2"],
                    "store_queue": [16, 32],
                },
            },
        })
        assert request.kind == "sweep"
        axes = request.sweep.axes_dict
        assert axes["store_prefetch"] == [
            StorePrefetchMode.NONE, StorePrefetchMode.AT_EXECUTE,
        ]
        assert axes["store_queue"] == [16, 32]
        assert len(request.sweep.to_jobs()) == 2 * 4

    def test_sweep_accepts_singular_workload(self):
        request = parse_job_request({
            "kind": "sweep",
            "sweep": {"workload": "database",
                      "axes": {"store_queue": [16]}},
        })
        assert request.sweep.workloads == ("database",)

    def test_simulate_request(self):
        request = parse_job_request({
            "kind": "simulate",
            "job": {
                "workload": "specjbb",
                "variant": "wc",
                "core_changes": {"scout": "hws2", "store_buffer": 8},
            },
        })
        assert request.job == JobSpec(
            workload="specjbb", variant="wc",
            core_changes=(("scout", ScoutMode.HWS2), ("store_buffer", 8)),
        )

    def test_figure_request_defaults_all_workloads(self):
        request = parse_job_request({"kind": "figure", "figure": "figure2"})
        assert request.figure == "figure2"
        assert len(request.workloads) == 4

    @pytest.mark.parametrize("payload,fragment", [
        ("not a dict", "JSON object"),
        ({}, "'kind'"),
        ({"kind": "dance"}, "'kind'"),
        ({"kind": "sweep"}, "'sweep'"),
        ({"kind": "sweep", "sweep": {"workloads": [], "axes": {"a": [1]}}},
         "workloads"),
        ({"kind": "sweep",
          "sweep": {"workloads": ["nosuch"], "axes": {"a": [1]}}},
         "unknown workloads"),
        ({"kind": "sweep",
          "sweep": {"workloads": ["database"], "axes": {}}}, "axes"),
        ({"kind": "sweep",
          "sweep": {"workloads": ["database"],
                    "axes": {"store_prefetch": ["sp9"]}}}, "sp9"),
        ({"kind": "simulate"}, "'job'"),
        ({"kind": "simulate", "job": {"workload": "nosuch"}},
         "'job.workload'"),
        ({"kind": "figure", "figure": "figure99"}, "'figure'"),
        ({"kind": "sweep", "priority": "high",
          "sweep": {"workloads": ["database"],
                    "axes": {"store_queue": [16]}}}, "priority"),
    ])
    def test_bad_payloads_raise_protocol_error(self, payload, fragment):
        with pytest.raises(ProtocolError) as excinfo:
            parse_job_request(payload)
        assert fragment.lower() in str(excinfo.value).lower()

    def test_current_protocol_version_accepted(self):
        request = parse_job_request(wire({
            "v": PROTOCOL_VERSION,
            "kind": "simulate",
            "job": {"workload": "database"},
        }))
        assert request.kind == "simulate"

    def test_missing_version_accepted_as_v1(self):
        # Pre-versioning clients (and curl) send no "v".  The request
        # format is the same in v1 and v2 (only results changed), so the
        # request is still understood.
        request = parse_job_request(wire({
            "kind": "simulate", "job": {"workload": "database"},
        }))
        assert request.kind == "simulate"

    @pytest.mark.parametrize("version", [1, 0, "2", None, 3])
    def test_unsupported_version_is_structured_400(self, version):
        with pytest.raises(ProtocolError) as excinfo:
            parse_job_request(wire({
                "v": version,
                "kind": "simulate",
                "job": {"workload": "database"},
            }))
        assert excinfo.value.status == 400
        message = str(excinfo.value)
        assert "protocol version" in message
        assert f"v{PROTOCOL_VERSION}" in message

    @pytest.mark.parametrize("field", ["shard", "fault", "priorty"])
    def test_unknown_top_level_field_is_structured_400(self, field):
        # A field the protocol does not define (a typo, or one an older
        # version had) is refused, never silently ignored.
        with pytest.raises(ProtocolError) as excinfo:
            parse_job_request(wire({
                "kind": "simulate", "job": {"workload": "database"},
                field: 1,
            }))
        assert excinfo.value.status == 400
        assert repr(field) in str(excinfo.value)

    def test_search_kind_is_structured_400_naming_the_kinds(self):
        # The design-space search kind is gone from v4; its submission is
        # answered with the valid kinds, whatever fields it carries.
        with pytest.raises(ProtocolError) as excinfo:
            parse_job_request(wire({
                "v": PROTOCOL_VERSION, "kind": "tune",
                "tune": {"workload": "database",
                         "space": {"store_buffer": [4, 16]}},
            }))
        assert excinfo.value.status == 400
        message = str(excinfo.value)
        assert "'kind' must be one of" in message
        for kind in ("sweep", "simulate", "figure", "estimate"):
            assert repr(kind) in message
        assert "'tune'" not in message.split("one of", 1)[1]

    def test_priority_excluded_from_signature(self):
        body = {
            "kind": "sweep",
            "sweep": {"workloads": ["database"],
                      "axes": {"store_queue": [16, 32]}},
        }
        low = parse_job_request({**body, "priority": 0})
        high = parse_job_request({**body, "priority": 9})
        assert low.signature() == high.signature()

    def test_different_work_different_signature(self):
        def build(queues):
            return parse_job_request({
                "kind": "sweep",
                "sweep": {"workloads": ["database"],
                          "axes": {"store_queue": queues}},
            })
        assert build([16, 32]).signature() != build([16, 64]).signature()


class TestWireRoundTrips:
    def test_job_request_round_trip(self):
        request = parse_job_request({
            "kind": "sweep",
            "priority": 2,
            "sweep": {"workloads": ["database"],
                      "axes": {"store_prefetch": ["sp0", "sp1"]}},
        })
        assert JobRequest.from_dict(wire(request.to_dict())) == request

    def test_sweep_spec_round_trip(self):
        spec = SweepSpec.build(
            ["database", "specweb"], variant="wc",
            store_queue=[16, 32], scout=["none", "hws1"],
        )
        back = SweepSpec.from_dict(wire(spec.to_dict()))
        assert back == spec
        assert back.to_jobs() == spec.to_jobs()

    def test_simulation_result_round_trip_is_exact(self):
        result = SimulationResult(
            instructions=1000,
            epochs=[
                EpochRecord(
                    index=0, trigger=TriggerKind.STORE,
                    termination=TerminationCondition.STORE_SERIALIZE,
                    store_misses=3, load_misses=1, instructions=140,
                ),
                EpochRecord(
                    index=1, trigger=TriggerKind.LOAD,
                    termination=TerminationCondition.WINDOW_FULL,
                    load_misses=2, instructions=77,
                ),
            ],
            fully_overlapped_stores=4,
            stores_committed=55,
            store_prefetch_requests=13,
        )
        back = from_jsonable(wire(to_jsonable(result)))
        assert back == result
        assert back.epi_per_1000 == result.epi_per_1000
        assert back.store_bandwidth_overhead == \
            result.store_bandwidth_overhead

    def test_run_report_round_trip(self):
        spec = JobSpec(
            workload="database",
            core_changes=(("store_prefetch", StorePrefetchMode.AT_RETIRE),),
        )
        report = RunReport(
            jobs=[JobResult(
                spec=spec, status="ok", wall_time=0.25,
                result=SimulationResult(instructions=10),
                cache_hits=2, cache_misses=1,
            )],
            wall_time=0.5,
            workers=2,
        )
        back = RunReport.from_dict(wire(report.to_dict()))
        assert back == report
        assert back.summary() == report.summary()

    def test_unknown_dataclass_field_is_rejected(self):
        record = EpochRecord(
            index=0, trigger=TriggerKind.LOAD,
            termination=TerminationCondition.WINDOW_FULL,
        )
        payload = wire(to_jsonable(record))
        assert from_jsonable(payload) == record
        payload["fields"]["bogus"] = 1
        with pytest.raises(SerializeError, match=r"unknown fields \['bogus'\]"):
            from_jsonable(payload)

    def test_failed_job_round_trip_keeps_error(self):
        spec = JobSpec(workload="tpcw")
        job = JobResult(
            spec=spec, status="failed", error="ValueError: boom", attempts=2,
        )
        back = JobResult.from_dict(wire(job.to_dict()))
        assert back == job and not back.ok


def random_epochs(seed, count):
    rng = random.Random(seed)
    return [
        EpochRecord(
            index=index,
            trigger=rng.choice(list(TriggerKind)),
            termination=rng.choice(list(TerminationCondition)),
            store_misses=rng.randrange(12),
            load_misses=rng.randrange(6),
            inst_misses=rng.randrange(2),
            instructions=rng.randrange(1, 400),
            scouted=rng.random() < 0.3,
        )
        for index in range(count)
    ]


def epoch_columns(epochs):
    return wire(to_jsonable(epochs))


class TestColumnarEpochs:
    """Epoch record lists travel as one ``$cols`` object per list."""

    @pytest.mark.parametrize("seed,count", [(0, 0), (1, 1), (2, 7), (3, 400)])
    def test_seeded_round_trip(self, seed, count):
        epochs = random_epochs(seed, count)
        back = from_jsonable(epoch_columns(epochs))
        assert back == epochs
        assert all(type(record) is EpochRecord for record in back)

    def test_every_enum_value_and_scouted_both_ways(self):
        combos = itertools.product(
            TriggerKind, TerminationCondition, (False, True),
        )
        epochs = [
            EpochRecord(index=i, trigger=trigger, termination=termination,
                        store_misses=i % 3, instructions=i, scouted=scouted)
            for i, (trigger, termination, scouted) in enumerate(combos)
        ]
        payload = epoch_columns(epochs)
        assert payload["$cols"] == "EpochRecord"
        assert set(payload["fields"]["trigger"]) == \
            {kind.value for kind in TriggerKind}
        assert from_jsonable(payload) == epochs

    def test_simulation_result_through_json_text(self):
        result = SimulationResult(
            instructions=12_000, epochs=random_epochs(4, 60),
            fully_overlapped_stores=9, scout_episodes=3,
            stores_committed=700, sq_occupancy_hwm=31,
        )
        text = json.dumps(to_jsonable(result))
        assert '"$cols": "EpochRecord"' in text
        back = from_jsonable(json.loads(text))
        assert back == result
        assert back.epi_per_1000 == result.epi_per_1000

    def test_sharded_report_through_json_text(self):
        from repro.shard.plan import ShardPlan

        spec = JobSpec(workload="database")
        shards = [
            SimulationResult(instructions=500, epochs=random_epochs(5, 9)),
            SimulationResult(instructions=700, epochs=random_epochs(6, 13)),
        ]
        merged = SimulationResult(
            instructions=1200,
            epochs=[
                dataclasses.replace(record, index=index)
                for index, record in enumerate(
                    shards[0].epochs + shards[1].epochs)
            ],
        )
        report = ShardedReport(
            spec=spec,
            plan=ShardPlan(instructions=1200, requested=2, cuts=(500,)),
            jobs=[JobResult(spec=spec, status="ok", result=result)
                  for result in shards],
            merged=merged,
        )
        back = from_jsonable(json.loads(json.dumps(to_jsonable(report))))
        assert back == report
        assert back.merged.epoch_count == 22

    def test_per_record_form_still_decodes(self):
        # Result-store entries written before the columns existed hold one
        # tagged dict per record.
        result = SimulationResult(instructions=900, epochs=random_epochs(7, 5))
        legacy = to_jsonable(result)
        legacy["fields"]["epochs"] = [
            to_jsonable(record) for record in result.epochs
        ]
        assert legacy["fields"]["epochs"][0]["$dc"] == "EpochRecord"
        assert from_jsonable(wire(legacy)) == result

    def test_columns_take_a_quarter_of_the_per_record_bytes(self):
        epochs = random_epochs(8, 500)
        columns = json.dumps(to_jsonable(epochs))
        records = json.dumps([to_jsonable(record) for record in epochs])
        assert 4 * len(columns) <= len(records)

    @pytest.mark.parametrize("damage,fragment", [
        (lambda p: p["fields"]["load_misses"].pop(), "ragged"),
        (lambda p: p["fields"].update(bogus=[0, 0, 0]), "unknown ['bogus']"),
        (lambda p: p["fields"].pop("scouted"), "missing ['scouted']"),
        (lambda p: p["fields"]["trigger"].__setitem__(1, "rename"),
         "not a TriggerKind"),
        (lambda p: p["fields"]["termination"].__setitem__(0, ["x"]),
         "not a TerminationCondition"),
        (lambda p: p["fields"]["index"].__setitem__(2, "2"), "not int"),
        (lambda p: p["fields"].__setitem__("index", 3), "not a list"),
        (lambda p: p.__setitem__("fields", [1]), "must be an object"),
        (lambda p: p.__setitem__("$cols", "Epoch"), "unknown column type"),
        (lambda p: p.__setitem__("$cols", "SimulationResult"),
         "unknown column type"),
    ])
    def test_malformed_columns_raise(self, damage, fragment):
        payload = epoch_columns(random_epochs(9, 3))
        assert len(from_jsonable(payload)) == 3
        damage(payload)
        with pytest.raises(SerializeError) as excinfo:
            from_jsonable(payload)
        assert fragment in str(excinfo.value)

    def test_record_with_a_wrongly_typed_field_is_not_encoded(self):
        epochs = random_epochs(10, 2)
        epochs[1].trigger = "store"
        with pytest.raises(SerializeError, match="EpochRecord.trigger"):
            to_jsonable(epochs)


class TestCompactResponses:
    def test_encoded_response_is_one_line(self):
        payload = {
            "v": PROTOCOL_VERSION, "state": "done",
            "result": {"summary": "line one\nline two",
                       "report": to_jsonable(random_epochs(11, 4))},
        }
        body = _AsyncFrontend._encode_json(payload)
        assert b"\n" not in body
        # the default separators keep fields greppable by curl checks
        assert b'"state": "done"' in body
        assert json.loads(body) == payload


class TestJsonify:
    def test_enum_keys_and_values_become_strings(self):
        data = {
            TriggerKind.STORE: {(1, 2): 0.5},
            "plain": [StorePrefetchMode.NONE, 3, None],
        }
        assert jsonify(data) == {
            "store": {"1,2": 0.5},
            "plain": ["sp0", 3, None],
        }


class TestSmtRequests:
    """SMT fields and the ``estimate`` kind on the wire."""

    def test_simulate_carries_contexts_and_scheduler(self):
        request = parse_job_request(wire({
            "kind": "simulate",
            "job": {
                "workload": "oltp_java",
                "contexts": 2,
                "scheduler": "mlp",
            },
        }))
        assert request.job.contexts == 2
        assert request.job.scheduler == "mlp"

    def test_contexts_default_to_single(self):
        request = parse_job_request({
            "kind": "simulate", "job": {"workload": "database"},
        })
        assert request.job.contexts == 1
        assert request.job.scheduler == ""

    def test_mix_workloads_need_multiple_contexts(self):
        with pytest.raises(ProtocolError) as err:
            parse_job_request({
                "kind": "simulate", "job": {"workload": "oltp_java"},
            })
        assert "workload" in str(err.value)

    @pytest.mark.parametrize("contexts", [0, -1, True, "two", 2.5])
    def test_bad_contexts_rejected(self, contexts):
        with pytest.raises(ProtocolError):
            parse_job_request({
                "kind": "simulate",
                "job": {"workload": "database", "contexts": contexts},
            })

    def test_unknown_scheduler_lists_policies(self):
        with pytest.raises(ProtocolError) as err:
            parse_job_request({
                "kind": "simulate",
                "job": {"workload": "database", "contexts": 2,
                        "scheduler": "fifo"},
            })
        assert "valid schedulers" in str(err.value)

    def test_smt_jobs_cannot_shard(self):
        with pytest.raises(ProtocolError) as err:
            parse_job_request({
                "kind": "simulate",
                "job": {"workload": "database", "contexts": 2},
                "shards": 2,
            })
        assert "sharded" in str(err.value)

    def test_smt_fields_change_the_signature(self):
        def build(job):
            return parse_job_request({"kind": "simulate", "job": job})

        base = build({"workload": "database"})
        smt = build({"workload": "database", "contexts": 2})
        mlp = build({"workload": "database", "contexts": 2,
                     "scheduler": "mlp"})
        assert base.signature() != smt.signature()
        assert smt.signature() != mlp.signature()

    def test_estimate_request(self):
        request = parse_job_request(wire({
            "kind": "estimate",
            "job": {
                "workload": "database",
                "core_changes": {"scout": "hws2"},
            },
        }))
        assert request.kind == "estimate"
        assert request.job.workload == "database"
        assert "estimate[" in request.describe()

    def test_estimate_accepts_smt_specs(self):
        request = parse_job_request({
            "kind": "estimate",
            "job": {"workload": "oltp_java", "contexts": 2},
        })
        assert request.job.contexts == 2

    def test_estimate_validates_like_simulate(self):
        with pytest.raises(ProtocolError):
            parse_job_request({
                "kind": "estimate",
                "job": {"workload": "database", "contexts": 0},
            })
