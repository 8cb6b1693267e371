"""Phase decomposition and span-tree tests for repro.obs.timeline.

Events here are hand-built coordinator traces: the contract under test is
that a job's wall time is tiled *exactly* by the five phases (the <=5%
reconciliation bound in the fleet acceptance check is slack for clock
reads, not for gaps in the model), and that cross-process span stitching
distinguishes a connected tree from a split one.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    PHASES,
    aggregate_phases,
    connected_roots,
    critical_path,
    fleet_job_ids,
    job_timeline,
    render_timeline_report,
    span_tree,
)


def _span(kind, name, corr, span_id, parent="", ts=0.0, **attrs):
    event = {
        "kind": kind, "name": name, "corr": corr, "span": "",
        "id": span_id, "parent": parent, "ts": ts,
    }
    event.update(attrs)
    return event


def fleet_trace():
    """A two-task job where one shard's worker dies and the task reruns.

    t=10 submit, t=11 expanded, task A runs 12..15 on w1; task B leased
    at 12.5 on w2 which dies, is re-leased at 18 to w1, completes at 22;
    the job assembles and finishes at 23.
    """
    j = "job-1"
    return [
        _span("span_start", "fleet_job", j, "root", ts=10.0, job=j),
        {"kind": "fleet_job_expanded", "corr": j, "ts": 11.0, "tasks": 2},
        {"kind": "fleet_task_leased", "corr": j, "ts": 12.0, "task": "A",
         "worker": "w1", "attempt": 1},
        {"kind": "fleet_task_leased", "corr": j, "ts": 12.5, "task": "B",
         "worker": "w2", "attempt": 1},
        {"kind": "fleet_task_complete", "corr": j, "ts": 15.0, "task": "A",
         "worker": "w1", "state": "done"},
        {"kind": "fleet_worker_evicted", "corr": j, "ts": 17.0,
         "worker": "w2"},
        {"kind": "fleet_task_leased", "corr": j, "ts": 18.0, "task": "B",
         "worker": "w1", "attempt": 2},
        {"kind": "fleet_task_complete", "corr": j, "ts": 22.0, "task": "B",
         "worker": "w1", "state": "done"},
        _span("span_end", "fleet_job", j, "root", ts=23.0, dur=13.0,
              state="done"),
    ]


class TestSpanTree:
    def test_connected_tree_has_single_root(self):
        events = [
            _span("span_start", "fleet_job", "j", "root", ts=1.0),
            # Worker-side spans parent into the coordinator's root via
            # the propagated traceparent.
            _span("span_start", "engine_batch", "j", "batch", "root", 2.0),
            _span("span_start", "simulate", "j", "sim", "batch", 3.0),
            _span("span_end", "simulate", "j", "sim", "batch", 4.0, dur=1.0),
            _span("span_end", "engine_batch", "j", "batch", "root", 5.0,
                  dur=3.0),
            _span("span_end", "fleet_job", "j", "root", ts=6.0, dur=5.0),
        ]
        nodes = span_tree(events, "j")
        assert nodes["root"]["children"] == ["batch"]
        assert nodes["batch"]["children"] == ["sim"]
        assert connected_roots(events, "j") == {"root"}

    def test_unpropagated_span_splits_the_tree(self):
        events = [
            _span("span_start", "fleet_job", "j", "root", ts=1.0),
            _span("span_start", "engine_batch", "j", "orphan",
                  "missing-parent", 2.0),
        ]
        assert connected_roots(events, "j") == {"root", "orphan"}

    def test_sigkilled_span_keeps_open_end(self):
        events = [
            _span("span_start", "fleet_job", "j", "root", ts=1.0),
            _span("span_start", "engine_batch", "j", "killed", "root", 2.0),
        ]
        nodes = span_tree(events, "j")
        assert nodes["killed"]["end"] is None
        assert connected_roots(events, "j") == {"root"}

    def test_fleet_job_ids_in_submit_order(self):
        events = [
            _span("span_start", "fleet_job", "j2", "r2", ts=2.0),
            _span("span_start", "fleet_job", "j1", "r1", ts=1.0),
            _span("span_start", "engine_batch", "j3", "b", ts=3.0),
        ]
        assert fleet_job_ids(events) == ["j2", "j1"]


class TestJobTimeline:
    def test_unknown_job_returns_none(self):
        assert job_timeline(fleet_trace(), "nope") is None

    def test_phases_tile_the_wall_exactly(self):
        timeline = job_timeline(fleet_trace(), "job-1")
        assert timeline is not None
        assert timeline.wall == pytest.approx(13.0)
        assert timeline.phase_sum == pytest.approx(timeline.wall)
        phases = timeline.phases
        assert set(phases) == set(PHASES)
        assert phases["queued"] == pytest.approx(1.0)       # 10 -> 11
        assert phases["lease_wait"] == pytest.approx(1.5)   # 11 -> 12.5
        assert phases["recovery"] == pytest.approx(5.5)     # 12.5 -> 18
        assert phases["executing"] == pytest.approx(4.0)    # 18 -> 22
        assert phases["merging"] == pytest.approx(1.0)      # 22 -> 23

    def test_backbone_and_bookkeeping(self):
        timeline = job_timeline(fleet_trace(), "job-1")
        assert timeline.backbone_task == "B"
        assert timeline.state == "done"
        assert timeline.task_count == 2
        assert timeline.workers == ["w1", "w2"]
        recovery = [s for s in timeline.segments if s.phase == "recovery"]
        assert len(recovery) == 1
        assert "w2" in recovery[0].detail and "w1" in recovery[0].detail

    def test_no_failure_means_no_recovery(self):
        j = "fast"
        events = [
            _span("span_start", "fleet_job", j, "root", ts=0.0),
            {"kind": "fleet_job_expanded", "corr": j, "ts": 1.0, "tasks": 1},
            {"kind": "fleet_task_leased", "corr": j, "ts": 2.0, "task": "T",
             "worker": "w1", "attempt": 1},
            {"kind": "fleet_task_complete", "corr": j, "ts": 5.0, "task": "T",
             "worker": "w1", "state": "done"},
            _span("span_end", "fleet_job", j, "root", ts=5.5, dur=5.5,
                  state="done"),
        ]
        timeline = job_timeline(events, j)
        assert timeline.phases["recovery"] == 0.0
        assert timeline.phase_sum == pytest.approx(timeline.wall)

    def test_running_job_decomposes_partial_wall(self):
        events = [e for e in fleet_trace() if e["kind"] != "span_end"]
        timeline = job_timeline(events, "job-1")
        assert timeline.state == "running"
        assert timeline.finished == pytest.approx(22.0)
        assert timeline.phase_sum == pytest.approx(timeline.wall)

    def test_to_dict_round_trips_through_json(self):
        import json

        timeline = job_timeline(fleet_trace(), "job-1")
        payload = json.loads(json.dumps(timeline.to_dict()))
        assert payload["job"] == "job-1"
        assert payload["phases"]["recovery"] == pytest.approx(5.5)
        assert len(payload["segments"]) == len(timeline.segments)

    def test_critical_path_matches_timeline_segments(self):
        timeline = job_timeline(fleet_trace(), "job-1")
        path = critical_path(fleet_trace(), "job-1")
        assert [(s.phase, s.duration) for s in path] == [
            (s.phase, s.duration) for s in timeline.segments
        ]
        assert critical_path(fleet_trace(), "nope") == []


class TestAggregation:
    def test_aggregate_phases_and_wall(self):
        timelines = [job_timeline(fleet_trace(), "job-1")] * 3
        stats = aggregate_phases(timelines)
        assert stats["recovery"]["count"] == 3.0
        assert stats["recovery"]["p50"] == pytest.approx(5.5)
        assert stats["wall"]["mean"] == pytest.approx(13.0)

    def test_aggregate_of_nothing_is_empty(self):
        assert aggregate_phases([]) == {}


class TestRendering:
    def test_report_mentions_phases_and_tree_health(self):
        events = fleet_trace()
        timeline = job_timeline(events, "job-1")
        text = render_timeline_report(timeline, events)
        for phase in PHASES:
            assert phase in text
        assert "critical path" in text
        assert "connected (1 root(s))" in text

    def test_report_flags_split_tree(self):
        events = fleet_trace() + [
            _span("span_start", "engine_batch", "job-1", "lost",
                  "not-a-span", 12.6),
        ]
        timeline = job_timeline(events, "job-1")
        text = render_timeline_report(timeline, events)
        assert "SPLIT" in text
