"""Command-line interface."""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL = ["--measure", "12000", "--warmup", "6000", "--no-calibrate"]


class TestCli:
    def test_table1(self, capsys):
        code, out, _ = run_cli(
            capsys, *SMALL, "--workloads", "tpcw", "table1"
        )
        assert code == 0
        assert "Table 1" in out
        assert "store frequency" in out

    def test_table2(self, capsys):
        code, out, _ = run_cli(
            capsys, *SMALL, "--workloads", "specweb", "table2"
        )
        assert code == 0
        assert "fully overlapped" in out

    def test_figure3(self, capsys):
        code, out, _ = run_cli(
            capsys, *SMALL, "--workloads", "specjbb", "figure3"
        )
        assert code == 0
        assert "specjbb" in out

    def test_run_command(self, capsys):
        code, out, _ = run_cli(
            capsys, *SMALL, "run", "--workload", "tpcw",
            "--prefetch", "sp2", "--consistency", "wc",
        )
        assert code == 0
        assert "epochs=" in out

    def test_run_with_an_empty_calibration_window_fails_cleanly(
        self, capsys, tmp_path,
    ):
        # Calibration measures [warmup + 10000, total): empty at measure 9000.
        code, out, err = run_cli(
            capsys, "--warmup", "3000", "--measure", "9000",
            "--cache-dir", str(tmp_path), "run", "--workload", "database",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("run failed: database: the calibration window")
        assert "[13000, 12000)" in err
        assert "--no-calibrate" in err and "--measure above 10000" in err

    def test_unknown_workload_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, *SMALL, "--workloads", "mysql", "table1"
        )
        assert code == 2
        assert "unknown workloads" in err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_serve_runs_the_coordinator(self, monkeypatch):
        import repro.fleet

        calls = []
        monkeypatch.setattr(
            repro.fleet, "serve_fleet", lambda **kw: calls.append(kw) or 0,
        )
        assert main(["serve", "--port", "0", "--workers", "0"]) == 0
        assert calls[0]["workers"] == 0 and calls[0]["port"] == 0
        with pytest.raises(SystemExit):  # one server: no --fleet switch
            main(["serve", "--fleet"])

    def test_bench_needs_a_mode(self, capsys):
        code, _, err = run_cli(capsys, "bench")
        assert code == 2
        assert "--smoke or --perf" in err

    def test_bench_perf_writes_a_gateable_report(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_core.json"
        code, out, _ = run_cli(
            capsys, "bench", "--perf", "--reps", "1",
            "--warmup-reps", "0", "--out", str(out_path),
        )
        assert code == 0
        assert "geomean" in out
        # the fresh report gates cleanly against itself
        code, out, _ = run_cli(
            capsys, "bench", "--perf", "--reps", "1",
            "--warmup-reps", "0", "--baseline", str(out_path),
            "--max-regression", "0.99",
        )
        assert code == 0
        assert "regression gate ok" in out

    def test_sweep_reports_bad_axis_names(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                capsys, *SMALL, "sweep", "--workload", "database",
                "--axis", "store_que=16,32",
            )
        assert "unknown sweep axis" in str(excinfo.value)

    def test_sweep_rejects_the_removed_fetch_buffer_axis(self):
        # No fetch buffer is modelled, so it is not an axis: the command
        # fails with the valid-axes message, not a traceback.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *SMALL, "--cache-dir", "none",
             "sweep", "--workload", "database",
             "--axis", "fetch_buffer=8,16"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode != 0
        assert "unknown sweep axis 'fetch_buffer'" in proc.stderr
        assert "valid axes" in proc.stderr
        assert "Traceback" not in proc.stderr

def _write_fleet_trace(path):
    """A minimal coordinator trace: one job, one task, clean run."""
    import json as _json

    events = [
        {"kind": "span_start", "name": "fleet_job", "corr": "job-1",
         "span": "", "id": "root", "parent": "", "ts": 10.0},
        {"kind": "fleet_job_expanded", "corr": "job-1", "ts": 11.0,
         "tasks": 1},
        {"kind": "fleet_task_leased", "corr": "job-1", "ts": 12.0,
         "task": "T", "worker": "w1", "attempt": 1},
        {"kind": "fleet_task_complete", "corr": "job-1", "ts": 15.0,
         "task": "T", "worker": "w1", "state": "done"},
        {"kind": "span_end", "name": "fleet_job", "corr": "job-1",
         "span": "", "id": "root", "parent": "", "ts": 16.0, "dur": 6.0,
         "state": "done"},
    ]
    path.write_text(
        "".join(_json.dumps(event) + "\n" for event in events)
    )


class TestObsCli:
    def test_obs_report_json_format(self, capsys, tmp_path):
        trace = tmp_path / "trace-1.jsonl"
        _write_fleet_trace(trace)
        code, out, _ = run_cli(
            capsys, "obs", "report", str(trace), "--format", "json",
        )
        assert code == 0
        import json as _json

        digest = _json.loads(out)
        assert digest["events"] >= 5

    def test_critical_path_renders_phases(self, capsys, tmp_path):
        trace = tmp_path / "trace-1.jsonl"
        _write_fleet_trace(trace)
        code, out, _ = run_cli(
            capsys, "obs", "critical-path", "job-1",
            "--trace-dir", str(tmp_path),
        )
        assert code == 0
        assert "job job-1" in out
        for phase in ("queued", "lease_wait", "executing", "merging"):
            assert phase in out
        assert "connected (1 root(s))" in out

    def test_critical_path_json_and_all(self, capsys, tmp_path):
        trace = tmp_path / "trace-1.jsonl"
        _write_fleet_trace(trace)
        code, out, _ = run_cli(
            capsys, "obs", "critical-path", "all",
            "--trace-dir", str(tmp_path), "--json",
        )
        assert code == 0
        import json as _json

        payload = _json.loads(out)
        assert isinstance(payload, list) and len(payload) == 1
        assert payload[0]["job"] == "job-1"
        assert payload[0]["wall_seconds"] == 6.0
        assert payload[0]["phase_sum_seconds"] == 6.0

    def test_critical_path_unknown_job_errors(self, capsys, tmp_path):
        trace = tmp_path / "trace-1.jsonl"
        _write_fleet_trace(trace)
        code, _, err = run_cli(
            capsys, "obs", "critical-path", "nope",
            "--trace-dir", str(tmp_path),
        )
        assert code == 1
        assert "no trace for job" in err


class TestFleetTopRendering:
    def test_render_frame_from_snapshot(self):
        from repro.cli import _render_fleet_top

        snapshot = {
            "counters": {"jobs_submitted_total": 3, "jobs_shed_total": 1},
            "gauges": {"fleet_workers": 2.0, "queue_depth": 1.0,
                       "fleet_workers_evicted_total": 0.0},
            "latency": {
                "task_lease_wait": {"count": 4, "p50": 0.01, "p99": 0.05},
            },
            "labeled": {
                "fleet_worker_inflight": [
                    {"labels": {"worker": "w0"}, "value": 1.0},
                    {"labels": {"worker": "w1"}, "value": 2.0},
                ],
                "fleet_worker_tasks_done_total": [
                    {"labels": {"worker": "w0"}, "value": 5.0},
                ],
            },
        }
        status = {"tasks": {"pending": 1, "leased": 3, "done": 5,
                            "failed": 0}}
        frame = _render_fleet_top("http://x", snapshot, status)
        assert "workers 2" in frame
        assert "queue depth 1" in frame
        assert "w0" in frame and "w1" in frame
        assert "lease p50=0.010s" in frame
        assert "submitted 3" in frame and "shed 1" in frame

    def test_render_frame_with_no_workers(self):
        from repro.cli import _render_fleet_top

        frame = _render_fleet_top(
            "http://x", {"counters": {}, "gauges": {}, "labeled": {},
                         "latency": {}}, {"tasks": {}},
        )
        assert "no federated worker series yet" in frame


class TestCliFleetStatus:
    def test_status_text_and_json(self, capsys, fleet_factory):
        fleet = fleet_factory(workers=0)
        # An idle registered worker keeps admission open and leases
        # nothing, so the submitted job's one task stays outstanding.
        idler = fleet.coord.registry.register(name="idler")
        fleet.client().submit({
            "kind": "simulate", "job": {"workload": "database"},
        })
        deadline = time.monotonic() + 10.0
        while (
            fleet.coord.router.counts()["pending"] < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)  # the dispatcher expands the job

        url = fleet.coord.url
        code, out, _ = run_cli(capsys, "fleet", "status", "--url", url)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("1 worker(s); queue depth 0")
        assert lines[1].split()[:2] == [idler.id, "idler"]
        assert "done=0" in lines[1]
        assert lines[2].startswith("outstanding tasks: 1 ")

        code, out, _ = run_cli(
            capsys, "fleet", "status", "--url", url, "--json",
        )
        assert code == 0
        status = json.loads(out)
        assert [w["name"] for w in status["workers"]] == ["idler"]
        assert status["outstanding_tasks"] == 1
        assert status["tasks"]["pending"] == 1


class TestCliSmt:
    """The redesigned ``--contexts``/``--scheduler`` axis on ``run``."""

    def test_run_multi_context_mix(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, *SMALL, "--cache-dir", str(tmp_path), "run",
            "--workload", "oltp_java", "--contexts", "2",
            "--scheduler", "mlp",
        )
        assert code == 0
        assert "scheduler=mlp" in out
        assert "STP=" in out and "ANTT=" in out
        assert "ctx0" in out and "ctx1" in out

    def test_scheduler_requires_multiple_contexts(self, capsys):
        code, _, err = run_cli(
            capsys, *SMALL, "run", "--workload", "tpcw",
            "--scheduler", "mlp",
        )
        assert code == 2
        assert "--contexts > 1" in err

    def test_contexts_reject_sharding(self, capsys):
        code, _, err = run_cli(
            capsys, *SMALL, "run", "--workload", "tpcw",
            "--contexts", "2", "--shards", "2",
        )
        assert code == 2
        assert "--shards" in err

    def test_unknown_scheduler_lists_policies(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                capsys, *SMALL, "run", "--workload", "tpcw",
                "--contexts", "2", "--scheduler", "fifo",
            )
        assert "valid schedulers" in str(excinfo.value)

    def test_mix_requires_contexts(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                capsys, *SMALL, "run", "--workload", "oltp_java",
            )
        assert "mixes need --contexts > 1" in str(excinfo.value)


class TestCliEstimate:
    def test_estimate_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--workload", "database",
            "--knob", "scout=hws2",
        )
        assert code == 0
        assert "estimate database" in out
        assert "scout=hws2" in out

    def test_estimate_json(self, capsys):
        import json as _json

        code, out, _ = run_cli(
            capsys, "estimate", "--workload", "database", "--json",
        )
        assert code == 0
        payload = _json.loads(out)
        fields = payload["fields"]
        assert payload["$dc"] == "EpiEstimate"
        assert fields["workload"] == "database"
        assert fields["predicted_epi_per_1000"] > 0

    def test_estimate_rejects_duplicate_knobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                capsys, "estimate", "--workload", "database",
                "--knob", "scout=hws2", "--knob", "scout=none",
            )
        assert "duplicate --knob name 'scout'" in str(excinfo.value)

    def test_estimate_rejects_bad_knob_values(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                capsys, "estimate", "--workload", "database",
                "--knob", "scout=warp",
            )
        assert "scout" in str(excinfo.value)


class TestCliDuplicateAxes:
    def test_sweep_rejects_duplicate_axes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                capsys, *SMALL, "sweep", "--workload", "database",
                "--axis", "store_queue=16", "--axis", "store_queue=32",
            )
        assert "duplicate --axis name 'store_queue'" in str(excinfo.value)
        assert "store_queue=V1,V2" in str(excinfo.value)


class TestDesignSpaceSweep:
    """An exhaustive ``sweep`` is the design-space tool: its best-point
    line names the lowest-EPI configuration of the grid."""

    def test_database_grid_best_point(self, capsys, tmp_path):
        # scout x consistency x store_buffer on database: 24 points.
        code, out, _ = run_cli(
            capsys, "--seed", "11", "--warmup", "3000", "--measure", "9000",
            "--no-calibrate", "--cache-dir", str(tmp_path),
            "sweep", "--workload", "database",
            "--axis", "scout=none,hws0,hws1,hws2",
            "--axis", "consistency=pc,wc",
            "--axis", "store_buffer=4,16,32",
            "--workers", "1",
        )
        assert code == 0
        assert out.splitlines()[-1] == (
            "best point: scout=hws1 consistency=pc store_buffer=4 "
            "(EPI/1000=16.000)"
        )

    def test_search_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "tune", "--workload", "database")
        assert excinfo.value.code == 2
        assert "invalid choice: 'tune'" in capsys.readouterr().err
