#!/usr/bin/env python
"""CI fleet smoke: real processes, a SIGKILLed worker, verified recovery.

Starts a coordinator without a local worker and two worker *processes*
(the same ``mlpsim serve --workers 0`` / ``mlpsim worker --join`` entry
points a user runs) and submits a sharded simulate job twice.  The first
run has no recorded cuts: it must report one whole-trace shard, which
records them.  The second (on the reference backend, so the result store
does not answer it) splits at the recorded cuts.  One worker, the victim,
is SIGKILLed while it holds a leased, unfinished shard of it, and how long
a shard runs plays no part in that: the victim runs the first job alone,
is SIGSTOPped while its next lease long-poll is parked on the coordinator
(a parked poll renews a stopped worker's heartbeat, nothing else can),
and only then is the second job submitted.  The parked poll takes a shard
the stopped victim cannot finish; once ``/v1/fleet/status`` shows that
lease, the victim is SIGKILLed and the survivor starts.  The smoke
asserts:

1. the coordinator evicts the dead worker and requeues its shard;
2. the surviving worker recomputes the shard: the job took a second
   round, and the shard reports ``attempts > 1``;
3. the merged result is bit-identical to a direct single-process run;
4. the job's trace — the coordinator's lease to the victim, the SIGKILL
   and the survivor's re-lease — joins into ONE connected span tree, and
   its five-phase decomposition reconciles with the measured wall time
   within 5%;
5. ``/metrics`` carries both workers' federated labeled series
   (``fleet_worker_*{worker="..."}``), the SIGKILLed worker's included;
6. a SIGTERM drain shuts the coordinator down cleanly (exit 0, nothing
   abandoned) and the surviving worker exits 0 by itself.

A rendered critical-path report is always written to
``<log-dir>/fleet-critical-path.txt`` so CI failure artifacts include
the per-phase post-mortem.

Exits non-zero with diagnostics on any deviation; CI uploads the log
directory as an artifact for post-mortem.

Usage::

    python scripts/fleet_smoke.py [--cache-dir DIR] [--shards N]
        [--log-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

from repro.engine.runner import ShardedReport
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.obs import (
    connected_roots,
    job_timeline,
    load_events,
    render_timeline_report,
)
from repro.service.client import ServiceClient


#: The coordinator's lease TTL (s).  A worker, or a lease poll parked for
#: it, renews every third of it; three missed TTLs evict the worker.
LEASE_TTL = 1.0


def _get(url: str, path: str) -> dict:
    with urllib.request.urlopen(f"{url}{path}", timeout=10.0) as response:
        return json.loads(response.read())


def _wait_for(predicate, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise TimeoutError(f"timed out waiting for {what}")


def _federated(metrics: dict) -> set:
    """Workers with a labeled series on the coordinator's /metrics."""
    return {
        entry["labels"].get("worker")
        for entry in metrics.get("labeled", {}).get(
            "fleet_worker_tasks_done_total", [],
        )
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", default=".ci-fleet-cache")
    parser.add_argument("--workload", default="database")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--warmup", type=int, default=3000)
    parser.add_argument("--measure", type=int, default=60000)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--log-dir", default=".")
    parser.add_argument(
        "--trace-dir", default="",
        help="trace directory shared by the coordinator and both workers "
             "(default: <log-dir>/fleet-traces)",
    )
    args = parser.parse_args(argv)

    os.makedirs(args.log_dir, exist_ok=True)
    cache_dir = os.path.abspath(args.cache_dir)
    trace_dir = os.path.abspath(
        args.trace_dir or os.path.join(args.log_dir, "fleet-traces"),
    )
    os.makedirs(trace_dir, exist_ok=True)
    settings = ExperimentSettings(
        warmup=args.warmup, measure=args.measure, seed=args.seed,
        calibrate=False,
    )
    sizing = [
        "--warmup", str(args.warmup), "--measure", str(args.measure),
        "--seed", str(args.seed), "--no-calibrate",
        "--cache-dir", cache_dir,
    ]

    print(f"fleet smoke: golden single-process run of {args.workload} ...")
    golden = Workbench(settings, cache_dir=cache_dir).run(args.workload)
    print(f"  golden: {golden.summary()}")

    mlpsim = [sys.executable, "-m", "repro.cli"]
    serve_log_path = os.path.join(args.log_dir, "fleet-serve.log")
    serve_log = open(serve_log_path, "w")
    coordinator = subprocess.Popen(
        mlpsim + sizing + [
            "serve", "--workers", "0", "--port", "0",
            "--lease-ttl", str(LEASE_TTL), "--max-inflight", "1",
            "--drain-timeout", "120",
            "--trace-dir", trace_dir,
        ],
        stdout=serve_log, stderr=subprocess.STDOUT,
    )
    procs: list[subprocess.Popen] = [coordinator]
    try:
        def url_from_log():
            with open(serve_log_path) as handle:
                for line in handle:
                    marker = "repro service listening on "
                    if marker in line:
                        return line.split(marker, 1)[1].strip()
            return None

        url = _wait_for(url_from_log, 30.0, "the coordinator URL")
        print(f"fleet smoke: coordinator at {url}")

        workers = {}

        def start_worker(name):
            log = open(os.path.join(args.log_dir, f"fleet-{name}.log"), "w")
            proc = subprocess.Popen(
                mlpsim + [
                    "worker", "--join", url, "--name", name,
                    "--trace-dir", trace_dir,
                ],
                stdout=log, stderr=subprocess.STDOUT,
            )
            workers[name] = proc
            procs.append(proc)

        def worker_status(name):
            for worker in _get(url, "/v1/fleet/status")["workers"]:
                if worker["name"] == name:
                    return worker
            return None

        start_worker("victim")
        _wait_for(
            lambda: worker_status("victim"), 30.0, "the victim to register",
        )
        # A worker's totals ride on its heartbeats: let the victim report
        # once, so it has series to retain after it is killed.
        _wait_for(
            lambda: "victim" in _federated(
                _get(url, "/metrics?format=json"),
            ),
            30.0, "the victim to report metrics",
        )
        print("fleet smoke: worker 'victim' registered")

        client = ServiceClient(url, timeout=30.0)
        job = {"workload": args.workload, "variant": "pc"}
        failures = []
        recording = client.wait(client.submit({
            "kind": "simulate", "job": job, "shards": args.shards,
        })["id"], timeout=300.0)
        plan = (recording.get("result") or {}).get("sharded", {})
        print(f"fleet smoke: first sharded run: {plan.get('plan')}")
        if recording["state"] != "done" or (
            plan.get("requested"), plan.get("shard_count"),
        ) != (args.shards, 1):
            failures.append(
                f"the first sharded run was not one recording shard: "
                f"{recording['state']} {plan}"
            )

        # The victim ran that job and at once long-polls for the next
        # lease, whose wait (10 s) outlasts what follows.  Stop it, and
        # prove the poll is parked: while the victim is stopped, only a
        # parked poll keeps its heartbeat fresh.  A stop that lands
        # between two polls shows an ageing heartbeat; resume and retry
        # well inside the eviction grace.
        victim = workers["victim"]
        renew = LEASE_TTL / 3.0
        for _ in range(10):
            os.kill(victim.pid, signal.SIGSTOP)
            ages = []
            for pause in (3 * renew, renew):
                time.sleep(pause)
                ages.append(worker_status("victim")["heartbeat_age_seconds"])
            if max(ages) < 2 * renew:
                break
            os.kill(victim.pid, signal.SIGCONT)
            time.sleep(0.2)
        else:
            raise TimeoutError("the victim never parked a lease poll")
        print(f"fleet smoke: victim stopped with a parked lease poll "
              f"(heartbeat ages {ages})")

        receipt = client.submit({
            "kind": "simulate", "job": job, "shards": args.shards,
            "backend": "reference",
        })
        job_id = receipt["id"]
        print(f"fleet smoke: sharded job {job_id} submitted")

        def victim_lease():
            status = _get(url, "/v1/fleet/status")
            ids = [w["id"] for w in status["workers"] if w["name"] == "victim"]
            return ids and [
                t["id"] for t in status["task_table"]
                if t["state"] == "leased" and t["worker"] == ids[0]
            ]

        # The stopped victim cannot finish what it leased: a lease seen
        # now is held and unfinished when the SIGKILL lands.
        held = _wait_for(victim_lease, 30.0, "the victim to lease a shard")
        os.kill(victim.pid, signal.SIGKILL)
        print(
            f"fleet smoke: SIGKILLed worker 'victim' (pid {victim.pid}) "
            f"holding {sorted(held)}"
        )
        start_worker("survivor")

        status = client.wait(job_id, timeout=300.0)
        if status["state"] != "done":
            failures.append(
                f"job ended {status['state']}: {status.get('error', '')}"
            )
        else:
            sharded = status["result"]["sharded"]
            report = ShardedReport.from_dict(status["result"]["report"])
            attempts = [job.attempts for job in report.jobs]
            print(
                f"  rounds={sharded['rounds']} attempts={attempts} "
                f"plan={sharded['plan']}"
            )
            if sharded["shard_count"] < 2:
                failures.append(
                    "the run after the recording one was not split "
                    f"({sharded['plan']})"
                )
            if sharded["rounds"] < 2:
                failures.append(
                    "the killed shard was never re-leased (rounds < 2)"
                )
            if max(attempts) < 2:
                failures.append(
                    "no shard reports a recomputation (attempts > 1)"
                )
            if report.merged != golden:
                failures.append(
                    "merged fleet result differs from the single-process "
                    "golden"
                )
        # The survivor started after the kill; its totals ride on its
        # heartbeats too.
        try:
            _wait_for(
                lambda: "survivor" in _federated(
                    _get(url, "/metrics?format=json"),
                ),
                30.0, "the survivor to report metrics",
            )
        except TimeoutError:
            pass  # reported as a missing federated worker below
        metrics = _get(url, "/metrics?format=json")
        if metrics["gauges"].get("fleet_workers_evicted_total", 0) < 1:
            failures.append("the dead worker was never evicted")

        # Metrics federation: both worker processes must have labeled
        # series on the coordinator's /metrics — including the SIGKILLed
        # one, whose last reported totals are retained after eviction.
        federated = _federated(metrics)
        missing = {"victim", "survivor"} - federated
        if missing:
            failures.append(
                f"workers missing from federated /metrics series: "
                f"{sorted(missing)} (saw {sorted(federated)})"
            )

        # Trace propagation: the job's spans — coordinator and survivor,
        # across the SIGKILL and the re-lease — must join into one
        # connected tree, and the phase decomposition must reconcile with
        # the measured wall time.
        events = load_events(trace_dir)
        roots = connected_roots(events, job_id)
        if len(roots) != 1:
            failures.append(
                f"trace tree for job {job_id} is split: "
                f"{len(roots)} root(s) instead of 1"
            )
        timeline = job_timeline(events, job_id)
        if timeline is None:
            failures.append(f"no fleet_job span for {job_id} in the trace")
        else:
            report_path = os.path.join(
                args.log_dir, "fleet-critical-path.txt",
            )
            with open(report_path, "w") as handle:
                handle.write(render_timeline_report(timeline, events) + "\n")
            print(f"fleet smoke: critical-path report at {report_path}")
            drift = abs(timeline.phase_sum - timeline.wall)
            if timeline.wall > 0 and drift > 0.05 * timeline.wall:
                failures.append(
                    f"phase sum {timeline.phase_sum:.3f}s deviates from "
                    f"wall {timeline.wall:.3f}s by more than 5%"
                )

        # Graceful drain: coordinator exits 0 with nothing abandoned, and
        # the surviving worker drains out by itself.
        coordinator.send_signal(signal.SIGTERM)
        coordinator.wait(timeout=180.0)
        survivor_code = workers["survivor"].wait(timeout=60.0)
        if coordinator.returncode != 0:
            failures.append(
                f"coordinator exited {coordinator.returncode} "
                f"(work abandoned during drain?)"
            )
        if survivor_code != 0:
            failures.append(f"surviving worker exited {survivor_code}")

        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            "fleet smoke OK: eviction, re-lease and recomputation, "
            "bit-identical merge, connected trace tree, federated metrics, "
            "clean drain"
        )
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)


if __name__ == "__main__":
    sys.exit(main())
