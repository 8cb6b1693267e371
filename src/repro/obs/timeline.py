"""Fleet job timelines: phase decomposition and critical paths.

The fleet writes one logical trace per job spread across many processes:
the coordinator emits the job's root span (``fleet_job``) plus the task
lifecycle events (``fleet_job_expanded``, ``fleet_task_leased``,
``fleet_task_complete``, ``fleet_worker_evicted``), and every worker's
engine/simulator spans parent into that root via the ``traceparent``
field on the wire (:mod:`repro.obs.context`).  This module joins those
pieces back together:

- :func:`span_tree` / :func:`connected_roots` — rebuild the span tree for
  one correlation ID and check it is a *single* connected tree (the fleet
  smoke's cross-worker assertion),
- :func:`job_timeline` — decompose one job's wall time into phases,
- :func:`critical_path` — the backbone segments behind that decomposition,
- :func:`aggregate_phases` — per-phase median/p99 across many jobs (the
  load-test's BENCH columns).

Phase model
-----------

A job's wall time (submit → finish) is tiled *exactly* by five phases, so
the phase sum always reconciles with measured wall time:

=============== ========================================================
``queued``      submit accepted → job claimed and expanded into tasks
``lease_wait``  backbone task expanded/requeued → leased by a worker
``recovery``    a backbone lease that died (worker evicted mid-shard) →
                the next lease's completion of the re-run; covers the
                lost execution tail, eviction detection and the
                recomputation
``executing``   backbone lease → that lease's own completion
``merging``     last task completion → job payload assembled/published
=============== ========================================================

The *backbone* is the chain that determines the finish time: the task
whose completion lands last.  Its lease/complete event sequence is cut
into contiguous segments — every moment between expansion and the last
completion belongs to exactly one phase.  All timestamps come from
coordinator-side events, so the decomposition needs no cross-machine
clock agreement; worker spans enrich the tree but never shift phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .metrics import percentile

__all__ = [
    "JobTimeline",
    "PHASES",
    "Segment",
    "aggregate_phases",
    "connected_roots",
    "critical_path",
    "fleet_job_ids",
    "job_timeline",
    "render_timeline_report",
    "span_tree",
]

#: Phase names in presentation (and causal) order.
PHASES: Tuple[str, ...] = (
    "queued", "lease_wait", "recovery", "executing", "merging",
)


@dataclass
class Segment:
    """One contiguous slice of a job's wall time on the critical path."""

    phase: str
    start: float
    end: float
    detail: str = ""

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


@dataclass
class JobTimeline:
    """One fleet job's reconstructed lifecycle."""

    job_id: str
    submitted: float = 0.0
    expanded: float = 0.0
    finished: float = 0.0
    state: str = ""
    task_count: int = 0
    backbone_task: str = ""
    workers: List[str] = field(default_factory=list)
    segments: List[Segment] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return max(0.0, self.finished - self.submitted)

    @property
    def phases(self) -> Dict[str, float]:
        totals = {phase: 0.0 for phase in PHASES}
        for segment in self.segments:
            totals[segment.phase] += segment.duration
        return totals

    @property
    def phase_sum(self) -> float:
        return sum(segment.duration for segment in self.segments)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job": self.job_id,
            "state": self.state,
            "wall_seconds": self.wall,
            "phase_sum_seconds": self.phase_sum,
            "phases": self.phases,
            "tasks": self.task_count,
            "backbone_task": self.backbone_task,
            "workers": list(self.workers),
            "segments": [
                {
                    "phase": s.phase,
                    "start": s.start,
                    "end": s.end,
                    "seconds": s.duration,
                    "detail": s.detail,
                }
                for s in self.segments
            ],
        }


# -------------------------------------------------------------- span tree --


def span_tree(
    events: Iterable[Dict[str, Any]], corr: str,
) -> Dict[str, Dict[str, Any]]:
    """Spans of correlation *corr* keyed by span id.

    Each node is ``{"name", "parent", "start", "end", "dur", "children"}``
    — assembled from ``span_start`` / ``span_end`` pairs; a span whose end
    was lost (SIGKILLed worker) keeps ``end=None``.
    """
    nodes: Dict[str, Dict[str, Any]] = {}
    for event in events:
        if event.get("corr") != corr:
            continue
        kind = event.get("kind")
        if kind not in ("span_start", "span_end"):
            continue
        span_id = str(event.get("id", ""))
        if not span_id:
            continue
        node = nodes.setdefault(
            span_id,
            {
                "name": event.get("name", ""),
                "parent": str(event.get("parent", "")),
                "start": None,
                "end": None,
                "dur": None,
                "children": [],
            },
        )
        if kind == "span_start":
            node["start"] = event.get("ts")
        else:
            node["end"] = event.get("ts")
            node["dur"] = event.get("dur")
            node["name"] = event.get("name", node["name"])
            node["parent"] = str(event.get("parent", node["parent"]))
    for span_id, node in nodes.items():
        parent = nodes.get(node["parent"])
        if parent is not None:
            parent["children"].append(span_id)
    return nodes


def connected_roots(
    events: Iterable[Dict[str, Any]], corr: str,
) -> Set[str]:
    """Span ids acting as tree roots for *corr*.

    A fully propagated fleet job has exactly one root — the coordinator's
    ``fleet_job`` span; more than one means a process failed to restore
    its trace context and its spans float disconnected.
    """
    nodes = span_tree(events, corr)
    return {
        span_id
        for span_id, node in nodes.items()
        if node["parent"] not in nodes
    }


def fleet_job_ids(events: Iterable[Dict[str, Any]]) -> List[str]:
    """Correlation IDs with a ``fleet_job`` root span, in submit order."""
    seen: List[str] = []
    for event in events:
        if (
            event.get("kind") == "span_start"
            and event.get("name") == "fleet_job"
        ):
            corr = str(event.get("corr", ""))
            if corr and corr not in seen:
                seen.append(corr)
    return seen


# ----------------------------------------------------------- phase model --


def _job_events(
    events: Iterable[Dict[str, Any]], job_id: str,
) -> List[Dict[str, Any]]:
    picked = [e for e in events if e.get("corr") == job_id]
    picked.sort(key=lambda e: float(e.get("ts", 0.0)))
    return picked


def job_timeline(
    events: Iterable[Dict[str, Any]], job_id: str,
) -> Optional[JobTimeline]:
    """Reconstruct one job's phase decomposition (see the module docs).

    Returns ``None`` when the trace holds no ``fleet_job`` span for
    *job_id* (not a fleet job, or the coordinator was not tracing).
    """
    picked = _job_events(events, job_id)
    timeline = JobTimeline(job_id=job_id)
    saw_root = False
    saw_expanded = False
    saw_finish = False
    leases: Dict[str, List[Dict[str, Any]]] = {}
    completes: Dict[str, List[Dict[str, Any]]] = {}
    workers: List[str] = []
    for event in picked:
        kind = event.get("kind")
        name = event.get("name")
        ts = float(event.get("ts", 0.0))
        if kind == "span_start" and name == "fleet_job":
            timeline.submitted = ts
            saw_root = True
        elif kind == "span_end" and name == "fleet_job":
            timeline.finished = ts
            timeline.state = str(event.get("state", ""))
            saw_finish = True
        elif kind == "fleet_job_expanded":
            timeline.expanded = ts
            timeline.task_count = int(event.get("tasks", 0))
            saw_expanded = True
        elif kind == "fleet_task_leased":
            leases.setdefault(str(event.get("task", "")), []).append(event)
            worker = str(event.get("worker", ""))
            if worker and worker not in workers:
                workers.append(worker)
        elif kind == "fleet_task_complete":
            completes.setdefault(str(event.get("task", "")), []).append(event)
    if not saw_root:
        return None
    timeline.workers = workers
    if not saw_expanded:
        # Never expanded (cache hit or failed in expansion): the whole
        # wall is queue-side.
        timeline.expanded = (
            timeline.finished if saw_finish else timeline.submitted
        )
    if not saw_finish:
        # Job still in flight: decompose up to the last event seen.
        timeline.finished = max(
            (float(e.get("ts", 0.0)) for e in picked), default=0.0,
        )
        timeline.state = timeline.state or "running"

    timeline.segments.append(
        Segment("queued", timeline.submitted, timeline.expanded),
    )

    # The backbone task: the one whose terminal completion lands last.
    last_complete = timeline.expanded
    backbone = ""
    for task_id, done in completes.items():
        final = [e for e in done if e.get("state") in ("done", "failed")]
        tail = final[-1] if final else done[-1]
        ts = float(tail.get("ts", 0.0))
        if ts >= last_complete:
            last_complete = ts
            backbone = task_id
    timeline.backbone_task = backbone

    if backbone:
        marks: List[Tuple[float, str, Dict[str, Any]]] = []
        for event in leases.get(backbone, []):
            marks.append((float(event.get("ts", 0.0)), "lease", event))
        for event in completes.get(backbone, []):
            marks.append((float(event.get("ts", 0.0)), "complete", event))
        marks.sort(key=lambda m: m[0])
        cursor = timeline.expanded
        open_lease: Optional[Dict[str, Any]] = None
        for ts, what, event in marks:
            if ts > last_complete:
                break
            if what == "lease":
                if open_lease is None:
                    # pending → leased: the wait for a worker slot.
                    timeline.segments.append(
                        Segment(
                            "lease_wait", cursor, ts,
                            detail=f"attempt {event.get('attempt', '?')}",
                        ),
                    )
                else:
                    # Re-leased with no completion in between: the prior
                    # worker died.  Everything from the dead lease to the
                    # re-lease is recovery (lost tail + eviction + wait).
                    timeline.segments.append(
                        Segment(
                            "recovery", cursor, ts,
                            detail=(
                                f"worker {open_lease.get('worker', '?')} "
                                f"died; re-leased to "
                                f"{event.get('worker', '?')}"
                            ),
                        ),
                    )
                cursor = ts
                open_lease = event
            else:  # complete
                phase = "executing" if open_lease is not None else "recovery"
                timeline.segments.append(
                    Segment(
                        phase, cursor, ts,
                        detail=f"worker {event.get('worker', '?')}",
                    ),
                )
                cursor = ts
                open_lease = None
        if cursor < last_complete:
            timeline.segments.append(
                Segment("executing", cursor, last_complete),
            )

    timeline.segments.append(
        Segment("merging", last_complete, timeline.finished),
    )
    return timeline


def critical_path(
    events: Iterable[Dict[str, Any]], job_id: str,
) -> List[Segment]:
    """The backbone segments of *job_id* (empty when unknown)."""
    timeline = job_timeline(events, job_id)
    return timeline.segments if timeline is not None else []


def aggregate_phases(
    timelines: Iterable[JobTimeline],
) -> Dict[str, Dict[str, float]]:
    """Per-phase distribution across jobs: median/p99/mean seconds."""
    samples: Dict[str, List[float]] = {phase: [] for phase in PHASES}
    walls: List[float] = []
    for timeline in timelines:
        walls.append(timeline.wall)
        for phase, seconds in timeline.phases.items():
            samples[phase].append(seconds)
    out: Dict[str, Dict[str, float]] = {}
    for phase, values in samples.items():
        if not values:
            continue
        out[phase] = {
            "count": float(len(values)),
            "mean": sum(values) / len(values),
            "p50": percentile(values, 0.50),
            "p99": percentile(values, 0.99),
        }
    if walls:
        out["wall"] = {
            "count": float(len(walls)),
            "mean": sum(walls) / len(walls),
            "p50": percentile(walls, 0.50),
            "p99": percentile(walls, 0.99),
        }
    return out


# --------------------------------------------------------------- rendering --


def render_timeline_report(
    timeline: JobTimeline,
    events: Optional[Iterable[Dict[str, Any]]] = None,
) -> str:
    """Console rendering behind ``mlpsim obs critical-path``."""
    lines: List[str] = []
    lines.append(f"job {timeline.job_id}  [{timeline.state or 'unknown'}]")
    lines.append(
        f"  wall {timeline.wall:.3f}s across {timeline.task_count} task(s)"
        f" on {len(timeline.workers)} worker(s)"
    )
    phases = timeline.phases
    wall = timeline.wall or 1.0
    lines.append("  phases:")
    for phase in PHASES:
        seconds = phases.get(phase, 0.0)
        bar = "#" * min(40, int(round(40.0 * seconds / wall)))
        lines.append(f"    {phase:<10} {seconds:9.3f}s  {bar}")
    lines.append(
        f"    {'sum':<10} {timeline.phase_sum:9.3f}s"
        f"  (wall {timeline.wall:.3f}s)"
    )
    if timeline.backbone_task:
        lines.append(f"  critical path (task {timeline.backbone_task}):")
        for segment in timeline.segments:
            if segment.duration < 1e-9 and not segment.detail:
                continue
            lines.append(
                f"    {segment.phase:<10} {segment.duration:9.3f}s"
                + (f"  {segment.detail}" if segment.detail else "")
            )
    if events is not None:
        roots = connected_roots(events, timeline.job_id)
        lines.append(
            f"  trace tree: {'connected' if len(roots) == 1 else 'SPLIT'}"
            f" ({len(roots)} root(s))"
        )
    return "\n".join(lines)
