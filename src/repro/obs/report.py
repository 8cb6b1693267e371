"""Rendering of JSONL traces: the epoch timeline and the obs report.

The write side (:mod:`repro.obs.trace`, :mod:`repro.obs.recorder`) leaves
behind a directory of ``trace-<pid>.jsonl`` files; this module is the read
side that ``mlpsim trace`` and ``mlpsim obs report`` call:

- :func:`summarize` folds a stream of events into one digest (event counts
  by kind, per-correlation epoch counts, the termination-condition
  breakdown, span aggregates),
- :func:`render_timeline` draws the per-epoch rows with a miss-composition
  bar,
- :func:`render_report` prints the full digest as aligned text tables.

Everything here consumes plain decoded event dicts, so the functions work
equally on a live tracer's in-memory buffer and on files read back with
:func:`repro.obs.trace.load_events`.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List

__all__ = ["render_report", "render_timeline", "summarize"]

#: Cap on the miss-composition bar so one pathological epoch cannot blow
#: up the table width.
_BAR_WIDTH = 24


def summarize(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold trace *events* into the digest :func:`render_report` prints."""
    kind_counts: Counter = Counter()
    termination_counts: Counter = Counter()
    epochs_by_corr: Counter = Counter()
    epoch_rows: List[Dict[str, Any]] = []
    store_stalls = 0
    instructions = 0
    sb_hwm = 0
    sq_hwm = 0
    spans: Dict[str, Dict[str, float]] = {}

    for event in events:
        kind = event.get("kind", "")
        kind_counts[kind] += 1
        if kind == "epoch":
            epoch_rows.append(event)
            epochs_by_corr[event.get("corr", "")] += 1
            instructions += int(event.get("instructions", 0))
            sb_hwm = max(sb_hwm, int(event.get("sb_occ", 0)))
            sq_hwm = max(sq_hwm, int(event.get("sq_occ", 0)))
        elif kind == "termination":
            termination_counts[event.get("condition", "?")] += 1
        elif kind == "store_stall":
            store_stalls += 1
        elif kind == "span_end":
            name = event.get("name", "?")
            stats = spans.setdefault(
                name, {"count": 0, "total": 0.0, "max": 0.0},
            )
            duration = float(event.get("dur", 0.0))
            stats["count"] += 1
            stats["total"] += duration
            if duration > stats["max"]:
                stats["max"] = duration

    epochs = len(epoch_rows)
    return {
        "events": sum(kind_counts.values()),
        "kinds": dict(sorted(kind_counts.items())),
        "epochs": epochs,
        "epochs_by_corr": dict(sorted(epochs_by_corr.items())),
        "instructions": instructions,
        "epochs_per_1k_insts": (
            1000.0 * epochs / instructions if instructions else 0.0
        ),
        "store_stalls": store_stalls,
        "sb_occupancy_hwm": sb_hwm,
        "sq_occupancy_hwm": sq_hwm,
        "terminations": dict(sorted(termination_counts.items())),
        "spans": {name: spans[name] for name in sorted(spans)},
        "epoch_rows": epoch_rows,
    }


def _miss_bar(row: Dict[str, Any]) -> str:
    """``S``/``L``/``I`` glyphs per miss kind, capped at the bar width."""
    bar = (
        "S" * int(row.get("store_misses", 0))
        + "L" * int(row.get("load_misses", 0))
        + "I" * int(row.get("inst_misses", 0))
    )
    if len(bar) > _BAR_WIDTH:
        return bar[: _BAR_WIDTH - 1] + ">"
    return bar


def render_timeline(
    events: Iterable[Dict[str, Any]], limit: int = 40,
) -> str:
    """The per-epoch timeline table, eliding the middle of long traces.

    *limit* bounds the number of epoch rows printed; when the trace has
    more, the head and tail are shown around an elision marker.
    """
    rows = [e for e in events if e.get("kind") == "epoch"]
    if not rows:
        return "no epoch events in trace\n"

    header = (
        f"{'epoch':>6} {'insts':>7} {'trigger':<14} {'termination':<26}"
        f" {'S':>3} {'L':>3} {'I':>3}  misses"
    )
    lines = [header, "-" * len(header)]

    if limit and len(rows) > limit:
        head = rows[: limit // 2]
        tail = rows[-(limit - limit // 2):]
        elided = len(rows) - len(head) - len(tail)
        shown: List[Any] = head + [elided] + tail
    else:
        shown = list(rows)

    for row in shown:
        if isinstance(row, int):
            lines.append(f"{'...':>6}  ({row} epochs elided)")
            continue
        lines.append(
            f"{row.get('index', '?'):>6}"
            f" {row.get('instructions', 0):>7}"
            f" {str(row.get('trigger', '')):<14}"
            f" {str(row.get('termination', '') or '-'):<26}"
            f" {row.get('store_misses', 0):>3}"
            f" {row.get('load_misses', 0):>3}"
            f" {row.get('inst_misses', 0):>3}"
            f"  {_miss_bar(row)}"
        )
    lines.append("")
    lines.append(f"{len(rows)} epochs")
    return "\n".join(lines) + "\n"


def render_report(events: Iterable[Dict[str, Any]]) -> str:
    """The full obs report: counts, termination breakdown, span table."""
    digest = summarize(events)
    lines: List[str] = []

    lines.append("trace summary")
    lines.append("-------------")
    lines.append(f"events:            {digest['events']}")
    for kind, count in digest["kinds"].items():
        lines.append(f"  {kind:<16} {count}")
    lines.append(f"epochs:            {digest['epochs']}")
    lines.append(f"instructions:      {digest['instructions']}")
    lines.append(
        f"epochs/1k insts:   {digest['epochs_per_1k_insts']:.3f}"
    )
    lines.append(f"store stalls:      {digest['store_stalls']}")
    lines.append(f"SB occupancy HWM:  {digest['sb_occupancy_hwm']}")
    lines.append(f"SQ occupancy HWM:  {digest['sq_occupancy_hwm']}")

    if len(digest["epochs_by_corr"]) > 1:
        lines.append("")
        lines.append("epochs by correlation id")
        for corr, count in digest["epochs_by_corr"].items():
            lines.append(f"  {corr or '(none)':<16} {count}")

    if digest["terminations"]:
        lines.append("")
        lines.append("termination conditions")
        total = sum(digest["terminations"].values())
        for condition, count in sorted(
            digest["terminations"].items(), key=lambda kv: -kv[1],
        ):
            share = 100.0 * count / total if total else 0.0
            lines.append(f"  {condition:<28} {count:>6}  {share:5.1f}%")

    if digest["spans"]:
        lines.append("")
        lines.append(
            f"{'span':<20} {'count':>6} {'total_s':>9} {'mean_s':>9}"
            f" {'max_s':>9}"
        )
        for name, stats in digest["spans"].items():
            count = int(stats["count"])
            mean = stats["total"] / count if count else 0.0
            lines.append(
                f"{name:<20} {count:>6} {stats['total']:>9.4f}"
                f" {mean:>9.4f} {stats['max']:>9.4f}"
            )

    return "\n".join(lines) + "\n"
