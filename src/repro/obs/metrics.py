"""Thread-safe metrics shared by the core, engine and service layers.

Originally this registry was private to the HTTP service; it lives here
(its canonical and, since v2.0, only home — the ``repro.service.metrics``
shim was removed per the DESIGN.md timeline) so the engine (cache
hits/misses/evictions, batch retries, worker utilization) and the simulator
(epochs per 1k instructions, termination histogram, SB/SQ occupancy
high-water marks) report into the same ``/metrics`` endpoint as the
service's own counters.  Three metric kinds:

- **counters** — monotonic event counts (``jobs_submitted_total``,
  ``engine_batches_total``, HTTP requests),
- **gauges** — sampled-at-read callbacks (queue depth, cache tiers,
  telemetry aggregates),
- **latency summaries** — bounded reservoirs of observed durations with
  p50/p95/p99 computed on demand,
- **labeled series** — counter/gauge families keyed by a label set
  (``fleet_worker_inflight{worker="w0"}``), the substrate of fleet
  metrics federation: the coordinator materializes one series per worker
  plus a fleet total, and Prometheus-side aggregation works unchanged.

Two export formats: :meth:`MetricsRegistry.to_dict` (JSON) and
:meth:`MetricsRegistry.render_prometheus` (text exposition format 0.0.4,
with ``# HELP`` / ``# TYPE`` annotations on **every** metric, not just
summaries).  Help strings attach via :meth:`MetricsRegistry.describe` or
the ``help`` argument of the mutators; undescribed metrics get a generated
placeholder so scrapers that require HELP lines never choke.

Every mutator takes the registry lock, so handler threads, the dispatcher
and batch threads may all record concurrently.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

__all__ = ["MetricsRegistry", "percentile"]


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The *fraction*-quantile of *samples* by linear interpolation."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def _escape_label(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Render a sample value: integral counts stay integral."""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6f}"


class MetricsRegistry:
    """Counters + gauges + latency reservoirs behind one lock."""

    #: Quantiles exported for every latency series, as
    #: (prometheus label, summary key, fraction).
    QUANTILES: Tuple[Tuple[str, str, float], ...] = (
        ("0.5", "p50", 0.50), ("0.95", "p95", 0.95), ("0.99", "p99", 0.99),
    )

    def __init__(self, namespace: str = "repro", reservoir: int = 2048) -> None:
        if reservoir < 1:
            raise ValueError("reservoir must hold at least one sample")
        self.namespace = namespace
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}
        #: name -> (count, sum, bounded sample window)
        self._latency: Dict[str, Tuple[int, float, Deque[float]]] = {}
        #: family name -> frozen label tuple -> value
        self._labeled: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
        #: family name -> "counter" | "gauge"
        self._labeled_kind: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._reservoir = reservoir

    # ------------------------------------------------------------ mutators --

    def describe(self, name: str, help_text: str) -> None:
        """Attach a Prometheus ``# HELP`` string to metric *name*."""
        with self._lock:
            self._help[name] = help_text

    def inc(self, name: str, delta: int = 1, help: Optional[str] = None) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta
            if help is not None:
                self._help[name] = help

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def has_metric(self, name: str) -> bool:
        """True if *name* is registered or described in any family.

        A described-but-not-yet-incremented counter counts as taken: it
        will materialize under that name, so registering a different
        kind against it would produce a duplicate exposition family.
        """
        with self._lock:
            return (
                name in self._counters
                or name in self._gauges
                or name in self._latency
                or name in self._labeled
                or name in self._help
            )

    def observe(
        self, name: str, seconds: float, help: Optional[str] = None,
    ) -> None:
        """Record one duration into the *name* latency series."""
        with self._lock:
            count, total, window = self._latency.get(
                name, (0, 0.0, deque(maxlen=self._reservoir)),
            )
            window.append(seconds)
            self._latency[name] = (count + 1, total + seconds, window)
            if help is not None:
                self._help[name] = help

    def gauge(
        self,
        name: str,
        sample: Callable[[], float],
        help: Optional[str] = None,
    ) -> None:
        """Register a gauge sampled at every export."""
        with self._lock:
            self._gauges[name] = sample
            if help is not None:
                self._help[name] = help

    # ----------------------------------------------------- labeled series --

    @staticmethod
    def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))

    def _labeled_family(
        self, name: str, kind: str, help: Optional[str],
    ) -> Dict[Tuple[Tuple[str, str], ...], float]:
        family = self._labeled.setdefault(name, {})
        known = self._labeled_kind.setdefault(name, kind)
        if known != kind:
            raise ValueError(
                f"labeled metric {name!r} is a {known}, not a {kind}"
            )
        if help is not None:
            self._help[name] = help
        return family

    def set_labeled(
        self,
        name: str,
        labels: Dict[str, str],
        value: float,
        kind: str = "gauge",
        help: Optional[str] = None,
    ) -> None:
        """Set one series of labeled family *name* to an absolute value.

        ``kind="counter"`` is for federated totals: the coordinator learns
        absolute cumulative counts from worker heartbeats and installs
        them verbatim rather than replaying increments.
        """
        key = self._label_key(labels)
        with self._lock:
            family = self._labeled_family(name, kind, help)
            family[key] = float(value)

    def remove_labeled(
        self, name: str, labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Drop one series (or, with ``labels=None``, the whole family)."""
        with self._lock:
            if labels is None:
                self._labeled.pop(name, None)
                self._labeled_kind.pop(name, None)
                return
            family = self._labeled.get(name)
            if family is not None:
                family.pop(self._label_key(labels), None)

    def labeled_value(self, name: str, labels: Dict[str, str]) -> float:
        with self._lock:
            return self._labeled.get(name, {}).get(self._label_key(labels), 0.0)

    def labeled_series(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], float]:
        """All series of family *name* (frozen label tuple -> value)."""
        with self._lock:
            return dict(self._labeled.get(name, {}))

    # ------------------------------------------------------------- exports --

    def latency_summary(self, name: str) -> Dict[str, float]:
        with self._lock:
            count, total, window = self._latency.get(name, (0, 0.0, deque()))
            samples = list(window)
        summary: Dict[str, float] = {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
        }
        for _, key, fraction in self.QUANTILES:
            summary[key] = percentile(samples, fraction)
        return summary

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            counters = dict(self._counters)
            gauges = list(self._gauges.items())
            latency_names = list(self._latency)
            labeled = {
                name: [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(family.items())
                ]
                for name, family in sorted(self._labeled.items())
            }
        return {
            "counters": counters,
            "gauges": {name: float(sample()) for name, sample in gauges},
            "latency": {
                name: self.latency_summary(name) for name in latency_names
            },
            "labeled": labeled,
        }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4).

        Every counter, gauge and summary carries ``# HELP`` and ``# TYPE``
        lines, so strict parsers (and the scrape-and-parse unit test)
        accept the whole exposition.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            latency: Dict[str, Tuple[int, float, List[float]]] = {
                name: (count, total, list(window))
                for name, (count, total, window) in self._latency.items()
            }
            labeled = {
                name: (self._labeled_kind.get(name, "gauge"), sorted(family.items()))
                for name, family in sorted(self._labeled.items())
            }
            help_texts = dict(self._help)
        lines: List[str] = []

        def annotate(name: str, metric: str, kind: str) -> None:
            text = help_texts.get(name, f"repro metric {name}")
            lines.append(f"# HELP {metric} {text}")
            lines.append(f"# TYPE {metric} {kind}")

        for name, value in counters:
            metric = f"{self.namespace}_{name}"
            annotate(name, metric, "counter")
            lines.append(f"{metric} {value}")
        for name, sample in gauges:
            metric = f"{self.namespace}_{name}"
            annotate(name, metric, "gauge")
            lines.append(f"{metric} {float(sample()):g}")
        for name, (kind, series) in labeled.items():
            metric = f"{self.namespace}_{name}"
            annotate(name, metric, kind)
            for key, value in series:
                rendered = ",".join(
                    f'{k}="{_escape_label(v)}"' for k, v in key
                )
                lines.append(f"{metric}{{{rendered}}} {_format_value(value)}")
        for name, (count, total, samples) in sorted(latency.items()):
            metric = f"{self.namespace}_{name}_seconds"
            annotate(name, metric, "summary")
            for label, _, fraction in self.QUANTILES:
                value = percentile(samples, fraction)
                lines.append(
                    f'{metric}{{quantile="{label}"}} {value:.6f}'
                )
            lines.append(f"{metric}_count {count}")
            lines.append(f"{metric}_sum {total:.6f}")
        return "\n".join(lines) + "\n"
