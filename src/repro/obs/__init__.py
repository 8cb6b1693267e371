"""repro.obs — the unified observability layer.

One package shared by the simulator core, the engine and the service:

- :mod:`repro.obs.trace` — structured spans/events exported as JSONL,
- :mod:`repro.obs.context` — correlation IDs threaded from a service job
  through engine batches down to individual simulator runs,
- :mod:`repro.obs.metrics` — the canonical counters/gauges/latency
  registry behind ``/metrics`` (JSON and Prometheus),
- :mod:`repro.obs.recorder` — :class:`EpochTimelineRecorder`, the
  ``WindowObserver`` that streams per-epoch events,
- :mod:`repro.obs.report` — renderers behind ``mlpsim trace`` and
  ``mlpsim obs report``,
- :mod:`repro.obs.timeline` — fleet job phase decomposition and
  critical-path analysis behind ``mlpsim obs critical-path``,
- :mod:`repro.obs.logging` — structured (text or JSON-lines) logging with
  correlation IDs,
- :mod:`repro.obs.options` — :class:`ObsOptions`, the knob bundle the
  API/CLI thread down to worker processes.

Everything is standard library only, and everything is pay-for-what-you-
use: with no tracer or recorder attached the hot paths keep
their existing ``is None`` fast checks and golden results stay
bit-identical.  Imports are pay-for-what-you-use too: the names below are
exported lazily, so importing one submodule loads only that submodule.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".context": (
        "correlation",
        "correlation_id",
        "current_traceparent",
        "format_traceparent",
        "new_correlation_id",
        "new_span_id",
        "parent_span_id",
        "parse_traceparent",
        "set_correlation_id",
        "set_parent_span_id",
        "trace_context",
    ),
    ".logging": ("get_logger", "setup_logging"),
    ".metrics": ("MetricsRegistry", "percentile"),
    ".options": ("ObsOptions",),
    ".recorder": ("STALL_CONDITIONS", "EpochTimelineRecorder"),
    ".report": ("render_report", "render_timeline", "summarize"),
    ".timeline": (
        "PHASES",
        "JobTimeline",
        "aggregate_phases",
        "connected_roots",
        "critical_path",
        "fleet_job_ids",
        "job_timeline",
        "render_timeline_report",
        "span_tree",
    ),
    ".trace": (
        "Span",
        "Tracer",
        "default_trace_file",
        "load_events",
        "read_events",
        "trace_files",
    ),
})

__all__ = [
    "EpochTimelineRecorder",
    "JobTimeline",
    "MetricsRegistry",
    "ObsOptions",
    "PHASES",
    "STALL_CONDITIONS",
    "Span",
    "Tracer",
    "aggregate_phases",
    "connected_roots",
    "correlation",
    "correlation_id",
    "critical_path",
    "current_traceparent",
    "default_trace_file",
    "fleet_job_ids",
    "format_traceparent",
    "get_logger",
    "job_timeline",
    "load_events",
    "new_correlation_id",
    "new_span_id",
    "parent_span_id",
    "parse_traceparent",
    "percentile",
    "read_events",
    "render_report",
    "render_timeline",
    "render_timeline_report",
    "set_correlation_id",
    "set_parent_span_id",
    "setup_logging",
    "span_tree",
    "summarize",
    "trace_context",
    "trace_files",
]
