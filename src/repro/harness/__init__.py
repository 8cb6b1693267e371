"""Experiment harness: reproduce every table and figure of the paper.

:mod:`~repro.harness.experiment` provides the :class:`Workbench`, which
caches calibrated profiles, generated traces and annotated variants so that
figure-level sweeps (dozens of core configurations) pay the expensive
memory-side simulation only once per variant.
:mod:`~repro.harness.tables` and :mod:`~repro.harness.figures` are the
drivers, one function per paper exhibit; each returns structured data and
has a matching formatter in :mod:`~repro.harness.formatting`.  The names
below are exported lazily: a single run imports the Workbench, not the
figure, table and report drivers.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".experiment": ("ExperimentSettings",),
    ".figures": (
        "figure2",
        "figure3",
        "figure4",
        "figure5",
        "figure6",
        "figure7",
        "figure8",
    ),
    ".formatting": ("format_table", "format_series"),
    ".report": ("generate_report",),
    ".sweeps": (
        "SweepRecord",
        "SweepSpec",
        "best_point",
        "coerce_axis_value",
        "pareto_front",
        "valid_axes",
    ),
    ".tables": ("table1", "table2", "table3"),
})

__all__ = [
    "ExperimentSettings",
    "SweepRecord",
    "SweepSpec",
    "best_point",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "format_series",
    "format_table",
    "generate_report",
    "pareto_front",
    "coerce_axis_value",
    "table1",
    "table2",
    "table3",
    "valid_axes",
]

# The pre-v2 ``repro.harness.Workbench`` import alias was removed per the
# DESIGN.md timeline: construct one with ``repro.api.workbench()``, or
# import the class from ``repro.harness.experiment`` for extension.
