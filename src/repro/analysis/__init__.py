"""Result post-processing: the SMT scheduler comparison views.

The paper's Figure 3, Figure 4 and Table 2 views are methods of
:class:`~repro.core.SimulationResult` (``termination_fractions``,
``mlp_distribution().bucketed`` and ``store_overlap_fraction``), which
:mod:`repro.harness` reads directly.
"""

from .smt import (
    SchedulerComparison,
    compare_schedulers,
    context_breakdown,
    scheduler_rows,
)

__all__ = [
    "SchedulerComparison",
    "compare_schedulers",
    "context_breakdown",
    "scheduler_rows",
]
