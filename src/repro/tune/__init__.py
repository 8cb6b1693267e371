"""Design-space autotuning over the microarchitecture knobs.

``repro.tune`` searches the SB/SQ/SMAC/scout/coalescing/consistency design
space for the configuration minimizing epochs-per-instruction on a
workload profile, instead of exhaustively sweeping it:

    from repro import api

    result = api.tune(
        {"store_queue": [16, 32, 64], "store_prefetch": ["sp0", "sp1", "sp2"]},
        profile="database", strategy="genetic", budget=12, seed=7,
    )
    print(result.best_knobs, result.best_epi_per_1000)

Pieces (all importable from here):

- :class:`SearchSpace` / :data:`Candidate` — typed parameter ranges
  validated against the sweep axes (:mod:`repro.harness.sweeps`);
- :class:`Tuner` + :class:`GridTuner` / :class:`RandomTuner` /
  :class:`GeneticTuner` — seeded ask/tell strategies;
- :class:`TunePruner` — ECM-style analytical pruning shared with
  :mod:`repro.fleet.cost`;
- :class:`TuneStateStore` — resumable population checkpoints under
  content-hash tokens;
- :func:`run_tune` / :class:`TuneSpec` / :class:`TuneResult` — the
  generation loop and its wire forms.

Entry points: :func:`repro.api.tune`, the ``mlpsim tune`` CLI command and
the service ``tune`` job kind all route here.
"""

from .driver import (
    TuneObservation,
    TuneResult,
    TuneSpec,
    TuneTelemetry,
    run_tune,
)
from .pruner import TunePruner, predicted_epi_per_1000
from .space import Candidate, SearchSpace, canonical_candidate
from .state import TuneState, TuneStateStore
from .strategies import (
    STRATEGIES,
    GeneticTuner,
    GridTuner,
    RandomTuner,
    Tuner,
    make_tuner,
)

__all__ = [
    "STRATEGIES",
    "Candidate",
    "GeneticTuner",
    "GridTuner",
    "RandomTuner",
    "SearchSpace",
    "TunePruner",
    "TuneObservation",
    "TuneResult",
    "TuneSpec",
    "TuneState",
    "TuneStateStore",
    "TuneTelemetry",
    "Tuner",
    "canonical_candidate",
    "make_tuner",
    "predicted_epi_per_1000",
    "run_tune",
]
