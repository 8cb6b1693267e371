"""repro: Store Memory-Level Parallelism Optimizations for Commercial
Applications (MICRO 2005) — a full reproduction.

The package implements the paper's epoch MLP model and its evaluation
vehicle MLPsim, together with every substrate the study depends on:

- an abstract SPARC/PowerPC-flavoured trace ISA (:mod:`repro.isa`) with
  binary trace IO (:mod:`repro.trace`),
- a cache hierarchy with MESI coherence and the Store Miss Accelerator
  (:mod:`repro.memory`),
- a gshare/BTB/RAS front end (:mod:`repro.frontend`),
- lock detection, PC->WC lock-idiom rewriting and Speculative Lock Elision
  (:mod:`repro.locks`),
- synthetic commercial-workload generators calibrated to the paper's
  Table 1 (:mod:`repro.workloads`),
- cross-chip sharing traffic (:mod:`repro.multiproc`),
- the epoch MLP simulator with store buffer/queue modelling, store
  prefetching, consistency models and Hardware Scout (:mod:`repro.core`),
- SMT scheduler comparisons (:mod:`repro.analysis`) and the table/figure
  reproduction harness (:mod:`repro.harness`).

Quickstart (see :mod:`repro.api` for the full front door)::

    from repro import api

    result = api.run("database")             # default paper configuration
    print(result.summary())
    print(result.epi_per_1000)               # the paper's figure unit

Every name below is exported lazily (PEP 562): ``import repro`` loads no
submodule, and ``repro.MlpSimulator`` imports :mod:`repro.core` on first
use.  A command imports only what it runs (DESIGN.md, "Import layering").
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".api": ("api",),
    ".config": (
        "BranchPredictorConfig",
        "CacheConfig",
        "ConsistencyModel",
        "CoreConfig",
        "MemoryConfig",
        "ScoutMode",
        "SimulationConfig",
        "SmacConfig",
        "StorePrefetchMode",
        "SystemConfig",
    ),
    ".core": (
        "MlpSimulator",
        "SimulationResult",
        "TerminationCondition",
        "TriggerKind",
        "simulate",
    ),
    ".errors": (
        "CalibrationError",
        "ConfigError",
        "ReproError",
        "SimulationError",
        "TraceError",
    ),
    ".harness.experiment": ("ExperimentSettings",),
    ".isa": ("Instruction", "InstructionClass"),
    ".memory": ("MemorySystem", "StoreMissAccelerator", "annotate_trace"),
    ".workloads": ("WORKLOADS", "WorkloadGenerator", "WorkloadProfile"),
})

__version__ = "2.0.0"

__all__ = [
    "BranchPredictorConfig",
    "CacheConfig",
    "CalibrationError",
    "ConfigError",
    "ConsistencyModel",
    "CoreConfig",
    "ExperimentSettings",
    "Instruction",
    "InstructionClass",
    "MemoryConfig",
    "MemorySystem",
    "MlpSimulator",
    "ReproError",
    "ScoutMode",
    "SimulationConfig",
    "SimulationError",
    "SimulationResult",
    "SmacConfig",
    "StoreMissAccelerator",
    "StorePrefetchMode",
    "SystemConfig",
    "TerminationCondition",
    "TraceError",
    "TriggerKind",
    "WORKLOADS",
    "WorkloadGenerator",
    "WorkloadProfile",
    "annotate_trace",
    "api",
    "simulate",
]

# The pre-v2 ``repro.Workbench`` import alias was removed per the
# DESIGN.md timeline: construct one with ``repro.api.workbench()``, or
# import the class from ``repro.harness.experiment`` for extension.
