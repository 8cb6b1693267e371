"""The Workbench: cached end-to-end experiment plumbing.

.. deprecated:: entry point
   Constructing a :class:`Workbench` directly still works, but new code
   should go through :mod:`repro.api` (``api.run`` / ``api.workbench``),
   which fronts this module, the parallel engine and the service client
   with one surface.

Pipeline per (workload, variant):

1. calibrate the profile against Table 1 (cached per workload).  Each
   calibration round generates the run-length ``pc`` trace and annotates
   it once; the calibration window's counters are read off that pass, and
   the last round's trace and default annotation are kept for steps 2 and
   4 instead of being computed again,
2. generate the instruction trace (kept in memory only),
3. apply trace transformations — WC lock rewriting and/or SLE (kept in
   memory only),
4. annotate through the memory hierarchy, branch predictor and sharing
   model (cached per memory-side configuration),
5. run MLPsim for each core configuration (stored per annotation, core
   configuration and backend when the cache is persistent).

Figure sweeps re-run step 5 dozens of times against one cached annotation,
mirroring the paper's methodology where cache behaviour is independent of
the core parameters being swept.  A run is a pure function of its
annotation and core configuration, so :meth:`Workbench.run` looks its
result up before it touches the annotation: a repeated run reads one small
entry instead of decoding the annotation and simulating again.  Stored
results live on disk only, never in the in-memory LRU, so a long sweep
cannot evict the annotations it replays.

Profiles and annotations are cached by
:class:`repro.engine.cache.ArtifactCache`: every artifact is keyed by a
content hash of the inputs that produced it (profile + settings + variant +
memory configuration) and of the simulation code, held in an in-memory LRU
and — unless disabled with ``cache_dir=None`` — written through to a
persistent cache directory shared between processes and invocations.  That
is what lets :class:`repro.engine.runner.EngineRunner` worker processes
reuse one calibration/annotation across a whole parallel sweep, and what
makes the second invocation of a figure sweep start warm.  An annotation is
stored as an :class:`~repro.trace.annotated.Annotation`: the annotated
window plus the :class:`~repro.memory.hierarchy.MemoryCounters` its memory
system left, in the columnar ``MLPN`` format on disk.  No
:class:`~repro.memory.MemorySystem` outlives :meth:`Workbench.annotated`.
Traces stay in a bounded in-memory LRU of the Workbench's own: a warm run
reads only the profile and a stored result or the annotation, and
regenerating a trace costs less than decoding it.  Each build step runs
with the cyclic garbage collector paused: it allocates millions of objects
and no cycles, which the collector would rescan again and again.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import (
    ConsistencyModel,
    MemoryConfig,
    SimulationConfig,
    SystemConfig,
)
from ..core import SimulationResult
from ..core.backend import resolve_backend
from ..core.cpi import PAPER_CPI_ON_CHIP
from ..core.window import WindowObserver
from ..engine import serialize
from ..engine.cache import ArtifactCache, content_key, resolve_cache_dir
from ..errors import CalibrationError
from ..frontend import BranchPredictor
from ..isa import Instruction
from ..locks import apply_sle, apply_transactional_memory, rewrite_pc_to_wc
from ..memory import (
    AnnotatedTrace,
    MemoryCounters,
    MemorySystem,
    annotate_trace,
)
from ..multiproc import MultiChipSystem, SharingModel
from ..trace.annotated import Annotation, gc_paused
from ..workloads import WORKLOADS, WorkloadProfile, calibrate_profile
from ..workloads.calibration import RunPass
from ..workloads.generator import WorkloadGenerator


@dataclass(frozen=True)
class ExperimentSettings:
    """Trace sizing and seeding shared by all experiments."""

    warmup: int = 40_000
    measure: int = 120_000
    seed: int = 7
    calibrate: bool = True

    @property
    def total(self) -> int:
        return self.warmup + self.measure


@dataclass(frozen=True)
class SharingSettings:
    """Remote-traffic model parameters for multi-chip experiments."""

    nodes: int = 2
    write_rate_per_1000: float = 1.2
    read_rate_per_1000: float = 0.4


class Workbench:
    """Caches every expensive stage of the experiment pipeline.

    *cache_dir* follows :func:`repro.engine.cache.resolve_cache_dir`:
    ``"auto"`` (the default) persists artifacts under ``$REPRO_CACHE_DIR``
    or ``.repro-cache``; ``None`` keeps the cache in-memory only; any other
    value is used as the cache directory.  Pass an existing *artifacts*
    cache to share one between workbenches.  Traces are never persisted:
    they live in this Workbench's own in-memory LRU, bounded by
    *memory_entries* like the artifact cache's.  Each annotation keeps its
    memory system's counters (:meth:`memory_for`), not the memory system.
    """

    def __init__(
        self,
        settings: ExperimentSettings | None = None,
        cache_dir: object = "auto",
        artifacts: ArtifactCache | None = None,
        memory_entries: int = 128,
    ) -> None:
        self.settings = settings or ExperimentSettings()
        self.artifacts = artifacts if artifacts is not None else ArtifactCache(
            resolve_cache_dir(cache_dir), memory_entries=memory_entries,
        )
        self._traces = ArtifactCache(None, memory_entries=memory_entries)
        self._profiles: Dict[str, WorkloadProfile] = {}
        self._counters: Dict[tuple, MemoryCounters] = {}
        #: The last calibration's default annotation as (key, Annotation),
        #: until the next :meth:`annotated` call takes or drops it.
        self._handoff: tuple = (None, None)

    # -- profiles / traces ----------------------------------------------------

    def profile(self, workload: str) -> WorkloadProfile:
        """The (calibrated) profile for *workload*."""
        if workload not in self._profiles:
            base = WORKLOADS[workload]
            if self.settings.calibrate:
                base = self._calibrated(base)
            self._profiles[workload] = base
        return self._profiles[workload]

    def _calibrated(self, base: WorkloadProfile) -> WorkloadProfile:
        settings = self.settings
        instructions = min(150_000, settings.total)
        warmup = min(50_000, settings.warmup + 10_000)
        if instructions <= warmup:
            raise CalibrationError(
                f"{base.name}: the calibration window [{warmup}, "
                f"{instructions}) of the {settings.total}-instruction trace "
                f"is empty; use --no-calibrate or a --measure above "
                f"{warmup - settings.warmup}"
            )
        key = content_key("profile", base, instructions, warmup, settings.seed)
        run = RunPass(
            settings.total, settings.warmup, SimulationConfig().core.branch,
        )

        def calibrate() -> WorkloadProfile:
            with gc_paused():
                return calibrate_profile(
                    base,
                    instructions=instructions,
                    warmup=warmup,
                    seed=settings.seed,
                    run=run,
                )

        profile = self.artifacts.get_or_create("profile", key, calibrate)
        if run.trace is not None:
            # Calibration just ran: its last pass generated and annotated
            # this profile's trace exactly as steps 2 and 4 would.
            self._traces.put("trace", self._trace_key(profile, "pc"), run.trace)
            self._handoff = (
                self._annotation_key(profile, "pc", MemoryConfig(), None, ""),
                Annotation(run.annotated, run.counters),
            )
        return profile

    def set_profile(self, workload: str, profile: WorkloadProfile) -> None:
        """Install a custom profile (e.g. the scaled SMAC variant).

        Content addressing makes downstream artifacts self-invalidating —
        the new profile hashes to new trace/annotation keys — so only the
        counters lookaside (which is keyed by name for :meth:`memory_for`)
        needs explicit dropping.
        """
        self._profiles[workload] = profile
        self._counters = {
            key: value for key, value in self._counters.items()
            if key[0] != workload
        }

    def trace(self, workload: str, variant: str = "pc") -> List[Instruction]:
        """The instruction trace for a workload under a lock-idiom variant.

        Variants: ``pc`` (native TSO), ``wc`` (lock idioms rewritten to
        lwarx/stwcx/isync + lwsync), ``pc_sle``/``wc_sle`` (locks elided),
        ``pc_tm``/``wc_tm`` (critical sections run as transactions).
        """
        profile = self.profile(workload)
        return self._traces.get_or_create(
            "trace", self._trace_key(profile, variant),
            lambda: self._build_trace(workload, profile, variant),
        )

    def _trace_key(self, profile: WorkloadProfile, variant: str) -> str:
        return content_key(
            "trace", profile, self.settings.total, self.settings.seed, variant,
        )

    def _build_trace(
        self, workload: str, profile: WorkloadProfile, variant: str
    ) -> List[Instruction]:
        with gc_paused():
            if variant == "pc":
                generator = WorkloadGenerator(profile, seed=self.settings.seed)
                return generator.generate(self.settings.total)
            base = self.trace(workload, "pc")
            if variant == "wc":
                return rewrite_pc_to_wc(base)
            if variant == "pc_sle":
                return apply_sle(base)
            if variant == "wc_sle":
                return apply_sle(rewrite_pc_to_wc(base))
            if variant == "pc_tm":
                return apply_transactional_memory(base)
            if variant == "wc_tm":
                return apply_transactional_memory(rewrite_pc_to_wc(base))
        raise ValueError(f"unknown trace variant {variant!r}")

    # -- annotation ------------------------------------------------------------

    def annotated(
        self,
        workload: str,
        variant: str = "pc",
        memory_config: MemoryConfig | None = None,
        sharing: SharingSettings | None = None,
        tag: str = "",
    ) -> AnnotatedTrace:
        """Miss-classified measurement window for a workload variant.

        The cache key hashes the profile, trace sizing, variant, memory
        configuration and sharing model, so different SMAC geometries never
        collide; *tag* remains a human-readable discriminator used by
        :meth:`memory_for`.
        """
        config = memory_config or MemoryConfig()
        profile = self.profile(workload)
        key = self._annotation_key(profile, variant, config, sharing, tag)
        # Take the calibration's annotation if it is this one; otherwise
        # drop it before building another.
        handoff, self._handoff = self._handoff, (None, None)
        ready = handoff[1] if handoff[0] == key else None
        del handoff
        annotated, counters = self.artifacts.get_or_create(
            "annotation", key,
            lambda: ready or self._build_annotation(
                workload, variant, config, sharing, profile,
            ),
        )
        # memory_for looks up by name (tags carry the human-readable
        # discrimination there); repopulated even on a persistent hit.
        self._counters[(workload, variant, tag, sharing)] = counters
        return annotated

    def _annotation_key(
        self,
        profile: WorkloadProfile,
        variant: str,
        config: MemoryConfig,
        sharing: SharingSettings | None,
        tag: str,
    ) -> str:
        return content_key(
            "annotation", profile, self.settings.total, self.settings.warmup,
            self.settings.seed, variant, config, sharing, tag,
            SimulationConfig().core.branch,
        )

    def _build_annotation(
        self,
        workload: str,
        variant: str,
        config: MemoryConfig,
        sharing: SharingSettings | None,
        profile: WorkloadProfile,
    ) -> Annotation:
        system = None
        nodes = sharing.nodes if sharing is not None else 2
        memory = MemorySystem(config, single_chip=(nodes == 1))
        if sharing is not None and sharing.nodes > 1:
            generator = WorkloadGenerator(profile, seed=self.settings.seed)
            shared_region = generator.space["shared"]
            model = SharingModel(
                shared_base=shared_region.base,
                shared_bytes=shared_region.size,
                write_rate_per_1000=sharing.write_rate_per_1000,
                read_rate_per_1000=sharing.read_rate_per_1000,
                remote_nodes=sharing.nodes - 1,
                seed=self.settings.seed + 1,
            )
            system = MultiChipSystem(
                config, SystemConfig(nodes=sharing.nodes), sharing=model
            )
            memory = system.memory
        predictor = BranchPredictor(SimulationConfig().core.branch)
        with gc_paused():
            annotated = annotate_trace(
                self.trace(workload, variant),
                memory,
                predictor=predictor,
                system=system,
                warmup=self.settings.warmup,
            )
        return Annotation(annotated, memory.counters())

    def memory_for(
        self,
        workload: str,
        variant: str = "pc",
        sharing: SharingSettings | None = None,
        tag: str = "",
    ) -> MemoryCounters:
        """The counters of the memory system that produced an annotation."""
        key = (workload, variant, tag, sharing)
        if key not in self._counters:
            raise KeyError(
                f"annotate {key} first via Workbench.annotated(...)"
            )
        return self._counters[key]

    # -- simulation ---------------------------------------------------------------

    def simulation_config(self, workload: str, **core_changes) -> SimulationConfig:
        """Default simulation config with the workload's Table 3 CPI."""
        config = dataclasses.replace(
            SimulationConfig(),
            cpi_on_chip=PAPER_CPI_ON_CHIP.get(workload, 1.0),
            warmup_instructions=self.settings.warmup,
            measure_instructions=self.settings.measure,
        )
        if core_changes:
            config = config.with_core(**core_changes)
        return config

    def resolved_config(
        self,
        workload: str,
        variant: str = "pc",
        config: Optional[SimulationConfig] = None,
        **core_changes,
    ) -> SimulationConfig:
        """The effective simulation config for one (workload, variant) run.

        Applies the same resolution :meth:`run` uses — workload defaults,
        explicit overrides, and the forced WC consistency model for ``wc*``
        variants — so callers that need the config *without* running (shard
        planning) agree exactly with the simulation path.
        """
        if config is None:
            config = self.simulation_config(workload, **core_changes)
        elif core_changes:
            config = config.with_core(**core_changes)
        if variant.startswith("wc") and (
            config.core.consistency is not ConsistencyModel.WC
        ):
            config = config.with_core(consistency=ConsistencyModel.WC)
        return config

    def run(
        self,
        workload: str,
        variant: str = "pc",
        memory_config: MemoryConfig | None = None,
        sharing: SharingSettings | None = None,
        tag: str = "",
        config: Optional[SimulationConfig] = None,
        observer: Optional[WindowObserver] = None,
        backend: Optional[str] = None,
        **core_changes,
    ) -> SimulationResult:
        """Annotate (cached) and simulate one configuration.

        *observer* (e.g. an :class:`repro.obs.EpochTimelineRecorder`)
        attaches to the simulator run; ``None`` keeps the unobserved hot
        path.  *backend* selects the execution backend (``"event"``, the
        default, or ``"reference"``); ``None`` defers to ``$REPRO_BACKEND``
        and then the default.  Every backend returns a bit-identical
        result, so the choice never changes what is measured.

        With a persistent cache, the result and the annotation's counters
        are stored as a ``simulation`` artifact keyed by the annotation
        key, the resolved config and the backend name; an unobserved run
        of a stored key returns the stored result without reading the
        annotation, and :meth:`memory_for` answers from the stored
        counters.  An observed run always simulates, so its observer sees
        every epoch.
        """
        config = self.resolved_config(workload, variant, config, **core_changes)
        simulator = resolve_backend(backend)
        key = None
        if self.artifacts.directory is not None:
            key = content_key(
                "simulation",
                self._annotation_key(
                    self.profile(workload), variant,
                    memory_config or MemoryConfig(), sharing, tag,
                ),
                config, simulator.name,
            )
        if key is not None and observer is None:
            stored = self.artifacts.get("simulation", key, memory=False)
            if stored is not None:
                result, counters = stored
                self._counters[(workload, variant, tag, sharing)] = counters
                return result
        annotated = self.annotated(workload, variant, memory_config, sharing, tag)
        result = simulator.simulate(config, annotated, observer=observer)
        if key is not None:
            counters = self.memory_for(workload, variant, sharing, tag)
            self.artifacts.put(
                "simulation", key, (result, counters), memory=False,
            )
        return result


serialize.register(ExperimentSettings, SharingSettings)
