"""Window-scan state, epoch accounting and observer hooks for MLPsim.

:class:`MlpSimulator.run <repro.core.mlpsim.MlpSimulator>` used to be one
300-line loop juggling ~15 mutable locals.  This module holds the pieces it
was decomposed into:

- :class:`WindowState` owns every piece of mutable simulation state — the
  cross-epoch machine state (position, epoch clock, replay queue, register
  scoreboard, store unit) and the per-epoch window bookkeeping (outstanding
  miss counts, occupancies, trigger/termination).  The per-instruction-class
  handler methods on the simulator mutate exactly one of these objects.
- :class:`EpochAccountant` centralizes all result accounting: the
  miss/overlap/scout counters, epoch-record construction and the final
  store-bandwidth rollup.  No handler touches ``SimulationResult`` directly.
- :class:`WindowObserver` is the optional instrumentation hook.  Profilers
  and tracers subclass it and attach via ``MlpSimulator(config,
  observer=...)``; when no observer is attached the hot path pays a single
  ``is None`` check per event site.

The decomposition is behaviour-preserving: the golden-result tests in
``tests/test_golden_window.py`` pin EPI, the termination/trigger histograms
and the store-accounting counters to the pre-refactor values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from ..errors import SimulationError
from .epoch import EpochRecord, TerminationCondition, TriggerKind
from .results import SimulationResult
from .scoreboard import RegisterScoreboard
from .scout import ScoutOutcome
from .store_unit import StoreEntry, StoreUnit


@dataclass(slots=True)
class DeferredLoad:
    """A load consumed into the window whose address depends on an
    outstanding miss; it executes (and may issue its own miss) later."""

    exec_epoch: int
    index: int
    dest: int
    missing: bool


class WindowObserver:
    """No-op instrumentation callbacks invoked by the window scan.

    Subclass and override any subset; every method defaults to a no-op so
    observers stay cheap to write.  The simulator only calls these when an
    observer is attached, keeping the unobserved hot path branch-free.
    """

    def on_epoch_begin(self, state: "WindowState") -> None:
        """A new epoch's window is opening; *state* is readable in place.

        Called after :meth:`WindowState.begin_epoch` has pumped the store
        unit and matured the replay queue, so occupancies reflect the
        window's starting condition.  Observers must treat *state* as
        read-only.
        """

    def on_epoch(self, record: EpochRecord) -> None:
        """One epoch closed with at least one off-chip miss outstanding."""

    def on_termination(
        self,
        condition: TerminationCondition,
        pos: int,
        epoch: int,
    ) -> None:
        """The window stopped growing at trace position *pos*."""

    def on_store_event(self, entry: StoreEntry, pos: int, epoch: int) -> None:
        """A store miss went off chip while the window was at *pos*."""


@dataclass(slots=True)
class WindowState:
    """All mutable state of one :class:`MlpSimulator` run.

    Cross-epoch machine state lives alongside the per-epoch window
    bookkeeping that :meth:`begin_epoch` resets; the per-instruction-class
    handlers mutate this object and nothing else.
    """

    scoreboard: RegisterScoreboard
    store_unit: StoreUnit
    stagnation_limit: int
    observer: Optional[WindowObserver] = None
    #: Cross-context SMAC presence probe (SMT sharing hook).  When set, a
    #: store whose annotation says ``smac_hit`` consults this callable with
    #: the store's granule; returning ``False`` demotes the hit to a plain
    #: miss (another hardware context dirtied the line since this context
    #: trained the accelerator).  ``None`` — the single-context default —
    #: keeps the annotated hit authoritative and the hot path unchanged.
    smac_probe: Optional[Callable[[int], bool]] = None

    # -- cross-epoch machine state ----------------------------------------
    pos: int = 0
    cur: int = 0
    resolved: Set[int] = field(default_factory=set)
    replay: List[DeferredLoad] = field(default_factory=list)
    deferred_other: List[int] = field(default_factory=list)
    stagnation: int = 0
    progress_key: Tuple[int, int, int] = (-1, -1, -1)

    # -- per-epoch window bookkeeping --------------------------------------
    store_events: List[StoreEntry] = field(default_factory=list)
    out_loads: int = 0
    out_insts: int = 0
    pf_loads: int = 0
    pf_stores: int = 0
    pf_insts: int = 0
    trigger: Optional[TriggerKind] = None
    blocking: bool = False
    sq_full_seen: bool = False
    rob_occ: int = 0
    iw_occ: int = 0
    loads_inflight: int = 0
    epoch_start_pos: int = 0
    first_issue_pos: int = -1
    termination: Optional[TerminationCondition] = None

    # ------------------------------------------------------------ epochs --

    def begin_epoch(self) -> None:
        """Reset the window bookkeeping and replay deferred work.

        Mirrors the head of the old monolithic loop exactly: snapshot the
        progress key, drop matured ALU deferrals, pump the store unit (its
        newly issued misses open the epoch), then mature the replay queue —
        a deferred missing load whose input arrived becomes this epoch's
        outstanding load miss.
        """
        self.progress_key = (
            self.pos, len(self.replay), self.store_unit.occupancy,
        )
        self.deferred_other = [e for e in self.deferred_other if e > self.cur]
        issued, _ = self.store_unit.pump(self.cur)
        self.store_events = []
        self.add_store_events(issued)
        self.out_loads = 0
        self.out_insts = 0
        self.pf_loads = self.pf_stores = self.pf_insts = 0
        self.trigger = TriggerKind.STORE if self.store_events else None
        self.blocking = False
        self.sq_full_seen = self.store_unit.sq_full
        still: List[DeferredLoad] = []
        for deferred in self.replay:
            if deferred.exec_epoch <= self.cur:
                if deferred.missing:
                    self.out_loads += 1
                    self.blocking = True
                    if self.trigger is None:
                        self.trigger = TriggerKind.LOAD
            else:
                still.append(deferred)
        self.replay = still
        self.rob_occ = (
            len(self.replay) + len(self.deferred_other)
            + len(self.store_unit.sb)
        )
        self.iw_occ = len(self.replay) + len(self.deferred_other)
        self.loads_inflight = self.out_loads
        self.epoch_start_pos = self.pos
        self.first_issue_pos = (
            self.pos if (self.store_events or self.out_loads) else -1
        )
        self.termination = None

    def advance_epoch(self) -> None:
        """Advance the epoch clock: all misses of the closed epoch are now
        complete."""
        self.cur += 1

    def check_progress(self, misses: int) -> None:
        """Police forward progress after a closed epoch."""
        key = (self.pos, len(self.replay), self.store_unit.occupancy)
        if key == self.progress_key and misses == 0:
            self.stagnation += 1
            if self.stagnation > self.stagnation_limit:
                raise SimulationError(
                    f"no forward progress at position {self.pos} "
                    f"(epoch clock {self.cur - 1}); simulator state is "
                    f"wedged"
                )
        else:
            self.stagnation = 0

    # ---------------------------------------------------------- bookkeeping --

    def add_store_events(self, entries: List[StoreEntry]) -> None:
        """Record newly issued store misses as outstanding in this window.

        Called after every store dispatch and pump, almost always with an
        empty list, so the empty case returns before touching anything and
        the no-observer case hoists the ``is None`` test out of the loop.
        """
        if not entries:
            return
        pos = self.pos
        observer = self.observer
        if observer is None:
            for entry in entries:
                entry.issue_position = pos
            self.store_events.extend(entries)
            return
        for entry in entries:
            entry.issue_position = pos
            self.store_events.append(entry)
            observer.on_store_event(entry, pos, self.cur)

    def note_store_trigger(self) -> None:
        """A store miss opened the epoch at the current position."""
        if self.store_events and self.trigger is None:
            self.trigger = TriggerKind.STORE
            self.first_issue_pos = self.pos

    def note_load_miss(self, dest: int) -> None:
        """A load (or CAS load half) issued an off-chip miss right now."""
        self.scoreboard.produce_off_chip(dest, self.cur)
        self.out_loads += 1
        self.loads_inflight += 1
        self.blocking = True
        if self.trigger is None:
            self.trigger = TriggerKind.LOAD
            self.first_issue_pos = self.pos

    def others_pending(self) -> bool:
        """True when non-store work is outstanding (serializer precondition)."""
        return (
            self.out_loads > 0 or self.out_insts > 0
            or bool(self.replay) or bool(self.deferred_other)
        )

    def store_full_termination(self) -> TerminationCondition:
        """The Figure 3 label for a store-buffer-full window stop."""
        if self.sq_full_seen or self.store_unit.sq_full:
            return TerminationCondition.STORE_QUEUE_STORE_BUFFER_FULL
        return TerminationCondition.STORE_BUFFER_FULL


def is_quiescent(state: WindowState) -> bool:
    """True when *state* (at an epoch boundary) carries nothing forward.

    The predicate behind :mod:`repro.shard` boundaries: store buffer and
    store queue empty with no pending barrier, no *unmatured or missing*
    deferred work (entries whose epoch already passed and that will not
    miss are dropped untouched by the next ``begin_epoch``), every register
    usable in the current epoch, and no resolved (prefetched) position at
    or beyond the cursor.  A fresh simulator started on the remaining trace
    suffix behaves identically from here: every comparison the simulator
    makes is positional or epoch-relative, and all the state it consults
    from now on compares equal in both coordinate systems.
    """
    unit = state.store_unit
    if unit.sb or unit.sq or unit._pending_barrier:
        return False
    cur = state.cur
    for deferred in state.replay:
        if deferred.missing or deferred.exec_epoch > cur:
            return False
    for epoch in state.deferred_other:
        if epoch > cur:
            return False
    for epoch in state.scoreboard._ready:
        if epoch > cur:
            return False
    pos = state.pos
    for index in state.resolved:
        if index >= pos:
            return False
    return True


class EpochAccountant:
    """Centralized miss/overlap/scout accounting for one simulation run.

    Owns the :class:`SimulationResult` being built; the simulator and its
    handlers report events here instead of poking result fields, so the
    accounting reads in one place and the ECM-style per-phase attribution
    (which misses were charged to which epoch, what was hidden by overlap
    or scouting) stays auditable.
    """

    __slots__ = ("result",)

    def __init__(self, instructions: int) -> None:
        self.result = SimulationResult(instructions=instructions)

    # -- per-event counters -------------------------------------------------

    def note_fully_overlapped(self, count: int) -> None:
        """Store misses whose latency computation fully hid (Table 2)."""
        self.result.fully_overlapped_stores += count

    def note_accelerated_store(self) -> None:
        """A store miss the SMAC (or perfect-store mode) absorbed."""
        self.result.accelerated_stores += 1

    # -- epoch close --------------------------------------------------------

    def epoch_misses(self, state: WindowState) -> int:
        """Off-chip accesses charged to the epoch being closed."""
        return (
            len(state.store_events) + state.out_loads + state.out_insts
            + state.pf_loads + state.pf_stores + state.pf_insts
        )

    def close_epoch(self, state: WindowState) -> Tuple[int, Optional[EpochRecord]]:
        """Build the epoch's record (``None`` when no miss was outstanding)."""
        misses = self.epoch_misses(state)
        if misses == 0:
            return 0, None
        record = EpochRecord(
            index=len(self.result.epochs),
            trigger=state.trigger or TriggerKind.STORE,
            termination=state.termination,
            store_misses=len(state.store_events) + state.pf_stores,
            load_misses=state.out_loads + state.pf_loads,
            inst_misses=state.out_insts + state.pf_insts,
            instructions=state.pos - state.epoch_start_pos,
        )
        return misses, record

    def apply_scout(self, record: EpochRecord, outcome: ScoutOutcome) -> None:
        """Fold one Hardware Scout episode's prefetches into its epoch."""
        record.load_misses += outcome.loads
        record.store_misses += outcome.stores
        record.inst_misses += outcome.insts
        record.scouted = True
        self.result.scout_episodes += 1

    def commit_epoch(self, record: EpochRecord) -> None:
        self.result.epochs.append(record)

    # -- run close ----------------------------------------------------------

    def finalize(self, store_unit: StoreUnit) -> SimulationResult:
        """Copy the store unit's bandwidth accounting into the result."""
        self.result.stores_committed = store_unit.stats.committed
        self.result.store_prefetch_requests = store_unit.stats.prefetch_requests
        self.result.stores_coalesced = store_unit.stats.coalesced
        self.result.sb_occupancy_hwm = store_unit.stats.sb_hwm
        self.result.sq_occupancy_hwm = store_unit.stats.sq_hwm
        return self.result
