"""MLPsim: the trace-driven epoch MLP simulator (paper Section 4.1).

The simulator consumes an *annotated* trace — instructions paired with the
core-configuration-independent miss classification produced by
:func:`repro.memory.annotate.annotate_trace` — and partitions execution into
epochs by applying the window termination conditions implied by the core
configuration and memory consistency model.

Model of time: on-chip latencies are ignored.  Every off-chip access issued
inside an epoch completes when the epoch ends.  A register written by a
missing load issued in epoch *e* is usable from epoch *e+1*; instructions
that need it occupy issue-window entries until then.  The sole place where
real time enters is the *overlap depth*: a store miss whose request has been
outstanding for a full memory latency of instructions (IPC ~ 1) with no
intervening stall completes silently — this is the paper's "missing store
fully overlapped with computation" (Table 2).

The scan enforces, in priority order per instruction:

1. ROB / issue-window / load-buffer limits (bind only while something
   blocks retirement),
2. instruction-fetch misses (stop fetch; the miss overlaps this epoch),
3. per-class semantics: stores flow through the store unit (store buffer /
   store queue / coalescing / prefetch / consistency model), serializing
   instructions drain according to the consistency model, mispredicted
   branches dependent on missing loads stop the window, loads issue or
   defer on register dependences.

Hardware Scout episodes and prefetch-past-serializing are layered on top as
speculative look-ahead passes (:mod:`repro.core.scout`).

Structure: all mutable state lives in :class:`~repro.core.window.WindowState`,
result accounting in :class:`~repro.core.window.EpochAccountant`, and each
instruction class has its own ``_handle_*`` method — see
:mod:`repro.core.window` for the decomposition rationale and the observer
hooks that let instrumentation attach without touching this hot path.

Hot path: the per-instruction scan is the throughput bottleneck of every
paper-figure sweep, so :meth:`MlpSimulator._scan_window` trades a little
handler symmetry for speed.  The four common classes (ALU-like, loads,
stores, control) are recognized with identity tests ordered by dynamic
frequency and the ALU/load/control bodies are inlined into the loop; only
the rare serializing classes go through ``self._serial_handlers``, a
dispatch table precomputed per consistency model at construction.  The
golden-result tests pin the outputs to the pre-optimization values
(``benchmarks/perf`` tracks the speed).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..config import (
    ConsistencyModel,
    CoreConfig,
    ScoutMode,
    SimulationConfig,
)
from ..errors import ShardBoundaryError
from ..isa import Instruction, InstructionClass
from ..memory.annotate import AccessInfo, AnnotatedTrace
from .epoch import TerminationCondition, TriggerKind
from .results import SimulationResult
from .scoreboard import RegisterScoreboard
from .scout import run_scout
from .store_unit import StoreEntry, StoreUnit
from .window import (
    DeferredLoad,
    EpochAccountant,
    WindowObserver,
    WindowState,
    is_quiescent,
)

_SCOUTABLE = frozenset({
    TerminationCondition.WINDOW_FULL,
    TerminationCondition.STORE_QUEUE_WINDOW_FULL,
    TerminationCondition.STORE_BUFFER_FULL,
    TerminationCondition.STORE_QUEUE_STORE_BUFFER_FULL,
    TerminationCondition.STORE_SERIALIZE,
    TerminationCondition.OTHER_SERIALIZE,
})


class MlpSimulator:
    """Epoch MLP simulator bound to one configuration."""

    __slots__ = (
        "config",
        "core",
        "overlap_depth",
        "scout_depth",
        "observer",
        "_serial_handlers",
    )

    def __init__(
        self,
        config: SimulationConfig,
        observer: WindowObserver | None = None,
    ) -> None:
        self.config = config
        self.core: CoreConfig = config.core
        #: Instructions of computation that fully hide one off-chip latency.
        self.overlap_depth: int = config.latency_instructions
        #: Instructions one Hardware Scout episode can cover.
        self.scout_depth: int = config.scout_depth
        self.observer = observer
        # Precomputed dispatch for the serializing instruction classes.
        # The consistency model decides each class's semantics once, here,
        # instead of per instruction inside the scan loop.  All handlers
        # share the (self, trace, state, inst, info) signature.  They are
        # stored unbound: bound methods would point back at the simulator,
        # and the cycle would keep every finished simulator (with its
        # trace and any skip tables) alive until the cyclic collector ran.
        cls = type(self)
        if self.core.consistency is ConsistencyModel.PC:
            self._serial_handlers = {
                InstructionClass.CAS: cls._handle_serializer_pc,
                InstructionClass.MEMBAR: cls._handle_serializer_pc,
                # isync waits on older instructions only under WC; in a
                # PC-configured run it executes freely.
                InstructionClass.ISYNC: cls._handle_freely,
                InstructionClass.LWSYNC: cls._handle_barrier,
            }
        else:
            self._serial_handlers = {
                # CAS in a WC-configured run of a TSO trace: an atomic
                # load+store without TSO's drain semantics.
                InstructionClass.CAS: cls._handle_wc_cas,
                InstructionClass.MEMBAR: cls._handle_barrier,
                InstructionClass.ISYNC: cls._handle_isync_wc,
                InstructionClass.LWSYNC: cls._handle_barrier,
            }

    # ------------------------------------------------------------------ run --

    def run(
        self,
        trace: AnnotatedTrace,
        observer: WindowObserver | None = None,
        *,
        start: int = 0,
        stop: int | None = None,
        quiescent_log: Optional[List[Tuple[int, int]]] = None,
    ) -> SimulationResult:
        """Partition *trace* into epochs and return the measurements.

        The keyword-only parameters drive :mod:`repro.shard`:

        - *start* starts a fresh machine with the cursor at this position
          (a planned shard boundary); the instructions before it are never
          visited.  It must lie in ``[0, len(trace))``.
        - *stop* ends the run at a planned shard boundary, an absolute
          position after *start*: the first epoch-loop bottom where the
          cursor is at *stop* and the machine is quiescent.  The boundary
          must be one this simulation actually passes through quiescently
          (a position from a shard plan); a cursor that moves past it
          raises :class:`ShardBoundaryError`.
        - *quiescent_log* collects ``(pos, cur)`` at every quiescent epoch
          boundary — the record shard planning cuts at.

        The result counts the instructions from *start* to *stop* (or to
        the end of the trace).
        """
        n = len(trace)
        if start and not 0 < start < n:
            raise ShardBoundaryError(
                f"shard start {start} is outside a trace of {n} instructions"
            )
        if stop is not None and stop <= start:
            raise ShardBoundaryError(
                f"shard stop {stop} does not follow its start {start}"
            )
        state, accountant = self.new_state(trace, observer, start=start)
        # Epoch-boundary instrumentation is cold (once per epoch, not per
        # instruction); a single flag keeps the plain path to one check.
        instrumented = stop is not None or quiescent_log is not None

        step_epoch = self.step_epoch
        while not step_epoch(trace, state, accountant)[0]:
            if not instrumented:
                continue
            pos = state.pos
            if stop is not None and pos >= stop:
                if pos > stop:
                    raise ShardBoundaryError(
                        f"planned shard boundary {stop} was passed without "
                        f"a quiescent epoch there (cursor at {pos}); the "
                        f"shard plan does not match this trace/configuration"
                    )
                # The cursor can sit at the boundary for several epochs
                # (a stalled instruction retries there); stop at the first
                # quiescent one, the point the quiescent log recorded.
                if is_quiescent(state):
                    # The unit is drained at a quiescent boundary, so
                    # finalize only copies the accumulated store statistics.
                    accountant.result.instructions = stop - start
                    return accountant.finalize(state.store_unit)
            if (
                quiescent_log is not None
                and 0 < pos < n
                and is_quiescent(state)
            ):
                quiescent_log.append((pos, state.cur))

        # Final drain: entries whose misses completed in the last epoch are
        # committed here so the bandwidth accounting covers every store.
        state.store_unit.pump(state.cur + 1)
        return accountant.finalize(state.store_unit)

    # ------------------------------------------------------------ stepping --

    def new_state(
        self,
        trace: AnnotatedTrace,
        observer: WindowObserver | None = None,
        *,
        start: int = 0,
    ) -> Tuple[WindowState, EpochAccountant]:
        """The fresh ``(state, accountant)`` pair a simulation of *trace*
        starts from, with the cursor at *start*.

        :meth:`run` and externally driven simulations (:mod:`repro.smt`,
        which interleaves epochs from several contexts) both start here
        and advance with :meth:`step_epoch`.
        """
        core = self.core
        state = WindowState(
            scoreboard=RegisterScoreboard(),
            store_unit=StoreUnit(core),
            stagnation_limit=core.store_queue + core.store_buffer + 8,
            observer=observer if observer is not None else self.observer,
            pos=start,
        )
        return state, EpochAccountant(instructions=len(trace) - start)

    def step_epoch(
        self,
        trace: AnnotatedTrace,
        state: WindowState,
        accountant: EpochAccountant,
    ) -> Tuple[bool, int]:
        """Advance one epoch: open the window, scan, close, advance the
        epoch clock.

        Returns ``(done, misses)``; once *done* the caller owns the final
        drain (``state.store_unit.pump(state.cur + 1)`` then
        ``accountant.finalize``), as :meth:`run`'s tail does.
        """
        state.begin_epoch()
        observer = state.observer
        if observer is not None:
            observer.on_epoch_begin(state)
        self._scan_window(trace, state, accountant)
        misses = self._close_epoch(trace, state, accountant)
        state.advance_epoch()
        if (
            state.pos >= len(trace)
            and not state.replay
            and state.store_unit.all_completed(state.cur)
        ):
            return True, misses
        state.check_progress(misses)
        return False, misses

    # -------------------------------------------------------- window scan --

    def _scan_window(
        self,
        trace: AnnotatedTrace,
        state: WindowState,
        accountant: EpochAccountant,
    ) -> None:
        """Grow the instruction window until a termination condition fires.

        The common instruction classes (ALU-like, loads, stores, control —
        identity tests ordered by dynamic frequency) are handled inline
        with every loop-invariant bound to a local; `state.pos` is carried
        in the local ``pos`` and synced back whenever an out-of-line
        handler (which may read it) runs, and once at loop exit.  The
        inlined bodies are line-for-line equivalents of the former
        ``_handle_alu`` / ``_handle_load`` / ``_handle_control`` methods.
        """
        core = self.core
        n = len(trace)
        # `cur` is constant for the duration of one scan (the epoch clock
        # only advances between scans), so the scoreboard comparisons can
        # use locals throughout.
        cur = state.cur
        resolved = state.resolved
        scoreboard = state.scoreboard
        ready = scoreboard._ready
        replay = state.replay
        deferred_other = state.deferred_other
        issue_window = core.issue_window
        rob_limit = core.rob
        load_buffer = core.load_buffer
        serial_handlers = self._serial_handlers
        handle_store = self._handle_store
        kind_alu = InstructionClass.ALU
        kind_nop = InstructionClass.NOP
        kind_prefetch = InstructionClass.PREFETCH
        kind_load = InstructionClass.LOAD
        kind_load_locked = InstructionClass.LOAD_LOCKED
        kind_store = InstructionClass.STORE
        kind_store_cond = InstructionClass.STORE_COND
        kind_branch = InstructionClass.BRANCH
        kind_call = InstructionClass.CALL
        kind_return = InstructionClass.RETURN
        pos = state.pos
        while True:
            if (
                state.store_events
                and not state.blocking
                and state.out_loads == 0
            ):
                state.pos = pos
                self._drain_overlapped_stores(state, accountant)

            if pos >= n:
                state.termination = TerminationCondition.END_OF_TRACE
                break

            if state.iw_occ >= issue_window or (
                state.blocking and (
                    state.rob_occ >= rob_limit
                    or state.loads_inflight >= load_buffer
                )
            ):
                state.termination = (
                    TerminationCondition.STORE_QUEUE_WINDOW_FULL
                    if state.sq_full_seen
                    else TerminationCondition.WINDOW_FULL
                )
                break

            inst, info = trace[pos]

            if info.inst_miss and pos not in resolved:
                resolved.add(pos)
                state.out_insts += 1
                if state.trigger is None:
                    state.trigger = TriggerKind.INSTRUCTION
                    state.first_issue_pos = pos
                state.termination = TerminationCondition.INSTRUCTION_MISS
                break  # pos stays: the instruction executes next epoch

            kind = inst.kind

            if kind is kind_alu or kind is kind_nop or kind is kind_prefetch:
                # ALU / NOP / PREFETCH: executes now or occupies a window
                # slot until its off-chip input returns.
                latest = 0
                for reg in inst.srcs:
                    if reg > 0:
                        epoch = ready[reg]
                        if epoch > latest:
                            latest = epoch
                dest = inst.dest
                if dest > 0:
                    value = latest if latest > cur else cur
                    if value > ready[dest]:
                        ready[dest] = value
                if latest > cur:
                    state.iw_occ += 1
                    deferred_other.append(latest)
                pos += 1
                if state.blocking:
                    state.rob_occ += 1
                continue

            if kind is kind_load or kind is kind_load_locked:
                # A load issues, defers on a register dependence, or misses.
                latest = 0
                for reg in inst.srcs:
                    if reg > 0:
                        epoch = ready[reg]
                        if epoch > latest:
                            latest = epoch
                will_miss = info.data_miss and pos not in resolved
                if latest > cur:
                    resolved.add(pos)
                    replay.append(DeferredLoad(
                        exec_epoch=latest,
                        index=pos,
                        dest=inst.dest,
                        missing=will_miss,
                    ))
                    dest = inst.dest
                    if dest > 0:
                        value = latest + 1 if will_miss else latest
                        if value > ready[dest]:
                            ready[dest] = value
                    state.iw_occ += 1
                elif will_miss:
                    resolved.add(pos)
                    state.pos = pos
                    state.note_load_miss(inst.dest)
                else:
                    dest = inst.dest
                    if dest > 0 and cur > ready[dest]:
                        ready[dest] = cur
                    if state.blocking:
                        state.loads_inflight += 1
                pos += 1
                if state.blocking:
                    state.rob_occ += 1
                continue

            if kind is kind_branch or kind is kind_call or kind is kind_return:
                # A mispredicted branch dependent on a missing load stops
                # the window; mispredictions resolvable on chip are free.
                if info.mispredicted:
                    latest = 0
                    for reg in inst.srcs:
                        if reg > 0:
                            epoch = ready[reg]
                            if epoch > latest:
                                latest = epoch
                    if latest > cur and state.out_loads > 0:
                        state.termination = (
                            TerminationCondition.MISPRED_BRANCH
                        )
                        pos += 1  # resolves at epoch end; resume after it
                        break
                pos += 1
                if state.blocking:
                    state.rob_occ += 1
                continue

            if kind is kind_store or kind is kind_store_cond:
                state.pos = pos
                handle_store(state, accountant, inst, info)
                if state.termination is not None:
                    break  # pos stays: re-dispatch next epoch
                pos += 1
                if state.blocking:
                    state.rob_occ += 1
                continue

            # Rare serializing classes (CAS/MEMBAR/ISYNC/LWSYNC) through the
            # per-model dispatch table.
            state.pos = pos
            serial_handlers[kind](self, trace, state, inst, info)
            if state.termination is not None:
                break  # pos stays: the stalled instruction retries next epoch
            pos += 1
            if state.blocking:
                state.rob_occ += 1

        state.pos = pos
        if state.observer is not None and state.termination is not None:
            state.observer.on_termination(state.termination, pos, cur)

    def _drain_overlapped_stores(
        self, state: WindowState, accountant: EpochAccountant
    ) -> None:
        """Silent completion: store misses outstanding long enough, with
        nothing blocking, drain without costing an epoch."""
        if not state.store_events or state.blocking or state.out_loads > 0:
            return
        ripe = [
            e for e in state.store_events
            if state.pos - e.issue_position >= self.overlap_depth
        ]
        if not ripe:
            return
        state.store_unit.complete_silently(ripe)
        accountant.note_fully_overlapped(len(ripe))
        ripe_ids = {id(e) for e in ripe}
        state.store_events = [
            e for e in state.store_events if id(e) not in ripe_ids
        ]
        more, _ = state.store_unit.pump(state.cur)
        state.add_store_events(more)
        if not state.store_events:
            state.trigger = None
            state.first_issue_pos = -1
        elif state.trigger is None:
            state.trigger = TriggerKind.STORE
            state.first_issue_pos = state.pos

    # ----------------------------------------------------- class handlers --

    def _handle_store(
        self,
        state: WindowState,
        accountant: EpochAccountant,
        inst: Instruction,
        info: AccessInfo,
    ) -> None:
        """A store (or store-conditional) flows through the store unit."""
        core = self.core
        granule = state.store_unit.granule_of(inst.address)
        smac_hit = info.smac_hit
        if smac_hit and state.smac_probe is not None:
            # SMT sharing hook: another context may have dirtied the line
            # since this context trained the SMAC, demoting the hit.
            smac_hit = state.smac_probe(granule)
        missing = (
            info.data_miss
            and not smac_hit
            and state.pos not in state.resolved
            and not core.perfect_stores
        )
        accelerated = info.data_miss and (smac_hit or core.perfect_stores)
        entry = StoreEntry(
            granule=granule,
            missing=missing,
            accelerated=accelerated,
            release=inst.lock_release,
        )
        outcome = state.store_unit.dispatch(
            entry, retirable=not state.blocking, epoch=state.cur
        )
        if not outcome.accepted:
            state.termination = state.store_full_termination()
            return  # pos stays: re-dispatch next epoch
        if missing:
            state.resolved.add(state.pos)
        if accelerated:
            accountant.note_accelerated_store()
        state.add_store_events(outcome.issued)
        state.note_store_trigger()
        if outcome.retire_stalled_sq_full:
            state.blocking = True
            state.sq_full_seen = True

    def _handle_serializer_pc(
        self,
        trace: AnnotatedTrace,
        state: WindowState,
        inst: Instruction,
        info: AccessInfo,
    ) -> None:
        """``casa``/``membar`` under PC: drain, then execute.

        When older work is still pending the serializer must wait — the
        window ends here and (with PC2) loads and stores beyond it are
        prefetched.  Otherwise the instruction executes this epoch, and a
        CAS may issue its own off-chip access for the load half.
        """
        stores_pending = (
            bool(state.store_events)
            or not state.store_unit.all_completed(state.cur)
        )
        if stores_pending or state.others_pending():
            if state.out_loads > 0:
                state.termination = TerminationCondition.OTHER_SERIALIZE
            elif stores_pending:
                state.termination = TerminationCondition.STORE_SERIALIZE
            else:
                state.termination = TerminationCondition.OTHER_SERIALIZE
            self._prefetch_past(trace, state)
            return  # pos stays until the drain completes
        # Drained: the serializer executes this epoch.
        if inst.kind is InstructionClass.CAS:
            if info.data_miss and state.pos not in state.resolved:
                state.resolved.add(state.pos)
                state.note_load_miss(inst.dest)
                return
            state.scoreboard.produce_on_chip(inst.dest, state.cur)
            # The atomic's store half writes an owned line: a plain hit.
            state.store_unit.dispatch(
                StoreEntry(
                    granule=state.store_unit.granule_of(inst.address)
                ),
                retirable=True,
                epoch=state.cur,
            )

    def _handle_wc_cas(
        self,
        trace: AnnotatedTrace,
        state: WindowState,
        inst: Instruction,
        info: AccessInfo,
    ) -> None:
        """CAS executed under a WC core: atomic load+store, no drain."""
        if info.data_miss and state.pos not in state.resolved:
            state.resolved.add(state.pos)
            state.note_load_miss(inst.dest)
            return
        outcome = state.store_unit.dispatch(
            StoreEntry(granule=state.store_unit.granule_of(inst.address)),
            retirable=not state.blocking,
            epoch=state.cur,
        )
        if not outcome.accepted:
            # Store buffer full: end the window and re-execute the CAS next
            # epoch, exactly like a rejected plain store.  (Dropping the
            # dispatch here used to lose the atomic's store half from the
            # commit/bandwidth accounting.)
            state.termination = state.store_full_termination()
            return  # pos stays: re-dispatch next epoch
        state.scoreboard.produce_on_chip(inst.dest, state.cur)

    def _handle_isync_wc(
        self,
        trace: AnnotatedTrace,
        state: WindowState,
        inst: Instruction,
        info: AccessInfo,
    ) -> None:
        """``isync`` under WC waits for older instructions only — never for
        the store queue to drain.  With nothing pending it executes freely.
        (A PC-configured run maps ``isync`` to :meth:`_handle_freely`.)"""
        if state.others_pending():
            state.termination = TerminationCondition.OTHER_SERIALIZE
            self._prefetch_past(trace, state)

    def _handle_barrier(
        self,
        trace: AnnotatedTrace,
        state: WindowState,
        inst: Instruction,
        info: AccessInfo,
    ) -> None:
        """WC ordering barrier (``lwsync``, or ``membar`` under a WC core):
        orders store commits, does not stall the pipeline."""
        state.store_unit.add_barrier()

    def _handle_freely(
        self,
        trace: AnnotatedTrace,
        state: WindowState,
        inst: Instruction,
        info: AccessInfo,
    ) -> None:
        """A serializing instruction with no semantics under this model."""

    # ---------------------------------------------------------- epoch close --

    def _close_epoch(
        self,
        trace: AnnotatedTrace,
        state: WindowState,
        accountant: EpochAccountant,
    ) -> int:
        """Record the closed epoch (running a scout episode if eligible)
        and return the number of misses it overlapped."""
        misses, record = accountant.close_epoch(state)
        if record is not None:
            if self._scout_eligible(state.termination, state.out_loads):
                elapsed = (
                    state.pos - state.first_issue_pos
                    if state.first_issue_pos >= 0 else 0
                )
                outcome = run_scout(
                    trace,
                    state.pos,
                    self.scout_depth - elapsed,
                    state.scoreboard,
                    state.cur,
                    state.resolved,
                    prefetch_loads=True,
                    prefetch_stores=self.core.scout in (
                        ScoutMode.HWS1, ScoutMode.HWS2
                    ),
                    prefetch_insts=True,
                )
                if outcome.total:
                    state.resolved |= outcome.resolved
                    accountant.apply_scout(record, outcome)
            accountant.commit_epoch(record)
            if state.observer is not None:
                state.observer.on_epoch(record)
        return misses

    # --------------------------------------------------------------- helpers --

    def _prefetch_past(self, trace: AnnotatedTrace, state: WindowState) -> None:
        """Prefetch loads and stores beyond a stalled serializer (PC2/WC2).

        Bounded by the reorder buffer, since the serializer holds up
        retirement (paper Section 3.3.4).  The prefetched miss counts are
        charged to the closing epoch; resolved indices merge into the run's
        set.
        """
        if not self.core.prefetch_past_serializing:
            return
        outcome = run_scout(
            trace,
            state.pos + 1,
            self.core.rob,
            state.scoreboard,
            state.cur,
            state.resolved,
            prefetch_loads=True,
            prefetch_stores=True,
            prefetch_insts=False,
        )
        state.resolved |= outcome.resolved
        state.pf_loads += outcome.loads
        state.pf_stores += outcome.stores

    def _scout_eligible(
        self,
        termination: Optional[TerminationCondition],
        out_loads: int,
    ) -> bool:
        mode = self.core.scout
        if mode is ScoutMode.NONE or termination not in _SCOUTABLE:
            return False
        if mode is ScoutMode.HWS2:
            return True
        return out_loads > 0


def simulate(
    trace: AnnotatedTrace, config: SimulationConfig | None = None
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`MlpSimulator`."""
    return MlpSimulator(config or SimulationConfig()).run(trace)
