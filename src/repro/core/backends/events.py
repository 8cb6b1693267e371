"""The ``event`` backend: event-driven epoch scanning.

The reference scan visits every instruction of every epoch, but most of
those visits do nothing: between miss clusters the simulator is *quiescent*
(the :func:`repro.core.window.is_quiescent` condition — nothing
outstanding, nothing deferred, every register ready) and a quiescent scan
step over a hit is a pure no-op except for two store-unit counters.  This
backend derives, once per trace, the next *interesting* position from each
position — the wakeup set of the store unit and scoreboard — and advances
the scan cursor over quiescent spans in O(1) instead of iterating them.

Safety argument (the differential suite enforces it bit-for-bit):

- Skips happen only while every register-ready epoch is ``<= cur`` and
  nothing blocks retirement — the scan started the epoch with the
  :func:`is_quiescent` core conditions (minus the resolved-lookahead
  clause — safe, because every miss position is in the interesting table
  whether or not it was prefetched) and nothing has since set
  ``blocking``.  Under that invariant ALU/load/branch handling cannot
  defer, terminate, or write a scoreboard value any later comparison could
  distinguish (all reads are threshold tests against the current epoch),
  and the invariant itself can only break through ``blocking`` — which
  permanently disarms the scan.
- *Interesting* positions — instruction misses, data misses (loads,
  stores, CAS, including SMAC hits, which have their own accounting), and
  the serializing classes (MEMBAR/ISYNC/LWSYNC) — are never skipped; the
  scan lands on them and runs the reference code.
- **Clean mode** (store unit drained, no store events): plain stores (and
  CAS, whose store half is a plain hit once drained) take the store
  unit's fast path: ``dispatched += 1; committed += 1`` and nothing else.
  The skip adds the same two counters in bulk from a prefix sum.  A
  pending ``lwsync`` barrier forces the slow path (queue occupancy,
  high-water marks), so a second table treats every store-class position
  as interesting while a barrier is pending.
- **Store-shadow mode** (store misses outstanding, nothing blocking):
  registers are still clean, so non-store instructions remain no-ops, but
  every store-class position must execute (dispatch walks the occupied
  queues) and the overlapped-store drain stops being a no-op at the first
  *ripeness* point ``min(issue_position) + overlap_depth``.  The skip
  therefore jumps to the nearest of the next store-class/interesting
  position and the ripeness point, performing no bulk accounting.

Termination conditions therefore cannot fire inside a skipped span, and
positions, epoch boundaries, resolved sets, and every result counter match
the reference exactly.  (Register-ready values may differ *below* ``cur``
where a skipped hit would have raised them to ``cur`` — invisible to every
comparison, including ``is_quiescent`` at shard boundaries.)
"""

from __future__ import annotations

from typing import Sequence

from ...isa import InstructionClass
from ...memory.annotate import AnnotatedTrace
from ..backend import Backend
from ..epoch import TerminationCondition, TriggerKind
from ..mlpsim import MlpSimulator
from ..window import DeferredLoad, EpochAccountant, WindowState

__all__ = ["EventBackend", "EventSimulator", "SkipTables", "build_skip_tables"]


class SkipTables:
    """Per-trace next-interesting-position tables (configuration-free).

    ``next_plain[i]``   — first position ``>= i`` the armed scan must
                          execute when no store barrier is pending.
    ``next_barrier[i]`` — same, while an ``lwsync`` barrier is pending
                          (every store-class position becomes interesting).
    ``store_prefix[i]`` — count of plain (non-data-miss) store-class
                          positions in ``[0, i)``; the bulk fast-path
                          dispatch/commit accounting for a skipped span is
                          ``store_prefix[b] - store_prefix[a]``.

    All three have length ``n + 1`` with position ``n`` as its own
    fixpoint, so a skip may land exactly on end-of-trace.
    """

    __slots__ = ("n", "next_plain", "next_barrier", "store_prefix")

    def __init__(
        self,
        n: int,
        next_plain: Sequence[int],
        next_barrier: Sequence[int],
        store_prefix: Sequence[int],
    ) -> None:
        self.n = n
        self.next_plain = next_plain
        self.next_barrier = next_barrier
        self.store_prefix = store_prefix


def build_skip_tables(trace: AnnotatedTrace) -> SkipTables:
    """One backward pass deriving the wakeup tables for *trace*."""
    n = len(trace)
    next_plain = [n] * (n + 1)
    next_barrier = [n] * (n + 1)
    store_prefix = [0] * (n + 1)
    kind_store = InstructionClass.STORE
    kind_store_cond = InstructionClass.STORE_COND
    kind_cas = InstructionClass.CAS
    kind_membar = InstructionClass.MEMBAR
    kind_isync = InstructionClass.ISYNC
    kind_lwsync = InstructionClass.LWSYNC
    upcoming_plain = n
    upcoming_barrier = n
    for i in range(n - 1, -1, -1):
        inst, info = trace[i]
        kind = inst.kind
        storeish = (
            kind is kind_store or kind is kind_store_cond or kind is kind_cas
        )
        if (
            info.inst_miss
            or info.data_miss
            or kind is kind_membar
            or kind is kind_isync
            or kind is kind_lwsync
        ):
            upcoming_plain = i
            upcoming_barrier = i
        elif storeish:
            upcoming_barrier = i
            store_prefix[i] = 1  # plain store-class position
        next_plain[i] = upcoming_plain
        next_barrier[i] = upcoming_barrier
    count = 0
    for i in range(n):
        flagged = store_prefix[i]
        store_prefix[i] = count
        count += flagged
    store_prefix[n] = count
    return SkipTables(n, next_plain, next_barrier, store_prefix)


class EventSimulator(MlpSimulator):
    """A :class:`MlpSimulator` whose window scan skips quiescent spans.

    Everything outside :meth:`_scan_window` — the epoch loop, the shard
    start, stop and quiescence probe, scout episodes, the class handlers —
    is inherited unchanged; only the hot per-instruction walk is replaced
    by the armed-skip variant described in the module docstring.  The
    skip tables live on the trace (:class:`AnnotatedTrace`), built by the
    first scan that needs them.
    """

    __slots__ = ()

    # The body below is the reference `MlpSimulator._scan_window` with the
    # armed-skip block added at the top of the loop; every other line is
    # kept verbatim so the two stay diffable.
    def _scan_window(
        self,
        trace: AnnotatedTrace,
        state: WindowState,
        accountant: EpochAccountant,
    ) -> None:
        tables = trace.skip_tables
        if tables is None:
            tables = trace.skip_tables = build_skip_tables(trace)
        next_plain = tables.next_plain
        next_barrier = tables.next_barrier
        store_prefix = tables.store_prefix

        core = self.core
        n = len(trace)
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

        unit = state.store_unit
        stats = unit.stats
        overlap_depth = self.overlap_depth
        # Armed iff nothing blocks retirement, nothing is deferred, and
        # every register is ready by `cur` (the is_quiescent core
        # conditions minus the resolved clause — see module docstring).
        # The register invariant can only break via `blocking`, so it is
        # checked once here; `blocking` kills the armed state for good.
        armed = (
            not state.blocking
            and state.out_loads == 0
            and state.out_insts == 0
            and not replay
            and not deferred_other
            and state.iw_occ < issue_window
        )
        if armed:
            for epoch in ready:
                if epoch > cur:
                    armed = False
                    break

        while True:
            if armed:
                if state.blocking:
                    # First load/CAS miss: registers may be poisoned from
                    # here on; never re-armed within this scan.
                    armed = False
                elif state.store_events or unit.sb or unit.sq:
                    # Store-shadow mode: stop at every store-class or
                    # interesting position (next_barrier covers both) and
                    # at the first overlapped-drain ripeness point.
                    nxt = next_barrier[pos]
                    events = state.store_events
                    if events:
                        ripe = overlap_depth + min(
                            e.issue_position for e in events
                        )
                        if ripe < nxt:
                            nxt = ripe
                    if nxt > pos:
                        pos = nxt
                else:
                    # Clean mode: the store unit is drained, so skipped
                    # plain stores take its fast path — bulk-account them
                    # from the prefix sum.
                    nxt = (
                        next_barrier if unit._pending_barrier else next_plain
                    )[pos]
                    if nxt > pos:
                        skipped = store_prefix[nxt] - store_prefix[pos]
                        if skipped:
                            stats.dispatched += skipped
                            stats.committed += skipped
                        pos = nxt

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


class EventBackend(Backend):
    """Event-driven scanning behind the standard backend interface.

    The skip tables are config-independent and live on the annotated
    trace, so a sweep running many configurations over one trace builds
    them once, and they are freed with the trace.  Any other sequence of
    ``(Instruction, AccessInfo)`` pairs (a slice, a hand-built list) is
    wrapped in a fresh :class:`AnnotatedTrace` for the one simulation.
    """

    name = "event"

    def simulate(self, config, trace, observer=None, **kwargs):
        if not isinstance(trace, AnnotatedTrace):
            trace = AnnotatedTrace(trace)
        return EventSimulator(config).run(trace, observer, **kwargs)
