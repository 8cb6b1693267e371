"""Store buffer and store queue with coalescing, prefetching and
consistency-model commit rules.

Lifecycle (paper Section 2): a store is *dispatched* into the store buffer
at rename, *retired* into the store queue when it and all older instructions
complete, and *committed* when its value is written into the L2 and becomes
globally visible.

Consistency rules:

- **PC (TSO)**: stores commit strictly in order.  A missing store at the
  store-queue head blocks all younger stores.  Coalescing may only merge a
  retiring store with the youngest store-queue entry (consecutive stores).
- **WC**: stores commit out of order; hits release their entries past a
  blocked miss.  A retiring store may coalesce with any eligible entry.
  ``lwsync`` inserts a barrier: entries after it cannot commit until every
  older entry has.

Prefetch modes (Section 3.3.2): ``Sp0`` issues a store's write request only
when it reaches the queue head (PC) or when it retires (WC, whose
out-of-order commit attempts each store independently); ``Sp1`` issues a
prefetch-for-write at retire; ``Sp2`` issues it at dispatch (address
generation), covering stores still in the store buffer.

Epoch time: ``miss_issued_epoch`` records when a store's off-chip request
went out; the miss completes at the end of that epoch, so a commit attempt
in any later epoch succeeds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List

from ..config import ConsistencyModel, CoreConfig, StorePrefetchMode

_NOT_ISSUED = -1


@dataclass(slots=True, eq=False)
class StoreEntry:
    """One store (or coalesced group of stores) in the SB/SQ.

    Identity semantics (``eq=False``): two distinct stores to the same
    granule are different entries until explicitly coalesced.
    """

    granule: int
    missing: bool = False
    accelerated: bool = False
    miss_issued_epoch: int = _NOT_ISSUED
    issue_position: int = 0
    barrier_before: bool = False
    release: bool = False

    @property
    def issued(self) -> bool:
        return self.miss_issued_epoch != _NOT_ISSUED

    def completed(self, current_epoch: int) -> bool:
        """True when this entry's write can be considered globally visible."""
        if self.accelerated or not self.missing:
            return True
        return self.issued and self.miss_issued_epoch < current_epoch


@dataclass(slots=True)
class StoreUnitStats:
    """Store-path activity, including the L2 bandwidth accounting behind
    the paper's SMAC motivation (Section 3.3.2/3.3.3).

    Every committed store costs one L2 write request.  A store *prefetch*
    (Sp1/Sp2, or WC's execute-time ownership request) costs an additional
    request — "two write requests may potentially be issued for every
    store".  Accelerated (SMAC-hit) stores commit with no prefetch request,
    which is exactly the bandwidth the SMAC conserves.
    """

    dispatched: int = 0
    coalesced: int = 0
    committed: int = 0
    misses_issued: int = 0
    prefetch_requests: int = 0
    silently_completed: int = 0
    # Occupancy high-water marks: the deepest the store buffer / store
    # queue ever got.  Maintained on the (slow-path) appends only — a
    # fast-path committed store never occupies either structure.
    sb_hwm: int = 0
    sq_hwm: int = 0

    @property
    def l2_store_requests(self) -> int:
        """Total core-to-L2 write-path requests."""
        return self.committed + self.prefetch_requests

    @property
    def bandwidth_overhead(self) -> float:
        """Extra requests per committed store caused by prefetching."""
        if self.committed == 0:
            return 0.0
        return self.prefetch_requests / self.committed


@dataclass(slots=True)
class DispatchResult:
    """Outcome of pushing one store into the unit."""

    accepted: bool
    issued: List[StoreEntry] = field(default_factory=list)
    retire_stalled_sq_full: bool = False


#: Shared results for the two side-effect-free dispatch outcomes.  Callers
#: treat DispatchResult as read-only, so the common cases (buffer full;
#: hit store committed straight through an empty unit) reuse one object
#: instead of allocating.
_REJECTED = DispatchResult(accepted=False)
_FAST_COMMITTED = DispatchResult(accepted=True)


class StoreUnit:
    """Store buffer + store queue under one consistency model."""

    __slots__ = (
        "config",
        "model",
        "sb",
        "sq",
        "stats",
        "_pending_barrier",
        "_sb_limit",
        "_sq_limit",
        "_coalesce_bytes",
        "_is_pc",
        "_issue_at_execute",
        "_issues_any_at_retire",
    )

    def __init__(self, config: CoreConfig) -> None:
        self.config = config
        self.model = config.consistency
        self.sb: Deque[StoreEntry] = deque()
        self.sq: Deque[StoreEntry] = deque()
        self.stats = StoreUnitStats()
        self._pending_barrier = False
        # The consistency model and prefetch mode are fixed per run, so the
        # per-store policy questions are answered once here.
        self._sb_limit = config.store_buffer
        self._sq_limit = config.store_queue
        self._coalesce_bytes = config.coalesce_bytes
        self._is_pc = config.consistency is ConsistencyModel.PC
        self._issue_at_execute = (
            config.store_prefetch is StorePrefetchMode.AT_EXECUTE
            # WC machines acquire ownership as soon as the store address is
            # known: stores are fully overlappable (paper Example 6, and
            # the epoch-model predecessor's WC assumption).
            or config.consistency is ConsistencyModel.WC
        )
        self._issues_any_at_retire = (
            config.store_prefetch is StorePrefetchMode.AT_RETIRE
            # WC commits out of order: each retired store's write is
            # attempted independently, so its off-chip request goes out at
            # retire even without a prefetcher.
            or config.consistency is ConsistencyModel.WC
        )

    # -- capacity ----------------------------------------------------------

    @property
    def sq_full(self) -> bool:
        return len(self.sq) >= self._sq_limit

    @property
    def drained(self) -> bool:
        """True when no store is waiting anywhere (serializer precondition)."""
        return not self.sb and not self.sq

    def all_completed(self, epoch: int) -> bool:
        """True when every resident store is (or is as good as) committed.

        A serializing instruction under PC may execute once this holds: the
        remaining entries are hits or already-returned misses that drain on
        the next commit pass without exposing any latency.
        """
        for queue in (self.sb, self.sq):
            for entry in queue:
                if entry.missing and not entry.accelerated and not (
                    entry.miss_issued_epoch != _NOT_ISSUED
                    and entry.miss_issued_epoch < epoch
                ):
                    return False
        return True

    @property
    def occupancy(self) -> int:
        return len(self.sb) + len(self.sq)

    def granule_of(self, address: int) -> int:
        """Map an address to its coalescing granule (line-sized when off)."""
        gran = self.config.coalesce_bytes or 64
        return address & ~(gran - 1)

    # -- barriers -------------------------------------------------------------

    def add_barrier(self) -> None:
        """An ``lwsync`` retired: the next store to retire is ordered after
        everything currently pending."""
        self._pending_barrier = True

    # -- dispatch / retire -------------------------------------------------------

    def dispatch(
        self, entry: StoreEntry, retirable: bool, epoch: int
    ) -> DispatchResult:
        """Insert a newly renamed store.

        *retirable* is False when an older instruction blocks retirement
        (e.g. a missing load at the ROB head), in which case the store parks
        in the store buffer.  Returns ``accepted=False`` — without side
        effects — when the store buffer is full: the caller terminates the
        epoch window and retries next epoch.
        """
        sb = self.sb
        if len(sb) >= self._sb_limit:
            return _REJECTED
        stats = self.stats
        # Fast path for the dominant case: a store needing no off-chip
        # request dispatched into an empty, unblocked unit.  It retires and
        # commits in the same pump with no issue, no coalescing candidate
        # and no possible stall, so the full machinery below reduces to two
        # counter bumps.
        if (
            retirable
            and not sb
            and not self.sq
            and not self._pending_barrier
            and (entry.accelerated or not entry.missing)
        ):
            stats.dispatched += 1
            stats.committed += 1
            return _FAST_COMMITTED
        stats.dispatched += 1
        issued: List[StoreEntry] = []
        if (
            self._issue_at_execute
            and entry.missing
            and not entry.accelerated
            and entry.miss_issued_epoch == _NOT_ISSUED
        ):
            self._issue(entry, epoch, issued, prefetch=True)
        sb.append(entry)
        if len(sb) > stats.sb_hwm:
            stats.sb_hwm = len(sb)
        stalled = False
        if retirable:
            stalled = self._pump(epoch, issued)
        return DispatchResult(
            accepted=True, issued=issued, retire_stalled_sq_full=stalled
        )

    def pump(self, epoch: int) -> tuple[List[StoreEntry], bool]:
        """Retire and commit until quiescent.

        Models the continuously pipelined store path: hit stores flow
        through the queue without lingering, completed misses drain, and an
        Sp0 missing store newly at the queue head sends its write request
        off chip.  Returns the entries whose misses were newly issued and
        whether retirement is stalled on a full store queue.
        """
        issued: List[StoreEntry] = []
        stalled = self._pump(epoch, issued)
        return issued, stalled

    def _pump(self, epoch: int, issued: List[StoreEntry]) -> bool:
        stalled = False
        if self._is_pc:
            commit = self._commit_pc
        else:
            commit = self._commit_wc
        while True:
            before_sb = len(self.sb)
            before_sq = len(self.sq)
            commit(epoch, issued)
            stalled = self._retire_all(epoch, issued)
            commit(epoch, issued)
            if len(self.sb) == before_sb and len(self.sq) == before_sq:
                return stalled

    def _retire_all(self, epoch: int, issued: List[StoreEntry]) -> bool:
        """Move SB entries into the SQ; returns True when blocked on SQ-full."""
        sb = self.sb
        sq = self.sq
        sq_limit = self._sq_limit
        while sb:
            entry = sb[0]
            if self._pending_barrier:
                entry.barrier_before = True
                self._pending_barrier = False
            if self._try_coalesce(entry):
                sb.popleft()
                self.stats.coalesced += 1
                continue
            if len(sq) >= sq_limit:
                return True
            sb.popleft()
            sq.append(entry)
            if len(sq) > self.stats.sq_hwm:
                self.stats.sq_hwm = len(sq)
            if (
                self._issues_any_at_retire
                and entry.missing
                and not entry.accelerated
                and entry.miss_issued_epoch == _NOT_ISSUED
            ):
                self._issue(entry, epoch, issued, prefetch=True)
        return False

    def _try_coalesce(self, entry: StoreEntry) -> bool:
        if not self._coalesce_bytes or not self.sq:
            return False
        if entry.barrier_before:
            return False  # ordering: may not merge into pre-barrier stores
        if self._is_pc:
            target = self.sq[-1]
            if target.granule == entry.granule:
                target.missing = target.missing or entry.missing
                target.release = target.release or entry.release
                return True
            return False
        # WC: merge with any eligible entry, scanning young to old, without
        # crossing a barrier (that would reorder the store before it).
        for target in reversed(self.sq):
            if target.granule == entry.granule:
                target.missing = target.missing or entry.missing
                target.release = target.release or entry.release
                return True
            if target.barrier_before:
                break
        return False

    # -- commit ----------------------------------------------------------------

    def _commit_pc(self, epoch: int, issued: List[StoreEntry]) -> None:
        sq = self.sq
        stats = self.stats
        while sq:
            head = sq[0]
            # Inlined StoreEntry.completed(): visible when a hit, SMAC-hit,
            # or a miss issued in an earlier (hence finished) epoch.
            if not head.missing or head.accelerated or (
                head.miss_issued_epoch != _NOT_ISSUED
                and head.miss_issued_epoch < epoch
            ):
                sq.popleft()
                stats.committed += 1
                continue
            if head.miss_issued_epoch == _NOT_ISSUED:
                # Sp0: the head's write request goes off chip now.
                self._issue(head, epoch, issued)
            return

    def _commit_wc(self, epoch: int, issued: List[StoreEntry]) -> None:
        sq = self.sq
        if not sq:
            return
        survivors: List[StoreEntry] = []
        barrier_blocked = False
        committed = 0
        for entry in sq:
            if barrier_blocked:
                survivors.append(entry)
                continue
            if entry.barrier_before and survivors:
                # Ordered after a still-pending older store: this entry and
                # everything younger wait for the next pass.
                barrier_blocked = True
                survivors.append(entry)
                continue
            if not entry.missing or entry.accelerated or (
                entry.miss_issued_epoch != _NOT_ISSUED
                and entry.miss_issued_epoch < epoch
            ):
                committed += 1
                continue
            if entry.miss_issued_epoch == _NOT_ISSUED:
                self._issue(entry, epoch, issued)
            survivors.append(entry)
        if committed:
            self.stats.committed += committed
            self.sq = deque(survivors)
        # Nothing committed → the queue contents are unchanged (issue only
        # mutates entries in place), so skip the deque rebuild.

    def _issue(
        self,
        entry: StoreEntry,
        epoch: int,
        issued: List[StoreEntry],
        prefetch: bool = False,
    ) -> None:
        entry.miss_issued_epoch = epoch
        self.stats.misses_issued += 1
        if prefetch:
            # An extra L2 write-path request beyond the eventual commit.
            self.stats.prefetch_requests += 1
        issued.append(entry)

    # -- silent completion ------------------------------------------------------

    def complete_silently(self, entries: List[StoreEntry]) -> None:
        """Commit store misses whose latency was fully hidden by computation.

        Called by the simulator when the overlap window elapses with no
        stall: the listed entries drain without an epoch being charged.
        """
        for entry in entries:
            entry.accelerated = True  # treat as globally visible
            self.stats.silently_completed += 1
        # Sweep out anything now committable (epoch value irrelevant:
        # accelerated entries always complete).
        if self.model is ConsistencyModel.PC:
            while self.sq and self.sq[0].accelerated:
                self.sq.popleft()
                self.stats.committed += 1
        else:
            self.sq = deque(e for e in self.sq if not e.accelerated)
