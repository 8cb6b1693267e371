"""Deterministic synthetic trace generation from a workload profile.

The generator emits an instruction stream with explicitly constructed
memory behaviour:

- **hot** code/data accesses revisit small resident footprints (cache hits),
- **cold loads** draw uniformly from a region much larger than the L2
  (off-chip load misses), occasionally from cross-chip shared data,
- **cold stores** draw from a pool of private 2KB regions with per-region
  line rotation — the "private data repeatedly brought into the L2,
  modified and then evicted" pattern the Store Miss Accelerator exploits —
  and cluster in bursts whose mean length sets the achievable store MLP,
- **critical sections** emit ``casa``(acquire) ... ``store``(release) pairs
  on hot lock words, optionally preceded by a missing-store burst — the
  store-before-serializer structure behind the paper's Figure 3,
- **branches** are mostly statically biased (learnable by gshare) with a
  controlled unpredictable remainder, some of which consume a just-loaded
  value (the mispredicted-branch-dependent-on-missing-load condition),
- **cold-code excursions** teleport fetch to never-seen lines at the
  instruction-miss rate.

Everything is driven by one seeded ``random.Random``; identical
(profile, seed, count) inputs produce identical traces.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from ..isa import Instruction, InstructionClass
from ..isa.registers import RegisterAllocator, REG_NONE
from .profiles import WorkloadProfile
from .regions import AddressMap

_LINE = 64
_PC_STEP = 4


def _build_address_map(profile: WorkloadProfile) -> AddressMap:
    space = AddressMap()
    space.add("hot_code", profile.hot_code_bytes)
    space.add("cold_code", profile.cold_code_bytes)
    space.add("hot_data", profile.hot_data_bytes)
    space.add("cold_load", profile.cold_load_bytes)
    space.add("store_pool", profile.store_footprint_bytes)
    space.add("shared", profile.shared_bytes)
    space.add("locks", max(_LINE * profile.lock_pool, _LINE))
    return space


class WorkloadGenerator:
    """Streams instructions for one workload profile.

    The per-instruction methods run for every instruction of every
    trace, so the constructor precomputes what they read: the profile's
    derived probabilities, each phase-modulated rate for the busy and the
    quiet phase, and region bounds.
    """

    def __init__(self, profile: WorkloadProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self.space = _build_address_map(profile)
        self._rng = random.Random(seed)
        self._registers = RegisterAllocator(reserve=8)
        # Reserved registers: r1 = data base pointer, r2 = lock base pointer.
        self._base_reg = 1
        self._lock_base_reg = 2
        hot_code = self.space["hot_code"]
        cold_code = self.space["cold_code"]
        self._pc = hot_code.base
        self._cold_pc = cold_code.base
        self._cold_run = 0
        self._burst_remaining = 0
        self._lock_pending = False
        self._emitted = 0
        self._primed = False
        self._last_store_address: int | None = None
        self._last_dest = REG_NONE
        self._last_cold_load_dest = REG_NONE
        self._cold_load_age = 10_000
        self._call_depth = 0
        self._return_targets: List[int] = []
        # Stable branch-site pool inside the hot code: dynamic branches
        # revisit these PCs so the direction/target predictors can train.
        hot_lines = hot_code.size // _LINE
        site_step = max(1, hot_lines // max(1, profile.branch_sites))
        self._branch_sites = [
            hot_code.base + (i * site_step % hot_lines) * _LINE + 4 * (i % 16)
            for i in range(profile.branch_sites)
        ]
        # Per-region rotation cursors for the private store pool.
        self._region_cursor = [0] * profile.store_regions
        self._region_lines_used = max(1, min(
            profile.store_region_lines_used,
            profile.store_region_bytes // _LINE,
        ))
        self._hot_code = (hot_code.base, hot_code.end)
        self._hot_code_lines = hot_lines
        self._cold_code = (cold_code.base, cold_code.end)
        hot_data = self.space["hot_data"]
        self._hot_data = (hot_data.base, hot_data.end)
        self._hot_data_words = max(1, hot_data.size // 8)
        # Phase-modulated rates as (busy, quiet), indexed by _quiet: each
        # is the base rate times the phase's scale.  _quiet tracks whether
        # the emitted count sits in a quiet phase; only _next_pc moves it.
        self._phase_length = profile.phase_length
        self._quiet_span = profile.quiet_fraction * profile.phase_length
        self._quiet = 0 < self._quiet_span
        self._lock_prob = self._per_phase(
            profile.locks_per_1000 / 1000.0, profile.quiet_lock_scale,
        )
        self._inst_miss_prob = self._per_phase(
            profile.inst_miss_prob, profile.quiet_inst_scale,
        )
        self._load_miss_prob = self._per_phase(
            profile.load_miss_prob, profile.quiet_load_scale,
        )
        self._store_miss_prob = profile.store_miss_prob

    # -- public API --------------------------------------------------------

    def generate(self, count: int) -> List[Instruction]:
        """Produce exactly *count* instructions.

        The stream opens with a deterministic priming sweep over the hot
        data and lock footprints: the paper's traces were captured with the
        workloads "warmed and running in steady state", so resident
        structures must not contribute first-touch misses after a short
        warmup.  The sweep is part of the trace (and of the warmup window
        that discards it).
        """
        if count <= 0:
            raise ValueError("instruction count must be positive")
        out: List[Instruction] = []
        if not self._primed:
            self._primed = True
            out.extend(self._priming_sweep())
        random_ = self._rng.random
        lock_prob = self._lock_prob
        one_instruction = self._one_instruction
        append = out.append
        while len(out) < count:
            if self._lock_pending and self._burst_remaining == 0:
                # A cold-store burst just finished: the critical section it
                # attracted follows immediately, putting the serializing
                # acquire right behind the missing stores.
                self._lock_pending = False
                out.extend(self._critical_section())
            elif random_() < lock_prob[self._quiet]:
                out.extend(self._critical_section())
            else:
                append(one_instruction())
        del out[count:]
        return out

    def stream(self, count: int) -> Iterator[Instruction]:
        """Iterator form of :meth:`generate`."""
        return iter(self.generate(count))

    # -- phases ----------------------------------------------------------------

    def _per_phase(self, rate: float, quiet_scale: float) -> tuple:
        """*rate* in the busy and the quiet phase, aggregate-preserving."""
        return (rate * self.profile.busy_scale(quiet_scale),
                rate * quiet_scale)

    # -- program counter -----------------------------------------------------

    def _next_pc(self) -> int:
        """Advance fetch, including cold-code excursions (I-misses)."""
        emitted = self._emitted = self._emitted + 1
        self._quiet = emitted % self._phase_length < self._quiet_span
        if self._cold_run > 0:
            self._cold_run -= 1
            pc = self._cold_pc
            self._cold_pc += _PC_STEP
            if self._cold_run == 0:
                self._pc = self._hot_pc_after_jump()
                # Start the next excursion on a fresh line.
                self._cold_pc = (self._cold_pc + _LINE) & ~(_LINE - 1)
                if self._cold_pc >= self._cold_code[1]:
                    self._cold_pc = self._cold_code[0]
            return pc
        if self._rng.random() < self._inst_miss_prob[self._quiet]:
            # One excursion touches exactly one never-seen 64B line.
            self._cold_run = _LINE // _PC_STEP - 1
            pc = self._cold_pc
            self._cold_pc += _PC_STEP
            return pc
        pc = self._pc
        self._pc = pc + _PC_STEP
        if self._pc >= self._hot_code[1]:
            self._pc = self._hot_code[0]
        return pc

    def _hot_pc_after_jump(self) -> int:
        return (self._hot_code[0]
                + self._rng.randrange(self._hot_code_lines) * _LINE)

    def _hot_data_address(self) -> int:
        """A random doubleword of the hot data: the same draw as
        ``Region.random_address``."""
        return self._hot_data[0] + self._rng.randrange(self._hot_data_words) * 8

    # -- instruction construction ----------------------------------------------

    def _one_instruction(self) -> Instruction:
        roll = self._rng.random()
        profile = self.profile
        self._cold_load_age += 1
        if roll < profile.store_fraction:
            return self._store()
        roll -= profile.store_fraction
        if roll < profile.load_fraction:
            return self._load()
        roll -= profile.load_fraction
        if roll < profile.branch_fraction:
            return self._branch()
        return self._alu()

    def _store(self, lock_release_of: int | None = None) -> Instruction:
        profile = self.profile
        rng = self._rng
        if lock_release_of is not None:
            address = lock_release_of
        elif self._burst_remaining > 0 or rng.random() < self._store_miss_prob:
            if self._burst_remaining > 0:
                self._burst_remaining -= 1
            else:
                self._burst_remaining = self._burst_length() - 1
                # Quiet-phase store misses escape the lock attraction: they
                # are the ones that can fully overlap with computation.
                if (not self._quiet
                        and rng.random() < profile.lock_after_store_miss):
                    self._lock_pending = True
            address = self._cold_store_address()
        elif (
            self._last_store_address is not None
            and rng.random() < profile.sequential_store_fraction
        ):
            # Locality run: rewrite the same doubleword (a field update —
            # what 8-byte coalescing merges) or advance to the next one.
            step = 0 if rng.random() < 0.5 else 8
            address = self._last_store_address + step
            if not self._hot_data[0] <= address < self._hot_data[1]:
                address = self._hot_data_address()
        else:
            address = self._hot_data_address()
        if lock_release_of is None:
            self._last_store_address = address
        return Instruction(
            InstructionClass.STORE,
            self._next_pc(),
            address,
            8,
            REG_NONE,
            (self._base_reg, self._last_dest)
            if self._last_dest != REG_NONE else (self._base_reg,),
            lock_release=lock_release_of is not None,
        )

    def _burst_length(self) -> int:
        """Geometric burst length with the profile's mean."""
        mean = self.profile.store_burst_mean
        if mean <= 1.0:
            return 1
        p = 1.0 / mean
        length = 1
        while self._rng.random() > p and length < 64:
            length += 1
        return length

    def _cold_store_address(self) -> int:
        profile = self.profile
        rng = self._rng
        if rng.random() < profile.shared_store_fraction:
            return self.space["shared"].random_line(rng)
        region_index = rng.randrange(profile.store_regions)
        cursor = self._region_cursor[region_index]
        self._region_cursor[region_index] = cursor + 1
        line = cursor % self._region_lines_used
        return (
            self.space["store_pool"].base
            + region_index * profile.store_region_bytes
            + line * _LINE
        )

    def _load(self) -> Instruction:
        profile = self.profile
        rng = self._rng
        dest = self._registers.fresh()
        cold = rng.random() < self._load_miss_prob[self._quiet]
        if cold:
            if rng.random() < profile.shared_load_fraction:
                address = self.space["shared"].random_line(rng)
            else:
                address = self.space["cold_load"].random_line(rng)
            self._last_cold_load_dest = dest
            self._cold_load_age = 0
        else:
            address = self._hot_data_address()
        srcs = (self._base_reg,)
        # Occasional pointer chasing: the address depends on a prior load.
        if cold and self._last_dest != REG_NONE and rng.random() < 0.08:
            srcs = (self._last_dest,)
        self._last_dest = dest
        return Instruction(
            InstructionClass.LOAD, self._next_pc(), address, 8, dest, srcs,
        )

    def _branch(self) -> Instruction:
        profile = self.profile
        rng = self._rng
        pc = self._next_pc()
        hot_base, hot_end = self._hot_code
        if hot_base <= pc < hot_end:
            # Re-anchor to a stable site so the predictors can train; cold
            # excursion branches keep their one-off PCs.
            pc = self._branch_sites[rng.randrange(len(self._branch_sites))]
        if self._call_depth > 0 and rng.random() < 0.5 * profile.call_fraction:
            target = self._return_targets.pop()
            self._call_depth -= 1
            return Instruction(
                kind=InstructionClass.RETURN, pc=pc, taken=True, target=target
            )
        if rng.random() < profile.call_fraction and self._call_depth < 12:
            self._return_targets.append(pc + _PC_STEP)
            self._call_depth += 1
            return Instruction(
                kind=InstructionClass.CALL,
                pc=pc,
                taken=True,
                target=self._hot_pc_after_jump(),
            )
        # Conditional branch.
        srcs: tuple[int, ...] = ()
        unpredictable = rng.random() < profile.unpredictable_branch_fraction
        if (
            self._cold_load_age < 8
            and self._last_cold_load_dest != REG_NONE
            and rng.random() < profile.load_dependent_branch_fraction
        ):
            srcs = (self._last_cold_load_dest,)
            unpredictable = True  # data-dependent: the predictor can't learn it
        if unpredictable:
            taken = rng.random() < 0.5
        else:
            # Statically biased by PC: gshare learns these quickly.
            taken = (hash(pc) & 0xFF) < 256 * profile.taken_fraction
        # Stable per-PC target so the BTB can learn it.
        target = hot_base + (hash(pc ^ 0x5A5A) % self._hot_code_lines) * _LINE
        return Instruction(
            kind=InstructionClass.BRANCH,
            pc=pc,
            taken=taken,
            target=target if taken else pc + _PC_STEP,
            srcs=srcs,
        )

    def _alu(self) -> Instruction:
        dest = self._registers.fresh()
        srcs = (
            (self._last_dest,) if self._last_dest != REG_NONE
            else (self._base_reg,)
        )
        self._last_dest = dest
        return Instruction(InstructionClass.ALU, self._next_pc(), 0, 0, dest, srcs)

    def _priming_sweep(self) -> List[Instruction]:
        """Touch every hot-data and lock line once (steady-state warmth)."""
        out: List[Instruction] = []
        hot = self.space["hot_data"]
        for line in range(hot.size // _LINE):
            out.append(Instruction(
                kind=InstructionClass.LOAD,
                pc=self._next_pc(),
                address=hot.base + line * _LINE,
                size=8,
                dest=self._registers.fresh(),
                srcs=(self._base_reg,),
            ))
        locks = self.space["locks"]
        for line in range(locks.size // _LINE):
            out.append(Instruction(
                kind=InstructionClass.LOAD,
                pc=self._next_pc(),
                address=locks.base + line * _LINE,
                size=8,
                dest=self._registers.fresh(),
                srcs=(self._lock_base_reg,),
            ))
        return out

    # -- critical sections ---------------------------------------------------------

    def _critical_section(self) -> List[Instruction]:
        profile = self.profile
        rng = self._rng
        out: List[Instruction] = []
        lock_address = self.space["locks"].line(
            rng.randrange(profile.lock_pool)
        )
        dest = self._registers.fresh()
        out.append(Instruction(
            kind=InstructionClass.CAS,
            pc=self._next_pc(),
            address=lock_address,
            size=8,
            dest=dest,
            srcs=(self._lock_base_reg,),
            lock_acquire=True,
        ))
        body_length = max(2, int(rng.expovariate(
            1.0 / max(1, profile.critical_section_mean)
        )))
        for _ in range(min(body_length, 128)):
            out.append(self._one_instruction())
        out.append(self._store(lock_release_of=lock_address))
        return out


def generate_trace(
    profile: WorkloadProfile, instructions: int, seed: int = 0
) -> List[Instruction]:
    """One-shot convenience wrapper."""
    return WorkloadGenerator(profile, seed).generate(instructions)
