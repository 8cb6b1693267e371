"""Configuration dataclasses for the simulator and its substrates.

The default values reproduce the paper's Section 4.3 processor configuration:

- private 32KB 4-way 64B-line L1 instruction and data caches,
- a shared 2MB 4-way 64B-line L2,
- 64K-entry gshare with a 16K-entry BTB and 16-entry return address stack,
- 32-entry issue window, 64-entry reorder buffer,
- 16-entry store buffer, 32-entry store queue, store prefetch at retire,
  8-byte store coalescing, 64-entry load buffer,
- processor consistency (SPARC TSO flavour), and
- off-chip memory latency of 500 cycles (L1 4 cycles, L2 15 cycles).

All configs are frozen dataclasses: a configuration is a value, shared freely
between the simulator, workload generators and the benchmark harness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any

from .errors import CacheGeometryError, ConfigError


class ConsistencyModel(enum.Enum):
    """Memory consistency model implemented by the simulated processor.

    ``PC`` is processor consistency as implemented by SPARC TSO: stores become
    globally visible in program order, and ``casa``/``membar`` drain the store
    buffer and store queue before executing.  ``WC`` is weak consistency as
    implemented by the PowerPC architecture: stores may commit out of order
    and lock acquisition uses ``lwarx``/``stwcx``/``isync`` sequences that do
    not drain the store queue.
    """

    PC = "pc"
    WC = "wc"


class StorePrefetchMode(enum.Enum):
    """Hardware store-prefetch scheme (paper Section 3.3.2).

    ``NONE`` (Sp0) issues the write request only when the store reaches the
    head of the store queue.  ``AT_RETIRE`` (Sp1) issues a prefetch-for-write
    when the store retires into the store queue, overlapping all missing
    stores resident in the store queue.  ``AT_EXECUTE`` (Sp2) issues the
    prefetch as soon as the store address is generated, overlapping missing
    stores in both the store buffer and the store queue.
    """

    NONE = "sp0"
    AT_RETIRE = "sp1"
    AT_EXECUTE = "sp2"


class ScoutMode(enum.Enum):
    """Hardware Scout configuration (paper Section 3.3.5).

    ``NONE`` disables scouting.  ``HWS0`` enters scout mode on a missing-load
    epoch trigger and prefetches only missing loads and missing instructions.
    ``HWS1`` additionally prefetches missing stores encountered in scout mode.
    ``HWS2`` (the paper's novel optimization) also *enters* scout mode when
    the store queue is full and rename/dispatch is stalled.
    """

    NONE = "none"
    HWS0 = "hws0"
    HWS1 = "hws1"
    HWS2 = "hws2"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache."""

    size_bytes: int
    associativity: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise CacheGeometryError(
                f"cache size and associativity must be positive, got "
                f"{self.size_bytes}B {self.associativity}-way"
            )
        if not _is_pow2(self.line_bytes):
            raise CacheGeometryError(
                f"line size must be a power of two, got {self.line_bytes}"
            )
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise CacheGeometryError(
                f"{self.size_bytes}B cache is not divisible into "
                f"{self.associativity}-way sets of {self.line_bytes}B lines"
            )
        if not _is_pow2(self.num_sets):
            raise CacheGeometryError(
                f"number of sets must be a power of two, got {self.num_sets}"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class SmacConfig:
    """Store Miss Accelerator geometry (paper Section 3.3.3).

    The SMAC is a heavily sub-blocked set-associative structure held in the
    L2 subsystem.  Each entry tags one ``line_bytes`` region and keeps one
    exclusive-state bit per ``sub_block_bytes`` sub-block (one bit per L2
    cache line).  The paper's example: 8K entries with 2048-byte lines that
    are 32-way sub-blocked cover 16MB with a total SRAM cost of 64KB.
    """

    entries: int = 8192
    line_bytes: int = 2048
    sub_block_bytes: int = 64
    associativity: int = 8

    def __post_init__(self) -> None:
        _require(self.entries > 0, "SMAC must have at least one entry")
        _require(
            _is_pow2(self.line_bytes) and _is_pow2(self.sub_block_bytes),
            "SMAC line and sub-block sizes must be powers of two",
        )
        _require(
            self.line_bytes % self.sub_block_bytes == 0,
            "SMAC line size must be a multiple of the sub-block size",
        )
        _require(self.associativity > 0, "SMAC associativity must be positive")
        _require(
            self.entries % self.associativity == 0,
            "SMAC entries must divide evenly into associative sets",
        )

    @property
    def sub_blocks_per_line(self) -> int:
        return self.line_bytes // self.sub_block_bytes

    @property
    def coverage_bytes(self) -> int:
        """Address space covered when every entry is valid."""
        return self.entries * self.line_bytes

    @property
    def storage_bits(self) -> int:
        """SRAM cost: per-entry tag (32 bits assumed) plus sub-block bits."""
        return self.entries * (32 + self.sub_blocks_per_line)


@dataclass(frozen=True)
class BranchPredictorConfig:
    """gshare + BTB + return-address-stack front-end predictor."""

    gshare_entries: int = 64 * 1024
    btb_entries: int = 16 * 1024
    ras_entries: int = 16
    #: Global history depth folded into the index.  The synthetic workloads'
    #: branch outcomes are per-site biased rather than history-correlated,
    #: so a short history trains fastest; the paper's 64K-entry table is
    #: kept.  Raise this for history-correlated traces.
    history_bits: int = 3

    def __post_init__(self) -> None:
        _require(_is_pow2(self.gshare_entries), "gshare entries must be a power of two")
        _require(_is_pow2(self.btb_entries), "BTB entries must be a power of two")
        _require(self.ras_entries > 0, "RAS must have at least one entry")
        _require(
            (1 << self.history_bits) <= self.gshare_entries,
            "gshare history must not exceed the index width",
        )


@dataclass(frozen=True)
class MemoryConfig:
    """Cache hierarchy of one core/chip: L1I + L1D + shared L2 (+ optional SMAC)."""

    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 4))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(2 * 1024 * 1024, 4))
    l1_latency: int = 4
    l2_latency: int = 15
    memory_latency: int = 500
    smac: SmacConfig | None = None

    def __post_init__(self) -> None:
        _require(
            0 < self.l1_latency < self.l2_latency < self.memory_latency,
            "latencies must satisfy L1 < L2 < memory",
        )
        _require(
            self.l1d.line_bytes == self.l2.line_bytes,
            "L1D and L2 must share a line size (write-through L1)",
        )


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters and store-handling policy knobs."""

    issue_window: int = 32
    rob: int = 64
    load_buffer: int = 64
    store_buffer: int = 16
    store_queue: int = 32
    coalesce_bytes: int = 8
    store_prefetch: StorePrefetchMode = StorePrefetchMode.AT_RETIRE
    consistency: ConsistencyModel = ConsistencyModel.PC
    scout: ScoutMode = ScoutMode.NONE
    sle: bool = False
    prefetch_past_serializing: bool = False
    perfect_stores: bool = False
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)

    def __post_init__(self) -> None:
        for name in ("issue_window", "rob", "load_buffer", "store_buffer",
                     "store_queue"):
            _require(getattr(self, name) > 0, f"{name} must be positive")
        _require(
            self.coalesce_bytes == 0 or _is_pow2(self.coalesce_bytes),
            "coalescing granularity must be zero (off) or a power of two",
        )
        _require(
            self.rob >= self.issue_window,
            "ROB must be at least as large as the issue window",
        )

    def with_(self, **changes: Any) -> "CoreConfig":
        """Return a copy with the given fields replaced.

        Enum-valued knobs accept their wire spellings (``scout="hws1"``,
        ``consistency="wc"``, ``store_prefetch="sp2"``) or the enum
        members themselves.  Any other value — a bad spelling, a number,
        a member of the wrong enum — raises :class:`ConfigError` naming
        the offending knob; silently storing the raw value would produce
        a config no simulator path recognises.
        """
        for name, value in changes.items():
            current = getattr(self, name, None)
            if isinstance(current, enum.Enum):
                kind = type(current)
                if isinstance(value, kind):
                    continue
                valid = ", ".join(member.value for member in kind)
                if isinstance(value, str):
                    try:
                        changes[name] = kind(value)
                        continue
                    except ValueError:
                        pass
                raise ConfigError(
                    f"{name} must be one of: {valid} (got {value!r})"
                )
        return replace(self, **changes)


@dataclass(frozen=True)
class SystemConfig:
    """Multiprocessor topology: the number of chips (nodes)."""

    nodes: int = 2

    def __post_init__(self) -> None:
        _require(self.nodes >= 1, "system needs at least one node")


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level bundle handed to MLPsim."""

    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    system: SystemConfig = field(default_factory=SystemConfig)
    warmup_instructions: int = 50_000
    measure_instructions: int = 100_000
    #: On-chip CPI of the simulated workload (paper Table 3).  Converts the
    #: off-chip latency in cycles into instructions of on-chip computation —
    #: the window within which a store miss can fully overlap and the depth
    #: one Hardware Scout episode covers.
    cpi_on_chip: float = 1.0

    def __post_init__(self) -> None:
        _require(self.warmup_instructions >= 0, "warmup must be non-negative")
        _require(self.measure_instructions > 0, "measurement window must be positive")
        _require(self.cpi_on_chip > 0, "on-chip CPI must be positive")

    def with_core(self, **changes: Any) -> "SimulationConfig":
        """Return a copy with core fields replaced — the common sweep idiom."""
        return replace(self, core=self.core.with_(**changes))

    def with_memory(self, **changes: Any) -> "SimulationConfig":
        """Return a copy with memory fields replaced."""
        return replace(self, memory=replace(self.memory, **changes))

    @property
    def latency_instructions(self) -> int:
        """Instructions of on-chip computation per off-chip miss latency."""
        return max(1, round(self.memory.memory_latency / self.cpi_on_chip))

    @property
    def scout_depth(self) -> int:
        """Instructions a scout episode can cover before the trigger returns.

        A scout episode lasts one off-chip miss latency; the core runs ahead
        at roughly its on-chip IPC (paper Section 3.3.5).
        """
        return self.latency_instructions


DEFAULT_CONFIG = SimulationConfig()
