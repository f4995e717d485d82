"""System configuration (paper Table III, Sunny-Cove-like).

All sizes are in bytes, latencies in cycles.  The defaults follow the
paper's baseline: 32KB 8-way L1I with a 4-cycle latency, a 10-entry L1I
MSHR, a 32-entry prefetch queue, a decoupled front end, and a seven-stage
pipeline with stage-dependent branch-misprediction penalties.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.check.errors import ConfigError

_REPLACEMENT_POLICIES = ("lru", "fifo")
_BRANCH_PREDICTORS = ("gshare", "bimodal")
#: Simulator cores; both produce bit-identical signatures (see repro.sim.stages).
BACKENDS = ("reference", "staged")


@dataclass(frozen=True)
class SimConfig:
    """Complete simulator configuration.

    The enlarged-cache baselines of Figure 6 (L1I-64KB / L1I-96KB) keep the
    4-cycle latency and raise associativity to 16/24 ways, exactly as the
    paper describes; use :meth:`with_l1i_kb`.
    """

    # -- line / address geometry
    line_size: int = 64
    page_size: int = 4096

    # -- L1 instruction cache
    l1i_size: int = 32 * 1024
    l1i_ways: int = 8
    l1i_latency: int = 4
    l1i_mshrs: int = 10
    l1i_replacement: str = "lru"   # or "fifo"
    mshr_demand_reserve: int = 2   # MSHR slots prefetches may not occupy
    prefetch_queue_size: int = 32
    prefetch_issue_width: int = 4

    # -- L1 data cache (energy accounting; does not stall the back end)
    l1d_size: int = 48 * 1024
    l1d_ways: int = 12
    l1d_latency: int = 5

    # -- unified L2
    l2_size: int = 512 * 1024
    l2_ways: int = 8
    l2_latency: int = 14

    # -- shared LLC
    llc_size: int = 2 * 1024 * 1024
    llc_ways: int = 16
    llc_latency: int = 34

    # -- DRAM
    dram_latency: int = 200

    # -- front end
    ftq_size: int = 64            # fetch-target-queue entries (line visits)
    fetch_lines_per_cycle: int = 2
    retire_width: int = 6
    decode_redirect_penalty: int = 5   # BTB-miss redirect, detected at decode
    exec_redirect_penalty: int = 12    # direction/indirect mispredict, at execute

    # -- branch prediction structures
    branch_predictor: str = "gshare"   # or "bimodal"
    gshare_bits: int = 14          # 16K two-bit counters
    gshare_history: int = 12
    btb_sets: int = 1024
    btb_ways: int = 8
    ras_size: int = 64
    itc_bits: int = 9              # 512-entry indirect target cache
    itc_history: int = 6

    # -- address translation (physical-address training, paper §IV-E)
    physical_addresses: bool = False
    physical_page_seed: int = 12345

    # -- simulator core (host-side choice, never architectural: every
    # backend produces bit-identical SimStats signatures, and the field
    # is excluded from run-cache keys)
    backend: str = "reference"   # or "staged"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Fail fast on structurally invalid configurations.

        Raises :class:`~repro.check.errors.ConfigError` (a ``ValueError``)
        with an actionable message naming the offending field and the
        accepted range, so a bad sweep point or hand-edited config dies at
        construction instead of producing garbage numbers mid-suite.
        """
        for label, value in (
            ("line_size", self.line_size),
            ("page_size", self.page_size),
        ):
            if value < 1 or value & (value - 1):
                raise ConfigError(
                    f"{label} must be a positive power of two, got {value}"
                )
        if self.page_size < self.line_size:
            raise ConfigError(
                f"page_size ({self.page_size}) must be >= line_size "
                f"({self.line_size})"
            )
        for cache_size, ways, label in (
            (self.l1i_size, self.l1i_ways, "L1I"),
            (self.l1d_size, self.l1d_ways, "L1D"),
            (self.l2_size, self.l2_ways, "L2"),
            (self.llc_size, self.llc_ways, "LLC"),
        ):
            if ways < 1:
                raise ConfigError(f"{label}: needs at least one way, got {ways}")
            sets = cache_size // (ways * self.line_size)
            if sets <= 0 or cache_size % (ways * self.line_size):
                raise ConfigError(
                    f"{label}: size {cache_size} not divisible into "
                    f"{ways} ways of {self.line_size}B lines"
                )
        for label, value in (
            ("l1i_latency", self.l1i_latency),
            ("l1d_latency", self.l1d_latency),
            ("l2_latency", self.l2_latency),
            ("llc_latency", self.llc_latency),
            ("dram_latency", self.dram_latency),
            ("l1i_mshrs", self.l1i_mshrs),
            ("prefetch_queue_size", self.prefetch_queue_size),
            ("prefetch_issue_width", self.prefetch_issue_width),
            ("ftq_size", self.ftq_size),
            ("fetch_lines_per_cycle", self.fetch_lines_per_cycle),
            ("retire_width", self.retire_width),
            ("btb_sets", self.btb_sets),
            ("btb_ways", self.btb_ways),
            ("ras_size", self.ras_size),
        ):
            if value < 1:
                raise ConfigError(f"{label} must be >= 1, got {value}")
        if not 0 <= self.mshr_demand_reserve < self.l1i_mshrs:
            raise ConfigError(
                f"mshr_demand_reserve ({self.mshr_demand_reserve}) must be "
                f"in [0, l1i_mshrs) = [0, {self.l1i_mshrs}); prefetches "
                f"need at least one usable MSHR slot short of the demand "
                f"reserve"
            )
        if self.l1i_replacement not in _REPLACEMENT_POLICIES:
            raise ConfigError(
                f"l1i_replacement {self.l1i_replacement!r} is not one of "
                f"{_REPLACEMENT_POLICIES}"
            )
        if self.branch_predictor not in _BRANCH_PREDICTORS:
            raise ConfigError(
                f"branch_predictor {self.branch_predictor!r} is not one of "
                f"{_BRANCH_PREDICTORS}"
            )
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"backend {self.backend!r} is not one of {BACKENDS} "
                f"(set SimConfig.backend, --backend, or REPRO_BACKEND to "
                f"a supported simulator core)"
            )
        for label, value in (
            ("decode_redirect_penalty", self.decode_redirect_penalty),
            ("exec_redirect_penalty", self.exec_redirect_penalty),
            ("gshare_bits", self.gshare_bits),
            ("gshare_history", self.gshare_history),
            ("itc_bits", self.itc_bits),
            ("itc_history", self.itc_history),
        ):
            if value < 0:
                raise ConfigError(f"{label} must be >= 0, got {value}")

    @property
    def l1i_sets(self) -> int:
        return self.l1i_size // (self.l1i_ways * self.line_size)

    @property
    def l1d_sets(self) -> int:
        return self.l1d_size // (self.l1d_ways * self.line_size)

    @property
    def l2_sets(self) -> int:
        return self.l2_size // (self.l2_ways * self.line_size)

    @property
    def llc_sets(self) -> int:
        return self.llc_size // (self.llc_ways * self.line_size)

    def with_l1i_kb(self, kilobytes: int) -> "SimConfig":
        """Enlarged L1I baseline: more ways, same latency (paper §IV-B)."""
        ways = (kilobytes * 1024) // (self.l1i_sets * self.line_size)
        return replace(self, l1i_size=kilobytes * 1024, l1i_ways=ways)

    def with_physical_addresses(self) -> "SimConfig":
        return replace(self, physical_addresses=True)

    def with_backend(self, backend: str) -> "SimConfig":
        """The same configuration simulated by a different core."""
        return replace(self, backend=backend)


DEFAULT_CONFIG = SimConfig()
