"""Machine and experiment configuration.

The defaults mirror the simulated machine of the paper's Section 5:

    "We model a dynamically-scheduled 4-way superscalar processor with a
    12-stage pipeline, 128-entry re-order buffer, and 80 reservation
    stations.  The simulated processor has an 8K entry hybrid branch
    predictor, 2K-entry BTB [...].  The on-chip memory system is composed
    of 32KB 2-way set-associative instruction and data caches, 64-entry
    4-way set-associative instruction and data TLBs, and a 1MB, 4-way set
    associative L2.  Main memory has 100 cycle access latency [...].  The
    DISE engine is modestly configured (32-entry pattern table and a
    512-instruction 2-way set-associative replacement table)."

and the experimental methodology:

    "We model the cost of spurious debugger transitions by flushing the
    pipeline and stalling for 100,000 cycles."
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

#: The interpreter tiers ``MachineConfig.interpreter`` may name.  The
#: first is the reference: the others must be observationally identical
#: to it.
INTERPRETERS = ("table", "legacy", "compiled")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    associativity: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"{self.associativity} ways x {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class TlbConfig:
    """Geometry of a translation lookaside buffer."""

    entries: int = 64
    associativity: int = 4
    page_bytes: int = 4096
    miss_penalty: int = 30

    @property
    def num_sets(self) -> int:
        return self.entries // self.associativity


@dataclass(frozen=True)
class DiseConfig:
    """Capacity of the DISE engine tables (paper Section 5)."""

    pattern_table_entries: int = 32
    replacement_table_instructions: int = 512
    num_dise_registers: int = 16


@dataclass(frozen=True)
class PipelineConfig:
    """Width, depth and penalties of the timing model."""

    commit_width: int = 4
    load_ports: int = 2
    store_ports: int = 1
    # Flush penalty: a pipeline flush costs a refill of the front end.
    flush_penalty: int = 12
    # Fraction of a long-latency miss that out-of-order execution hides.
    # These are first-order stand-ins for a full OoO model; see DESIGN.md.
    l2_hit_overlap: float = 0.7
    memory_overlap: float = 0.4


@dataclass(frozen=True)
class MemoryTimingConfig:
    """Latency of each level of the memory hierarchy (cycles)."""

    l1_hit: int = 3
    l2_hit: int = 15
    memory: int = 100


@dataclass(frozen=True)
class DebugCostConfig:
    """Costs of debugger interactions (paper Section 5 methodology)."""

    # Cost of a spurious debugger transition: flush + 100,000-cycle stall.
    spurious_transition_cycles: int = 100_000
    # User transitions (and their accompanying debugger transitions) are
    # modeled as free so that results are comparable across runs.
    user_transition_cycles: int = 0


@dataclass(frozen=True)
class MachineConfig:
    """Complete configuration of the simulated machine."""

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    icache: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, associativity=2)
    )
    dcache: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, associativity=2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=1024 * 1024, associativity=4)
    )
    itlb: TlbConfig = field(default_factory=TlbConfig)
    dtlb: TlbConfig = field(default_factory=TlbConfig)
    mem_timing: MemoryTimingConfig = field(default_factory=MemoryTimingConfig)
    dise: DiseConfig = field(default_factory=DiseConfig)
    debug_costs: DebugCostConfig = field(default_factory=DebugCostConfig)
    page_bytes: int = 4096
    branch_predictor_entries: int = 8192
    btb_entries: int = 2048
    # Multithreaded execution of DISE-called functions (paper Section 4,
    # "Multithreading DISE function calls"; evaluated in Figure 8).
    multithreaded_dise_calls: bool = False
    # Interpreter tier, the only tier selector: "table" (the dispatch
    # table, the default), "compiled" (basic blocks fused into generated
    # Python closures; see repro.cpu.compiled), or "legacy" (the
    # pre-dispatch-table interpreter, kept as a differential reference;
    # scheduled for removal).  Each tier serves timed and functional
    # (detailed_timing=False) runs through one code path.
    interpreter: str = "table"
    # Chain-loop visits before the compiled tier compiles a block at an
    # entry pc (see repro.cpu.compiled).  The default keeps large
    # workloads from compiling redundant chunk-boundary blocks after
    # run-limit resumes; differential harnesses drop it to 1 so tiny
    # programs compile eagerly and cache-invalidation bugs surface.
    compiled_hot_threshold: int = 4

    def with_(self, **kwargs) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def default_workers() -> int:
    """Worker-process count for the parallel experiment engine.

    Settable via the ``REPRO_WORKERS`` environment variable; defaults
    to ``os.cpu_count() - 1`` (but at least 1) so one core stays free
    for the coordinating process.
    """
    try:
        value = int(os.environ.get("REPRO_WORKERS", "0"))
    except ValueError:
        value = 0
    if value > 0:
        return value
    return max(1, (os.cpu_count() or 2) - 1)


def default_cache_dir() -> str:
    """Directory of the on-disk result cache (``REPRO_CACHE_DIR`` env).

    Defaults to ``.repro_cache`` under the current working directory.
    """
    return os.environ.get("REPRO_CACHE_DIR", ".repro_cache")


def cache_enabled() -> bool:
    """Whether the on-disk result cache is active (``REPRO_CACHE`` env).

    Set ``REPRO_CACHE=0`` (or ``off``/``no``/``false``) to disable all
    persistent caching; in-memory caches are unaffected.
    """
    return os.environ.get("REPRO_CACHE", "1").lower() not in (
        "0", "off", "no", "false")


def default_scale() -> float:
    """Experiment scale factor, settable via the REPRO_SCALE env var.

    1.0 corresponds to the default dynamic-instruction budgets used by the
    benchmark harness (see ``repro.harness.experiment``).  Larger values
    run longer simulations and tighten the statistics.
    """
    try:
        return float(os.environ.get("REPRO_SCALE", "1.0"))
    except ValueError:
        return 1.0


DEFAULT_CONFIG = MachineConfig()
