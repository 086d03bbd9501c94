"""Set-associative caches and the two-level hierarchy.

The timing model charges memory-access latency according to where an
access hits: L1 (I$ or D$), the shared L2, or main memory.  Caches use
true LRU within a set (associativities here are 2 and 4, so the linear
scan is cheap).

Only tags are modeled — the simulator's functional state lives in
:class:`repro.memory.main_memory.MainMemory`; caches exist purely to
classify accesses for the timing model.  This is sufficient because the
paper's cache-related effects (binary rewriting's instruction-cache
bloat, load-port/D$ contention of expression-evaluating replacement
sequences) are hit/miss phenomena, not coherence phenomena.

Each set is an immutable tuple of tags, most recently used first.  A
hit on the MRU way changes nothing; any other hit, and every miss,
replaces that one set's tuple.  So :meth:`SetAssociativeCache.snapshot`
and ``restore`` copy one list of references, and checkpoints share
every set that has not changed since the last one — a timed checkpoint
costs one list copy per tag array, not a copy of every set.
"""

from __future__ import annotations

from enum import IntEnum

from repro.config import CacheConfig, MachineConfig


class AccessLevel(IntEnum):
    """Where a memory access was satisfied.

    An ``IntEnum``, so a level indexes a tuple of per-level charges.
    """

    L1 = 0
    L2 = 1
    MEMORY = 2


# The members as module globals: every fetched line and data access
# returns one, and Python 3.11 resolves ``AccessLevel.L1`` through the
# enum metaclass (~78 ns) where a global costs ~5 ns (DESIGN.md §5).
_L1 = AccessLevel.L1
_L2 = AccessLevel.L2
_MEMORY = AccessLevel.MEMORY


class SetAssociativeCache:
    """A tag-only set-associative cache with LRU replacement.

    A tag is the address shifted right by the block size: a cache line
    here, a page in the :class:`~repro.memory.tlb.Tlb` subclass.
    """

    __slots__ = ("name", "config", "_sets", "_set_mask", "_line_shift",
                 "_keep", "hits", "misses")

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.name = name
        self.config = config
        num_sets = config.num_sets
        if num_sets & (num_sets - 1):
            raise ValueError(
                f"{name}: number of sets {num_sets} is not a power of two")
        self._sets: list[tuple[int, ...]] = [()] * num_sets
        self._set_mask = num_sets - 1
        self._line_shift = self._block_bytes(config).bit_length() - 1
        # Ways a miss keeps behind the incoming line.
        self._keep = config.associativity - 1
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _block_bytes(config: CacheConfig) -> int:
        """Bytes covered by one tag."""
        return config.line_bytes

    def access(self, address: int) -> bool:
        """Probe the cache; fill on miss.  Returns True on hit."""
        line = address >> self._line_shift
        index = line & self._set_mask
        ways = self._sets[index]
        if ways and ways[0] == line:  # MRU fast path: nothing moves
            self.hits += 1
            return True
        if line in ways:
            self.hits += 1
            way = ways.index(line)
            self._sets[index] = (line,) + ways[:way] + ways[way + 1:]
            return True
        self.misses += 1
        self._sets[index] = (line,) + ways[:self._keep]
        return False

    def probe(self, address: int) -> bool:
        """Check residency without updating state (for tests/tools)."""
        line = address >> self._line_shift
        return line in self._sets[line & self._set_mask]

    def _empty(self) -> None:
        """Drop every tag (fresh empty sets; snapshots keep theirs)."""
        self._sets = [()] * len(self._sets)

    def reset(self) -> None:
        """Empty the cache and zero the counters."""
        self._empty()
        self.hits = 0
        self.misses = 0

    def reset_counters(self) -> None:
        """Zero hit/miss counters without disturbing cache contents."""
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> tuple:
        """Capture cache contents and counters.

        The sets are immutable, so the blob shares them with the live
        cache: only the list of references is copied.
        """
        return (tuple(self._sets), self.hits, self.misses)

    def restore(self, blob: tuple) -> None:
        """Reset the cache to a previous :meth:`snapshot`."""
        sets, self.hits, self.misses = blob
        self._sets = list(sets)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class CacheHierarchy:
    """Split L1 I$/D$ over a shared L2.

    ``access_inst`` / ``access_data`` return the :class:`AccessLevel`
    where the access hit, which the timing model converts to latency.
    """

    __slots__ = ("l1i", "l1d", "l2")

    def __init__(self, config: MachineConfig):
        self.l1i = SetAssociativeCache(config.icache, "l1i")
        self.l1d = SetAssociativeCache(config.dcache, "l1d")
        self.l2 = SetAssociativeCache(config.l2, "l2")

    def access_inst(self, address: int) -> AccessLevel:
        """Instruction fetch: probe I$ then L2; returns the hit level."""
        if self.l1i.access(address):
            return _L1
        if self.l2.access(address):
            return _L2
        return _MEMORY

    def access_data(self, address: int) -> AccessLevel:
        """Data access: probe D$ then L2; returns the hit level."""
        if self.l1d.access(address):
            return _L1
        if self.l2.access(address):
            return _L2
        return _MEMORY

    def reset(self) -> None:
        """Empty all levels and zero all counters."""
        self.l1i.reset()
        self.l1d.reset()
        self.l2.reset()

    def reset_counters(self) -> None:
        """Zero all counters, keeping contents (post-warm-up)."""
        self.l1i.reset_counters()
        self.l1d.reset_counters()
        self.l2.reset_counters()

    def snapshot(self) -> tuple:
        """Capture all three levels."""
        return (self.l1i.snapshot(), self.l1d.snapshot(), self.l2.snapshot())

    def restore(self, blob: tuple) -> None:
        """Reset all three levels to a previous :meth:`snapshot`."""
        self.l1i.restore(blob[0])
        self.l1d.restore(blob[1])
        self.l2.restore(blob[2])
