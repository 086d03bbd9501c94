"""Translation lookaside buffers.

The simulated machine has 64-entry 4-way instruction and data TLBs
(paper Section 5).  Like the caches, TLBs here are tag-only classifiers:
a miss charges a refill penalty in the timing model.  Translation itself
is identity (the simulator runs a single flat address space), which is
faithful to the paper's user-level SimpleScalar setup.
"""

from __future__ import annotations

from repro.config import TlbConfig
from repro.memory.cache import SetAssociativeCache


class Tlb(SetAssociativeCache):
    """A set-associative TLB with LRU replacement: the cache's tag
    array over page numbers."""

    __slots__ = ()

    def __init__(self, config: TlbConfig, name: str = "tlb"):
        super().__init__(config, name)

    @staticmethod
    def _block_bytes(config: TlbConfig) -> int:
        return config.page_bytes

    def flush(self) -> None:
        """Drop all translations, keeping the counters.

        This is a context switch, not a measurement reset: the incoming
        process re-misses its working set and those misses count.
        """
        self._empty()
