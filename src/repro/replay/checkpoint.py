"""Checkpoints of a running machine.

A :class:`Checkpoint` pairs an opaque machine snapshot blob with the
application-instruction count at which it was taken, plus a small
metadata dict that higher layers annotate (the reverse-execution
controller records how many user stops preceded each checkpoint).

Blobs come from ``Machine.snapshot()`` (or a backend's ``snapshot()``,
which wraps it).  They share state with the live machine instead of
copying it: memory pages copy-on-write, and the cache and TLB tag
arrays' sets, which are immutable tuples (see :mod:`repro.memory.cache`).
Holding many checkpoints therefore costs O(dirty pages + changed sets)
plus one reference per set, not a copy of the machine each.  Blobs
reference live Python objects (productions, watchpoints), which
restricts restore to the same process and the same machine instance.

:class:`CheckpointStore` keeps checkpoints ordered by instruction count
and bounds its population by *thinning*: when capacity is exceeded it
drops every other interior checkpoint, halving density while preserving
the full time range — old history gets coarser, never truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional


@dataclass
class Checkpoint:
    """One restorable point in a run."""

    app_instructions: int
    blob: Any
    meta: dict = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Checkpoint(app_instructions={self.app_instructions}, "
                f"meta={self.meta})")


class CheckpointStore:
    """An ordered, capacity-bounded collection of checkpoints."""

    def __init__(self, capacity: int = 64):
        if capacity < 2:
            raise ValueError(f"capacity {capacity} < 2")
        self.capacity = capacity
        self._checkpoints: list[Checkpoint] = []

    def __len__(self) -> int:
        return len(self._checkpoints)

    def __iter__(self) -> Iterator[Checkpoint]:
        return iter(self._checkpoints)

    @property
    def checkpoints(self) -> tuple[Checkpoint, ...]:
        return tuple(self._checkpoints)

    def add(self, checkpoint: Checkpoint) -> Checkpoint:
        """Append a checkpoint (instruction counts must not decrease)."""
        if (self._checkpoints and checkpoint.app_instructions
                < self._checkpoints[-1].app_instructions):
            raise ValueError(
                f"checkpoint at {checkpoint.app_instructions} precedes "
                f"newest at {self._checkpoints[-1].app_instructions}")
        self._checkpoints.append(checkpoint)
        if len(self._checkpoints) > self.capacity:
            self._thin()
        return checkpoint

    def _thin(self) -> None:
        """Halve density: keep even indices plus the newest."""
        kept = self._checkpoints[::2]
        if kept[-1] is not self._checkpoints[-1]:
            kept.append(self._checkpoints[-1])
        self._checkpoints = kept

    def nearest_at_or_before(self, app_instructions: int,
                             predicate=None) -> Optional[Checkpoint]:
        """Newest checkpoint with ``app_instructions <= bound`` (and
        satisfying ``predicate`` when given), or None."""
        for checkpoint in reversed(self._checkpoints):
            if checkpoint.app_instructions > app_instructions:
                continue
            if predicate is None or predicate(checkpoint):
                return checkpoint
        return None

    def trim_after(self, app_instructions: int) -> None:
        """Drop checkpoints newer than ``app_instructions``.

        Called after a restore: checkpoints from the abandoned future
        describe machine states the re-execution may never revisit
        identically (the debugger may change plans), so they go.
        """
        self._checkpoints = [
            checkpoint for checkpoint in self._checkpoints
            if checkpoint.app_instructions <= app_instructions]

    def clear(self) -> None:
        """Drop every held checkpoint."""
        self._checkpoints.clear()

    @property
    def newest(self) -> Optional[Checkpoint]:
        return self._checkpoints[-1] if self._checkpoints else None

    @property
    def oldest(self) -> Optional[Checkpoint]:
        return self._checkpoints[0] if self._checkpoints else None
