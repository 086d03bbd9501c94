"""Reverse execution over checkpoints + deterministic re-execution.

The controller wraps one interactive debugger backend.  Going forward,
every ``resume`` records the user stops it produces and annotates each
auto-checkpoint with the number of stops that preceded it.  Going
backward is then bookkeeping:

* ``reverse_continue`` from the k-th stop restores the newest
  checkpoint known to precede stop k-1 and resumes (stopping at user
  transitions) until stop k-1 re-fires;
* ``reverse_step`` restores the newest checkpoint at or before the
  target instruction count and re-executes up to it, re-recording any
  stops passed through.

Determinism makes the replayed stops identical to the original ones —
same PC, same instruction count, same architectural state — which the
test suite asserts via ``state_fingerprint()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.replay.checkpoint import Checkpoint, CheckpointStore

DEFAULT_INTERVAL = 10_000


@dataclass(frozen=True)
class StopRecord:
    """Canonical record of one user stop."""

    ordinal: int  # 0-based stop number
    app_instructions: int
    pc: int
    fingerprint: str = ""  # architectural digest (when recording enabled)
    process: str = ""  # which process the stop landed in (multi-process)

    def describe(self) -> str:
        """One-line human-readable summary of the stop."""
        where = f" in {self.process}" if self.process else ""
        return (f"stop #{self.ordinal} at pc={self.pc:#x}{where} "
                f"({self.app_instructions:,} instructions)")


class ReverseController:
    """Forward/backward execution of one interactive backend."""

    def __init__(self, backend, *, interval: int = DEFAULT_INTERVAL,
                 capacity: int = 64, record_fingerprints: bool = False):
        # Deferred import: repro.cpu.machine imports repro.replay.
        from repro.cpu.machine import WeakBoundMethod

        self.backend = backend
        self.machine = backend.machine
        self.machine.stop_on_user = True
        self.record_fingerprints = record_fingerprints
        self.stops: list[StopRecord] = []
        self.store: CheckpointStore = self.machine.enable_checkpoints(
            interval=interval, store=CheckpointStore(capacity),
            snapshot_fn=WeakBoundMethod(backend.snapshot))
        # Genesis checkpoint: reverse execution can always reach the
        # state the controller started from.
        self.store.add(Checkpoint(self.machine.stats.app_instructions,
                                  backend.snapshot(), {"stops_seen": 0}))

    # -- forward execution -------------------------------------------------

    def resume(self, max_app_instructions: Optional[int] = None):
        """Run forward; record the stop (if any) and annotate new
        checkpoints with the stop count at the start of this run.

        Checkpoints are only taken while running, i.e. strictly before
        the stop that ends the run fires — so a checkpoint annotated
        ``stops_seen = n`` precedes stop ``n``.
        """
        stops_before = len(self.stops)
        result = self.backend.run(max_app_instructions)
        for checkpoint in self.store:
            checkpoint.meta.setdefault("stops_seen", stops_before)
        if result.stopped_at_user:
            machine = self.machine
            self.stops.append(StopRecord(
                ordinal=stops_before,
                app_instructions=machine.stats.app_instructions,
                pc=machine.pc,
                fingerprint=(machine.state_fingerprint()
                             if self.record_fingerprints else ""),
                # Name the stopped process only on multi-process
                # machines, so single-process stop descriptions (and
                # recorded golden transcripts) are unchanged.
                process=(machine.current_process
                         if machine._kernel is not None else "")))
        return result

    # -- backward execution ------------------------------------------------

    def reverse_continue(self) -> Optional[StopRecord]:
        """Rewind from the current stop to the previous one.

        Returns the re-landed :class:`StopRecord` (ordinal k-1 when
        called at stop k), or None when there is no earlier stop — in
        that case the machine rewinds to the controller's genesis state
        (the start of recorded history, like gdb's reverse-continue
        running off the beginning).  When the machine is *past* the
        last stop (halted, or paused by an instruction budget), the
        previous stop is the last recorded one.
        """
        machine = self.machine
        at_last_stop = bool(
            self.stops and machine.stopped_at_user
            and machine.stats.app_instructions
            == self.stops[-1].app_instructions)
        target = len(self.stops) - (2 if at_last_stop else 1)
        if target < 0:
            self._restore_checkpoint(self.store.oldest)
            return None
        checkpoint = self.store.nearest_at_or_before(
            self.machine.stats.app_instructions,
            predicate=lambda c: c.meta.get("stops_seen", 0) <= target)
        if checkpoint is None:
            checkpoint = self.store.oldest
        self._restore_checkpoint(checkpoint)
        resumes = target + 1 - checkpoint.meta.get("stops_seen", 0)
        for _ in range(resumes):
            result = self.resume()
            if not result.stopped_at_user:
                raise ReplayDivergenceError(
                    f"re-execution toward stop #{target} "
                    f"{'halted' if result.halted else 'ended'} after "
                    f"{len(self.stops)} stops — the recorded history no "
                    f"longer reproduces (non-deterministic handler?)")
        return self.stops[-1]

    def reverse_step(self, instructions: int = 1) -> None:
        """Rewind the machine by ``instructions`` application
        instructions (to the start of recorded history at most)."""
        self.seek(self.machine.stats.app_instructions - instructions)

    def seek(self, app_instructions: int) -> None:
        """Move the machine to an exact application-instruction count.

        Seeking backward restores the nearest checkpoint at or before
        the target and re-executes the remainder; seeking forward just
        resumes.  Either way stops passed through are re-recorded, so
        history stays consistent (``reverse_step`` is ``seek`` relative
        to the current position).  Targets before the genesis
        checkpoint clamp to the start of recorded history.
        """
        machine = self.machine
        target = max(app_instructions,
                     self.store.oldest.app_instructions)
        if target < machine.stats.app_instructions:
            checkpoint = self.store.nearest_at_or_before(target)
            if checkpoint is None:
                checkpoint = self.store.oldest
            self._restore_checkpoint(checkpoint)
        while machine.stats.app_instructions < target:
            result = self.resume(target)
            if result.halted:
                break
            if not result.stopped_at_user:
                break  # limit reached: we are at the target

    def _restore_checkpoint(self, checkpoint: Checkpoint) -> None:
        self.backend.restore(checkpoint.blob)
        self.store.trim_after(checkpoint.app_instructions)
        del self.stops[checkpoint.meta.get("stops_seen", 0):]
        # The backend blob may predate interactive mode; re-assert it.
        self.machine.stop_on_user = True

    # -- introspection -----------------------------------------------------

    @property
    def current_stop(self) -> Optional[StopRecord]:
        return self.stops[-1] if self.stops else None

    def checkpoint_now(self, note: str = "") -> Checkpoint:
        """Take an explicit checkpoint of the current state."""
        meta = {"stops_seen": len(self.stops)}
        if note:
            meta["note"] = note
        return self.store.add(Checkpoint(
            self.machine.stats.app_instructions,
            self.backend.snapshot(), meta))


class ReplayDivergenceError(RuntimeError):
    """Deterministic re-execution failed to reproduce recorded stops."""
