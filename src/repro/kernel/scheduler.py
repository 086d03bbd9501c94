"""The round-robin scheduler driving a multi-process machine.

:class:`Kernel` owns the process table and the run loop.  It attaches
to a machine whose program becomes pid 1; further programs join via
:meth:`spawn`.  ``Machine.run`` then delegates here, so every existing
client — debugger backends, reverse execution, time-travel queries,
the measurement harness — transparently drives a multi-process
workload.

Scheduling is deterministic: quanta are measured in *application
instructions* (the machine clips run slices to the timer deadline), so
a workload preempts at identical points on the table, legacy, and
compiled interpreter tiers, and a re-run from a checkpoint re-lands
every context switch exactly.  The machine owns its kernel; the kernel
holds the machine weakly, so the pair is freed as soon as its owner
drops the machine.

On each switch the kernel:

* swaps per-process state by reference (:class:`ProcessContext`: the
  fields :data:`repro.cpu.process.PROCESS_FIELDS` names), including
  the per-process compiled-code tier — block caches survive being
  descheduled;
* charges the timing model a pipeline flush + TLB shootdown;
* re-gates the DISE engine (``DiseController.context_switch``) so
  productions targeting the outgoing process are lifted out of the
  pattern table — the incoming process's fetch stream never probes
  them, which is what keeps a debugged neighbour nearly free.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import TYPE_CHECKING, Union

from repro.cpu import process
from repro.cpu.machine import (CAUSE_SYSCALL, CAUSE_TIMER, SYS_EXIT,
                               SYS_GETPID, SYS_YIELD)
from repro.cpu.process import ProcessContext
from repro.errors import SimulationError
from repro.isa.program import Program

if TYPE_CHECKING:
    from repro.cpu.machine import Machine

# Default preemption quantum, in application instructions.  Small
# enough that modest workloads context-switch many times; large enough
# that switch cost (pipeline flush + TLB refill) stays in the noise.
DEFAULT_QUANTUM = 5_000


class Kernel:
    """Host-level kernel: process table, timer, syscalls, scheduler."""

    def __init__(self, machine: "Machine", quantum: int = DEFAULT_QUANTUM):
        if quantum < 0:
            raise ValueError(f"quantum {quantum} must be >= 0")
        # The machine owns its kernel; held weakly, the pair is not a
        # reference cycle and a dropped session frees both at once.
        self._machine = weakref.ref(machine)
        self.quantum = quantum  # 0 = cooperative (yield/exit only)

        # pid 1 is the machine's already-loaded program.  Contexts are
        # kept forever, even after exit: reverse execution can rewind
        # to a point where a reaped process was still alive.
        first = ProcessContext.adopt(machine, 1, machine.program.name)
        self._contexts: dict[int, ProcessContext] = {1: first}
        self._queue: list[int] = [1]  # runnable pids; current at front
        self._current = 1  # pid whose state is live on the machine
        self._next_pid = 2

        # Event counters.
        self.context_switches = 0
        self.preemptions = 0
        self.syscalls = 0

        # Per-process accounting, charged at slice boundaries: total
        # application instructions and cycles each process ran.  This
        # is what the cross-process overhead benchmark reads.
        self._proc_instructions: dict[int, int] = {1: 0}
        self._proc_cycles: dict[int, float] = {1: 0.0}
        self._slice_start_app = machine.stats.app_instructions
        self._slice_start_cycles = self._machine_cycles()

        machine.attach_kernel(self)

    # -- process table -----------------------------------------------------

    def spawn(self, program: Program, name: str | None = None) -> int:
        """Add ``program`` as a runnable process; returns its pid.

        Process names must be unique (DISE productions target processes
        by name): a duplicate gets ``#pid`` appended.
        """
        pid = self._next_pid
        self._next_pid += 1
        name = name or program.name
        if any(ctx.name == name for ctx in self._contexts.values()):
            name = f"{name}#{pid}"
        ctx = ProcessContext.fresh(pid, name, program,
                                   self._machine().config.page_bytes)
        self._contexts[pid] = ctx
        self._queue.append(pid)
        self._proc_instructions[pid] = 0
        self._proc_cycles[pid] = 0.0
        return pid

    @property
    def current_pid(self) -> int:
        return self._current

    @property
    def processes(self) -> tuple[ProcessContext, ...]:
        return tuple(self._contexts[pid] for pid in sorted(self._contexts))

    def process_state(self, key: Union[int, str]) -> ProcessContext:
        """Look up a context by pid or name, synced with the machine.

        The returned context reflects the process's latest state even
        if it is the one currently scheduled.
        """
        ctx = self._lookup(key)
        if ctx.pid == self._current:
            ctx.save_from(self._machine())
        return ctx

    def process_stats(self, key: Union[int, str]) -> tuple[int, float]:
        """Return (app instructions, cycles) charged to a process."""
        self._account_slice()
        ctx = self._lookup(key)
        return (self._proc_instructions[ctx.pid],
                self._proc_cycles[ctx.pid])

    def _lookup(self, key: Union[int, str]) -> ProcessContext:
        if isinstance(key, int):
            try:
                return self._contexts[key]
            except KeyError:
                raise SimulationError(f"no process with pid {key}") from None
        for ctx in self._contexts.values():
            if ctx.name == key:
                return ctx
        raise SimulationError(f"no process named {key!r}")

    # -- the run loop ------------------------------------------------------

    def run(self, limit: int) -> None:
        """Drive the machine until every process halts (or the
        machine-wide application-instruction ``limit`` is reached, or a
        debugger stop hands control to the user)."""
        m = self._machine()
        while True:
            if m.halted:
                if not self._reap_current():
                    break  # last process exited: machine stays halted
                continue
            m._run_core(limit)
            if m.stopped_at_user:
                break
            if m.pending_trap is not None:
                cause = m.pending_trap
                m.pending_trap = None
                self._service(cause)
                continue
            if m.halted:
                continue  # reap at loop top
            break  # run limit reached
        self._account_slice()

    def _service(self, cause: int) -> None:
        """Handle a trap latched for the host (no guest trap vector)."""
        m = self._machine()
        if cause == CAUSE_TIMER:
            self.preemptions += 1
            m.kernel_mode = False
            self._switch()
        elif cause == CAUSE_SYSCALL:
            self.syscalls += 1
            num = m.trap_value
            m.kernel_mode = False
            if num == SYS_GETPID:
                m.regs[1] = self._current
            elif num == SYS_EXIT:
                m.halted = True  # reaped by the run loop
            elif num == SYS_YIELD:
                self._switch()
            # Unknown syscall numbers are a no-op, matching the
            # standalone machine's inline emulation.
        else:
            raise SimulationError(f"unserviceable trap cause {cause}")

    # -- switching ---------------------------------------------------------

    def _switch(self) -> None:
        """End the current quantum; schedule the next runnable process."""
        m = self._machine()
        if len(self._queue) <= 1:
            m.timer_deadline = -1  # sole runnable process: fresh quantum
            return
        self._account_slice()
        self._queue.append(self._queue.pop(0))
        self._activate(self._contexts[self._queue[0]], save_current=True)

    def _reap_current(self) -> bool:
        """The current process halted: retire it.  Returns False when
        no runnable process remains (the machine stays halted)."""
        self._account_slice()
        m = self._machine()
        pid = self._queue.pop(0) if self._queue else self._current
        self._contexts[pid].save_from(m)  # final state, halted=True
        if not self._queue:
            return False
        self._activate(self._contexts[self._queue[0]], save_current=False)
        return True

    def _activate(self, ctx: ProcessContext, save_current: bool) -> None:
        m = self._machine()
        if save_current:
            self._contexts[self._current].save_from(m)
        ctx.load_into(m)
        self._current = ctx.pid
        m.timer_deadline = -1  # the new slice arms a fresh quantum
        if m.timing is not None:
            m.timing.context_switch()
        m.dise_controller.context_switch(ctx.name)
        self.context_switches += 1

    # -- accounting --------------------------------------------------------

    def _machine_cycles(self) -> float:
        m = self._machine()
        if m.timing is not None:
            return m.timing.cycles
        return float(m.stats.total_instructions)

    def _account_slice(self) -> None:
        """Charge the machine's progress since the last boundary to the
        current process.  Idempotent (the delta drops to zero)."""
        app = self._machine().stats.app_instructions
        cycles = self._machine_cycles()
        self._proc_instructions[self._current] += app - self._slice_start_app
        self._proc_cycles[self._current] += cycles - self._slice_start_cycles
        self._slice_start_app = app
        self._slice_start_cycles = cycles

    # -- snapshots ---------------------------------------------------------
    #
    # The kernel snapshots *inside* Machine.snapshot(): scheduler state
    # plus every inactive context.  The current process's state is the
    # machine's and rides in the machine's own per-process fields.

    def snapshot(self) -> dict:
        """Scheduler state plus every inactive process context."""
        self._account_slice()
        return {
            "current": self._current,
            "queue": list(self._queue),
            "next_pid": self._next_pid,
            "contexts": {pid: process.snapshot(ctx)
                         for pid, ctx in self._contexts.items()
                         if pid != self._current},
            "accounting": (dict(self._proc_instructions),
                           dict(self._proc_cycles),
                           self._slice_start_app,
                           self._slice_start_cycles),
            "counters": (self.context_switches, self.preemptions,
                         self.syscalls),
        }

    def restore(self, blob: dict) -> None:
        """Rewind the schedule and every inactive process.

        Runs first in :meth:`Machine.restore`: the snapshot's current
        process becomes the live one by raw reference swap, so the
        machine's per-process fields then restore into its memory and
        page table.  No timing charge and no DISE re-gating — the
        machine restores timing and engine state wholesale from the
        snapshot, which captured them already gated for this process.
        """
        target = blob["current"]
        if target != self._current:
            m = self._machine()
            self._contexts[self._current].save_from(m)
            self._contexts[target].load_into(m)
            self._current = target
        for pid, ctx_blob in blob["contexts"].items():
            process.restore(self._contexts[pid], ctx_blob)
        self._queue = list(blob["queue"])
        self._next_pid = blob["next_pid"]
        (instructions, cycles, slice_app, slice_cycles) = blob["accounting"]
        self._proc_instructions = dict(instructions)
        self._proc_cycles = dict(cycles)
        self._slice_start_app = slice_app
        self._slice_start_cycles = slice_cycles
        (self.context_switches, self.preemptions,
         self.syscalls) = blob["counters"]

    def state_fingerprint(self) -> str:
        """Digest of scheduler state plus every *inactive* process.

        The current process's state is covered by the machine's own
        fingerprint (which calls this), so it is excluded here — the
        combined digest covers every process exactly once.
        """
        digest = hashlib.sha256()
        digest.update(repr((self._current, tuple(self._queue),
                            self._next_pid)).encode())
        for pid in sorted(self._contexts):
            if pid == self._current:
                continue
            digest.update(f"{pid}:".encode())
            digest.update(self._contexts[pid].state_fingerprint().encode())
        return digest.hexdigest()
