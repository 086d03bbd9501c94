"""A minimal kernel: processes, a preemption timer, and syscalls.

The paper's machine runs one user-level program.  This package grows it
into a kernel-grade machine: several programs time-share one core under
a round-robin scheduler, entering the kernel through the trap
architecture (``syscall``/``eret``, the preemption timer) defined by
:mod:`repro.cpu.machine`.

The design keeps the scheduler *outside* the hot interpreter loops:
the machine clips each run slice to the timer deadline (exactly like a
checkpoint boundary), so preemption points land between instructions at
deterministic application-instruction counts on every interpreter tier,
at zero per-instruction cost.  The kernel itself is host code — it
services the latched trap cause between slices, swaps per-process
state by object reference (:class:`ProcessContext`, defined next to the
machine in :mod:`repro.cpu.process`), and re-gates the DISE engine so
productions targeting one process are never even probed by another
(cross-process debugging with near-zero overhead on the non-target,
paper Section 3's permission policy made mechanical).
"""

from repro.cpu.process import ProcessContext
from repro.kernel.scheduler import DEFAULT_QUANTUM, Kernel

__all__ = ["DEFAULT_QUANTUM", "Kernel", "ProcessContext"]
