"""Hardware watchpoint registers.

"The debugger loads these with the addresses of the variables in the
watched expression, and the processor traps on a store to any of these
addresses" (paper Section 2).  Matching is quad-granularity: a store to
a different part of the same quad as a partially watched datum is a
spurious address transition.  Silent stores to watched data are spurious
*value* transitions — the hardware cannot see values, only addresses —
which is the mechanism's weakness the paper highlights for HOT
watchpoints.

The register count defaults to four (IA-32/IA-64).  When watchpoints
need more addresses than there are registers, the surplus falls back to
virtual-memory protection, matching the configuration of the paper's
Figure 6 ("The hardware mechanism uses virtual memory for every
watchpoint after the fourth").

Indirect and non-scalar (range) expressions are rejected: "there is
also no experiment for the large watchpoint RANGE.  Hardware registers
are principally used to watch scalars."
"""

from __future__ import annotations

from repro.cpu.machine import (BREAKPOINT, HW_WATCHPOINT, PAGE_FAULT,
                               TrapEvent)
from repro.cpu.stats import NONE, TransitionKind
from repro.debugger.backends.base import COUNTS, DebuggerBackend, Option
from repro.debugger.watchpoint import Watchpoint
from repro.errors import UnsupportedWatchpointError
from repro.memory.pagetable import PAGE_READ

QUAD = 8


class HardwareRegisterBackend(DebuggerBackend):
    """Quad-granularity hardware watchpoint registers (+ VM fallback)."""

    name = "hardware"
    OPTIONS = {**DebuggerBackend.OPTIONS,
               "num_registers": Option(int, 4, COUNTS)}

    def prepare(self) -> None:
        """Assign registers (quad-aligned); overflow falls back to VM."""
        self.num_registers: int = self.option("num_registers")
        # (precise_lo, precise_hi, wp) for each register-watched datum.
        self._register_ranges: list[tuple[int, int, Watchpoint]] = []
        # Ranges covered by the VM fallback.
        self._vm_ranges: list[tuple[int, int, Watchpoint]] = []
        registers_used = 0
        for wp in self.watchpoints:
            if not wp.is_static:
                raise UnsupportedWatchpointError(
                    f"hardware registers cannot watch indirect expression "
                    f"{wp.expression}")
            if wp.is_range:
                raise UnsupportedWatchpointError(
                    f"hardware registers cannot watch non-scalar "
                    f"{wp.expression}; real debuggers fall back to virtual "
                    "memory or single-stepping")
            for address, size in wp.expression.addresses(self.resolver):
                if registers_used < self.num_registers:
                    registers_used += 1
                    quad_lo = address & ~(QUAD - 1)
                    quad_hi = ((address + size + QUAD - 1) & ~(QUAD - 1))
                    self.machine.hw_watch_ranges.append((quad_lo, quad_hi))
                    self._register_ranges.append(
                        (address, address + size, wp))
                else:
                    self._vm_ranges.append((address, address + size, wp))
                    self.machine.pagetable.mprotect(address, size, PAGE_READ)
        self.registers_used = registers_used

    def _classify_store(self, event: TrapEvent,
                        ranges: list[tuple[int, int, Watchpoint]]
                        ) -> TransitionKind:
        store_lo = event.address
        store_hi = event.address + event.size
        hits = [wp for lo, hi, wp in ranges
                if wp.enabled and store_lo < hi and store_hi > lo]
        return self.classify_store_hit(hits)

    def handle_trap(self, event: TrapEvent) -> TransitionKind:
        """Classify register matches and VM-fallback faults."""
        if event.kind is BREAKPOINT:
            return self.classify_breakpoint(event.pc)
        if event.kind is HW_WATCHPOINT:
            # The quad matched; was the precisely watched datum written?
            return self._classify_store(event, self._register_ranges)
        if event.kind is PAGE_FAULT:
            return self._classify_store(event, self._vm_ranges)
        return NONE
