"""Virtual-memory (mprotect) watchpoints.

"The debugger uses an interface like mprotect() to remove the write
permissions from the page on which the watched address resides.  The
virtual memory implementation can be used to watch an unlimited number
of addresses, but at the cost [of] spurious address transitions" (paper
Section 2).

Every store to a protected page faults into the debugger.  The fault is
a spurious *address* transition when the store did not touch watched
bytes (page-granularity false sharing — the dominant cost), a spurious
*value* transition on silent stores, a spurious *predicate* transition
when a conditional's predicate is false, and a user transition
otherwise.

Indirect expressions are rejected: "The debugger cannot statically
determine what pages to write-protect for a watchpoint expression
containing pointer dereferences" — and, as the paper notes, no
commercial debugger implements dynamic reprotection.
"""

from __future__ import annotations

from repro.cpu.machine import BREAKPOINT, PAGE_FAULT, TrapEvent
from repro.cpu.stats import NONE, TransitionKind
from repro.debugger.backends.base import DebuggerBackend
from repro.debugger.watchpoint import Watchpoint
from repro.errors import UnsupportedWatchpointError
from repro.memory.pagetable import PAGE_READ


class VirtualMemoryBackend(DebuggerBackend):
    """Write-protect the pages of watched data; classify each fault."""

    name = "virtual_memory"

    def prepare(self) -> None:
        """Write-protect every page holding watched data."""
        self._watched_ranges: list[tuple[int, int, Watchpoint]] = []
        for wp in self.watchpoints:
            self.protect_watchpoint(wp)

    def protect_watchpoint(self, wp: Watchpoint) -> None:
        """mprotect the pages referenced by one watchpoint."""
        if not wp.is_static:
            raise UnsupportedWatchpointError(
                f"virtual-memory watchpoints cannot watch indirect "
                f"expression {wp.expression}")
        for address, size in wp.expression.addresses(self.resolver):
            self._watched_ranges.append((address, address + size, wp))
            self.machine.pagetable.mprotect(address, size, PAGE_READ)

    def handle_trap(self, event: TrapEvent) -> TransitionKind:
        """Classify each page fault against the watched byte ranges."""
        if event.kind is BREAKPOINT:
            return self.classify_breakpoint(event.pc)
        if event.kind is not PAGE_FAULT:
            return NONE
        # The debugger services the fault (emulating the store) and asks:
        # did the store actually touch watched bytes?
        store_lo = event.address
        store_hi = event.address + event.size
        hits = [wp for lo, hi, wp in self._watched_ranges
                if wp.enabled and store_lo < hi and store_hi > lo]
        return self.classify_store_hit(hits)
