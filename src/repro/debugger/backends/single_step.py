"""Statement-granularity single-stepping.

The naive implementation (paper Section 2): "The application transfers
control to the debugger after every instruction (or source-level
statement), and checks whether any of the currently active breakpoints
or watchpoint criteria are satisfied before single-stepping to the next
instruction."  Every statement therefore incurs a debugger transition,
and nearly all of them are spurious — this is the 6,000–40,000x
slowdown baseline.
"""

from __future__ import annotations

from repro.cpu.machine import SINGLE_STEP, TrapEvent
from repro.cpu.stats import NONE, SPURIOUS_ADDRESS, USER, TransitionKind
from repro.debugger.backends.base import DebuggerBackend


class SingleStepBackend(DebuggerBackend):
    """Trap at every source statement; check everything in the debugger."""

    name = "single_step"
    uses_breakpoint_registers = False  # every statement is checked anyway

    def prepare(self) -> None:
        """Enable statement-granularity trapping on the machine."""
        self.machine.single_step = True

    def handle_trap(self, event: TrapEvent) -> TransitionKind:
        """Re-check every breakpoint and watchpoint at each statement."""
        if event.kind is not SINGLE_STEP:
            return NONE
        # Breakpoints are checked first: the statement address itself.
        if event.pc in self._breakpoint_pcs:
            outcome = self.classify_breakpoint(event.pc)
            if outcome is USER:
                return outcome
        # Then every watched expression is re-evaluated in the debugger.
        if not self.watchpoints:
            return SPURIOUS_ADDRESS
        return self.monitor.check_all()
