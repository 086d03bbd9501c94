"""An iWatcher-style *programmatic* debugging interface on DISE.

The paper's related work (Section 6) discusses iWatcher [Zhou et al.,
ISCA 2004]: "a programming interface for registering with the processor
pairs of 'interesting' memory regions and fixed-interface callback
functions; when a program writes to (or reads from) a registered memory
region, the processor arranges for the registered function to be called
with arguments describing the access".  The authors argue: "We could
easily replace the iWatcher implementation with DISE — (almost)
anything one can do in hardware can also be done in software — with
comparable performance."

This module makes that argument concrete: :class:`IWatcher` offers the
iWatcher programming model — ``watch(region, callback)`` — implemented
entirely with DISE productions:

* every store is expanded with the serial/bounds address checks of the
  watchpoint backend;
* a match calls a DISE-generated stub that traps;
* the trap surfaces as a *callback invocation* carrying an
  :class:`AccessRecord` (address, size, value), rather than as a user
  transition.

Callbacks run "in the debugger" (host Python) and are accounted as
masked transitions, mirroring iWatcher's model where monitoring
functions are part of the instrumented program.  The paper's claimed
DISE advantage also shows up here: a callback can be *value-gated*
(``only_on_change=True``), pruning the spurious invocations iWatcher's
hardware cannot ("DISE can prune many spurious value and predicate
transitions without making a function call whereas iWatcher cannot").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import MachineConfig
from repro.cpu.machine import (Machine, MachineRun, TrapEvent, TrapKind,
                               WeakBoundMethod)
from repro.cpu.stats import TransitionKind
from repro.dise.pattern import Pattern
from repro.dise.production import Production
from repro.dise.template import TemplateInstruction, T
from repro.errors import DebuggerError
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import dise_reg

QUAD = 8
_DR_ADDR = dise_reg(1)
_DR_FLAG = dise_reg(2)
_DR_TMP = dise_reg(3)


@dataclass(frozen=True)
class AccessRecord:
    """Arguments delivered to a callback, iWatcher-style."""

    address: int
    size: int
    value: int
    pc: int
    region_base: int
    region_size: int


Callback = Callable[[AccessRecord], None]


@dataclass
class _Region:
    base: int
    size: int
    callback: Callback
    only_on_change: bool
    last_values: dict[int, int]
    invocations: int = 0
    suppressed: int = 0

    def contains(self, address: int, size: int) -> bool:
        return address < self.base + self.size and address + size > self.base


class IWatcher:
    """Register (region, callback) pairs over a machine's store stream."""

    def __init__(self, program: Program,
                 config: Optional[MachineConfig] = None):
        self.program = program
        self.machine = Machine(
            program, config,
            trap_handler=WeakBoundMethod(self._handle_trap))
        self._regions: list[_Region] = []
        self._production: Optional[Production] = None

    # -- registration -----------------------------------------------------

    def watch(self, base: int, size: int, callback: Callback,
              only_on_change: bool = False) -> None:
        """Monitor writes to [base, base+size); invoke ``callback``.

        With ``only_on_change`` the replacement sequence's handler
        discards silent stores before involving the callback — the
        value-pruning iWatcher's table-based hardware cannot do.
        """
        if size <= 0:
            raise DebuggerError(f"empty watch region at {base:#x}")
        seed = {}
        aligned = base & ~(QUAD - 1)
        end = base + size
        for quad_addr in range(aligned, end, QUAD):
            seed[quad_addr] = self.machine.memory.read_int(quad_addr, QUAD)
        self._regions.append(_Region(base, size, callback, only_on_change,
                                     seed))
        self._reinstall()

    def watch_symbol(self, name: str, callback: Callback,
                     only_on_change: bool = False) -> None:
        """Monitor a named program variable."""
        symbol = self.program.symbol(name)
        self.watch(symbol.address, symbol.size or QUAD, callback,
                   only_on_change)

    def unwatch(self, base: int) -> None:
        """Remove the region registered at ``base``."""
        self._regions = [r for r in self._regions if r.base != base]
        self._reinstall()

    # -- production generation -----------------------------------------------

    def _reinstall(self) -> None:
        controller = self.machine.dise_controller
        if self._production is not None:
            controller.uninstall(self._production)
            self._production = None
        if not self._regions:
            return
        self._production = Production(
            Pattern.stores(), self._sequence(), name="iwatcher")
        controller.install(self._production, principal="debugger")

    def _sequence(self) -> list[TemplateInstruction]:
        seq = [
            TemplateInstruction(whole=True),
            TemplateInstruction(Opcode.LDA, rd=_DR_ADDR, rs1=T.RS1,
                                imm=T.IMM),
            TemplateInstruction(Opcode.BIC, rd=_DR_ADDR, rs1=_DR_ADDR,
                                imm=QUAD - 1),
        ]
        for region in self._regions:
            lo = region.base & ~(QUAD - 1)
            hi = region.base + region.size
            if region.size <= QUAD:
                seq.append(TemplateInstruction(Opcode.CMPEQ, rd=_DR_FLAG,
                                               rs1=_DR_ADDR, imm=lo))
            else:
                seq.append(TemplateInstruction(Opcode.CMPULT, rd=_DR_FLAG,
                                               rs1=_DR_ADDR, imm=lo))
                seq.append(TemplateInstruction(Opcode.XOR, rd=_DR_FLAG,
                                               rs1=_DR_FLAG, imm=1))
                seq.append(TemplateInstruction(Opcode.CMPULT, rd=_DR_TMP,
                                               rs1=_DR_ADDR, imm=hi))
                seq.append(TemplateInstruction(Opcode.AND, rd=_DR_FLAG,
                                               rs1=_DR_FLAG, rs2=_DR_TMP))
            seq.append(TemplateInstruction(Opcode.CTRAP, rs1=_DR_FLAG))
        return seq

    # -- trap delivery -------------------------------------------------------

    def _handle_trap(self, event: TrapEvent) -> TransitionKind:
        if event.kind is not TrapKind.TRAP:
            return TransitionKind.NONE
        machine = self.machine
        address = machine.last_store_addr
        size = machine.last_store_size
        value = machine.last_store_value
        delivered = False
        for region in self._regions:
            if not region.contains(address, size):
                continue
            if region.only_on_change:
                quad_addr = address & ~(QUAD - 1)
                current = machine.memory.read_int(quad_addr, QUAD)
                if region.last_values.get(quad_addr) == current:
                    region.suppressed += 1
                    continue
                region.last_values[quad_addr] = current
            region.invocations += 1
            region.callback(AccessRecord(address, size, value, event.pc,
                                         region.base, region.size))
            delivered = True
        # Callback invocations are the *product* of the interface, not
        # wasted work: account them as masked transitions.
        return TransitionKind.USER if delivered else TransitionKind.NONE

    # -- execution ----------------------------------------------------------------

    def run(self, max_app_instructions: Optional[int] = None) -> MachineRun:
        """Run the monitored program (callbacks fire along the way)."""
        return self.machine.run(max_app_instructions)

    @property
    def total_invocations(self) -> int:
        return sum(region.invocations for region in self._regions)

    @property
    def total_suppressed(self) -> int:
        return sum(region.suppressed for region in self._regions)
