"""The DISE-based debugger backend (paper Section 4).

Watchpoints become store-matching productions; breakpoints become
PC-matching (or codeword) productions; conditions are compiled either
into the debugger-generated function or directly into replacement
sequences.  All value and predicate tests run *inside the application*,
so the only traps that reach the debugger are real user transitions —
DISE "eliminates all unnecessary context switching".

Options (keyword arguments accepted by the constructor / the session):

``check``
    Replacement-sequence organization, the Figure 7 axis:
    ``"match-address"`` (default; Figure 2c/d — cheap address test,
    expression evaluated in a called function), ``"evaluate-expression"``
    (Figure 2a/b — expression re-evaluated inline after every store), or
    ``"match-address-value"`` (address and value tested inline; scalars
    with uniform store sizes only).
``conditional_isa``
    Whether the DISE-ISA conditional call/trap extension is available
    (the other Figure 7 axis).  Without it, DISE branches skip
    unconditional calls/traps, flushing the pipeline in the common case.
``multi_strategy``
    Address-check strategy for ``match-address``: ``"auto"``,
    ``"serial"``, ``"bloom-byte"``, or ``"bloom-bit"`` (Figure 6).
    ``auto`` uses serial matching up to four addresses, then the
    bytewise Bloom filter.
``protect``
    Guard the debugger's embedded data region with the Figure 2f
    production (evaluated in Figure 9).
``prune_stack_stores``
    Install the more-specific identity production for stores through
    the stack pointer (Section 4.2's pattern-matching optimization);
    only legal when no watched data lives on the stack.
``breakpoint_codewords``
    Realize breakpoints by patching a codeword over the breakpoint
    instruction (the paper's first breakpoint flavour) instead of a PC
    pattern (the second).
"""

from __future__ import annotations

from repro.cpu.machine import TRAP, TrapEvent
from repro.cpu.stats import NONE, USER, TransitionKind
from repro.debugger.backends.base import DebuggerBackend, Option
from repro.debugger.backends.codegen import (DAR_BASE, DPV_BASE,
                                             DebugCodeGenerator)
from repro.debugger.expressions import Constant
from repro.dise.pattern import Pattern
from repro.dise.production import Production, identity_production
from repro.dise.template import TemplateInstruction, template
from repro.errors import DebuggerError, UnsupportedWatchpointError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import SP, ZERO_REG, dise_reg

_SERIAL_LIMIT = 4  # beyond this, "auto" switches to the Bloom filter


class DiseBackend(DebuggerBackend):
    """Dynamic instrumentation through DISE productions."""

    name = "dise"
    transforms_program = False  # appends only; existing code untouched
    uses_breakpoint_registers = False  # breakpoints are productions
    OPTIONS = {
        **DebuggerBackend.OPTIONS,
        "check": Option(str, "match-address", (
            "match-address", "evaluate-expression", "match-address-value")),
        "conditional_isa": Option(bool, True),
        "multi_strategy": Option(str, "auto", (
            "auto", "serial", "bloom-byte", "bloom-bit")),
        "protect": Option(bool, False),
        "prune_stack_stores": Option(bool, False),
        "breakpoint_codewords": Option(bool, False),
    }

    def prepare(self) -> None:
        """Generate data/code and install the watchpoint/breakpoint productions."""
        self.check: str = self.option("check")
        self.conditional_isa: bool = self.option("conditional_isa")
        self.multi_strategy: str = self.option("multi_strategy")
        self.protect: bool = self.option("protect")
        self.prune_stack_stores: bool = self.option("prune_stack_stores")
        self.breakpoint_codewords: bool = self.option("breakpoint_codewords")

        self.codegen: DebugCodeGenerator | None = None
        self._handler_traps = 0
        self._error_traps = 0
        self._false_positive_calls = 0
        self._error_pcs: set[int] = set()
        self._mav_entries_by_addr: dict[int, object] = {}

        if self.watchpoints:
            self._prepare_watchpoints()
        if self.breakpoints:
            self._prepare_breakpoints()

    # -- watchpoints -----------------------------------------------------------

    def _prepare_watchpoints(self) -> None:
        machine = self.machine
        gen = DebugCodeGenerator(self.program, self.watchpoints,
                                 self.resolver)
        self.codegen = gen

        strategy = self._resolve_strategy(gen)
        use_bloom = strategy in ("bloom-byte", "bloom-bit")
        gen.plan_region(use_bloom=use_bloom,
                        bitwise=(strategy == "bloom-bit"))
        gen.install_region(machine.memory)

        needs_handler = self.check == "match-address"
        if needs_handler:
            gen.install_handler(flavor="dise")
        if self.protect:
            gen.install_error_handler()
            self._error_pcs.add(gen.error_pc)

        sequence = self._build_sequence(gen, strategy)
        production = Production(Pattern.stores(), sequence,
                                name=f"watch-{self.check}-{strategy}")
        machine.dise_controller.install(production, principal="debugger")

        if self.prune_stack_stores:
            self._install_stack_pruning(machine)

        self._init_dise_registers(gen)

    def _resolve_strategy(self, gen: DebugCodeGenerator) -> str:
        if self.check != "match-address":
            return "serial"
        if self.multi_strategy != "auto":
            return self.multi_strategy
        addresses = sum(len(e.terms) or 1 for e in gen.entries)
        return "serial" if addresses <= _SERIAL_LIMIT else "bloom-byte"

    def _build_sequence(self, gen: DebugCodeGenerator,
                        strategy: str) -> list[TemplateInstruction]:
        if self.check == "match-address":
            if strategy in ("bloom-byte", "bloom-bit"):
                if self.protect:
                    raise DebuggerError(
                        "protection is implemented for the serial "
                        "match-address sequence only")
                return gen.seq_bloom(bytewise=(strategy == "bloom-byte"),
                                     conditional_isa=self.conditional_isa)
            return gen.seq_match_address(
                conditional_isa=self.conditional_isa, protect=self.protect)
        if self.check == "evaluate-expression":
            return gen.seq_evaluate_expression(
                conditional_isa=self.conditional_isa)
        if self.check == "match-address-value":
            seq = gen.seq_match_address_value(
                conditional_isa=self.conditional_isa)
            for entry in gen.entries:
                addr, _ = entry.terms[0]
                self._mav_entries_by_addr[addr] = entry
            return seq
        raise DebuggerError(f"unknown check variant {self.check!r}")

    def _install_stack_pruning(self, machine) -> None:
        for wp in self.watchpoints:
            for addr, _size in wp.expression.addresses(self.resolver,
                                                       machine.memory):
                page = machine.pagetable.page_number(addr)
                # Conservative test: refuse if watched data could be on a
                # stack page ("The same technique cannot be used if ...
                # stack variables are watched").
                if addr >= 0x7000_0000:
                    raise DebuggerError(
                        "cannot prune stack stores: watched data at "
                        f"{addr:#x} lives on the stack (page {page})")
        machine.dise_controller.install(
            identity_production(Pattern.stores(base_register=SP),
                                name="stack-store-identity"),
            principal="debugger")

    def _init_dise_registers(self, gen: DebugCodeGenerator) -> None:
        machine = self.machine
        memory = machine.memory
        for entry in gen.entries:
            if entry.kind == "indirect":
                target = memory.read_int(entry.pointer_addr, 8)
                machine.dise_regs.write(entry.dar_index, target & ~7)
            if self.check in ("evaluate-expression", "match-address-value"):
                value = entry.wp.expression.evaluate(self.resolver, memory)
                machine.dise_regs.write(entry.dpv_index, value)
                if entry.kind == "scalar" and len(gen.entries) == 1:
                    # Faithful Figure 2a form: dar holds the address.
                    machine.dise_regs.write(DAR_BASE, entry.terms[0][0])

    # -- breakpoints ---------------------------------------------------------------

    def _prepare_breakpoints(self) -> None:
        machine = self.machine
        for bp in self.breakpoints:
            pc = bp.resolve_pc(self.program)
            index = self.program.index_of_pc(pc)
            original = self.program.instructions[index]
            replacement = self._breakpoint_sequence(bp, original)
            if self.breakpoint_codewords:
                # First flavour: patch a codeword over the instruction;
                # the production matches the codeword.
                codeword_id = bp.number or (index + 1)
                self.program.instructions[index] = Instruction(
                    Opcode.CODEWORD, imm=codeword_id)
                pattern = Pattern.for_codeword(codeword_id)
            else:
                # Second flavour: a PC pattern, like a breakpoint register.
                pattern = Pattern.at_pc(pc)
            machine.dise_controller.install(
                Production(pattern, replacement,
                           name=f"breakpoint@{pc:#x}"),
                principal="debugger")

    def _breakpoint_sequence(self, bp, original: Instruction
                             ) -> list[TemplateInstruction]:
        """Trap (possibly conditionally) then run the original instruction.

        Conditional breakpoints compile the condition directly into the
        replacement sequence (Section 4.3) using DISE registers as
        temporaries.
        """
        original_slot = (TemplateInstruction(whole=True)
                         if not self.breakpoint_codewords
                         else _literal_slot(original))
        if bp.condition is None:
            return [template(Opcode.TRAP), original_slot]
        condition = bp.condition
        left = condition.left
        if not hasattr(left, "name") or not isinstance(condition.right,
                                                       Constant):
            raise UnsupportedWatchpointError(
                "DISE conditional breakpoints support 'variable OP "
                "constant' conditions")
        addr, size = self.resolver.resolve(left.name)
        dr1 = dise_reg(1)
        seq: list[TemplateInstruction] = [
            template(Opcode.LDQ, rd=dr1, rs1=ZERO_REG, imm=addr),
        ]
        seq.extend(_compare_templates(condition.op, dr1,
                                      condition.right.value))
        if self.conditional_isa:
            seq.append(template(Opcode.CTRAP, rs1=dr1))
        else:
            seq.append(template(Opcode.D_BEQ, rs1=dr1, imm=1))
            seq.append(template(Opcode.TRAP))
        seq.append(original_slot)
        return seq

    # -- snapshots ---------------------------------------------------------------

    def _snapshot_extra(self):
        # The production set, DISE registers, and handler-region memory
        # ride in the machine snapshot; only the backend's own trap
        # counters mutate after prepare().
        return (self._handler_traps, self._error_traps,
                self._false_positive_calls)

    def _restore_extra(self, extra) -> None:
        (self._handler_traps, self._error_traps,
         self._false_positive_calls) = extra

    # -- trap handling -----------------------------------------------------------

    def handle_trap(self, event: TrapEvent) -> TransitionKind:
        """Classify traps: in-app checks mean every trap invokes the user."""
        if event.kind is not TRAP:
            return NONE
        if event.pc in self._error_pcs:
            # The protection production caught a wild store into the
            # debugger's region: a real (user-visible) error stop.
            self._error_traps += 1
            return USER
        self._handler_traps += 1
        # In-application code already established that a watched value
        # changed and the predicate holds; this transition invokes the
        # user.  The debugger refreshes its own mirrors during the
        # (free) user transition.
        if self.check == "match-address-value":
            entry = self._mav_entries_by_addr.get(event.address)
            if entry is not None:
                self.machine.dise_regs.write(entry.dpv_index, event.value)
        self.monitor.capture_all()
        return USER


def _literal_slot(inst: Instruction) -> TemplateInstruction:
    from repro.dise.template import literal
    return literal(inst)


def _compare_templates(op: str, reg: int, rhs: int
                       ) -> list[TemplateInstruction]:
    out = []
    if op in ("==", "!="):
        out.append(template(Opcode.CMPEQ, rd=reg, rs1=reg, imm=rhs))
        if op == "!=":
            out.append(template(Opcode.XOR, rd=reg, rs1=reg, imm=1))
    elif op in ("<", ">="):
        out.append(template(Opcode.CMPLT, rd=reg, rs1=reg, imm=rhs))
        if op == ">=":
            out.append(template(Opcode.XOR, rd=reg, rs1=reg, imm=1))
    elif op in ("<=", ">"):
        out.append(template(Opcode.CMPLE, rd=reg, rs1=reg, imm=rhs))
        if op == ">":
            out.append(template(Opcode.XOR, rd=reg, rs1=reg, imm=1))
    else:
        raise UnsupportedWatchpointError(f"unsupported comparison {op!r}")
    return out
