"""Static binary rewriting watchpoints (paper Section 5.1, Figure 5).

The rewriter statically inlines the address-check sequence of Figure 2c
at every store site in the program, retargets every branch across the
inserted code, and appends the (conventional-calling) expression
evaluation handler plus the debugger data region.  Unlike DISE:

* the inserted instructions are *fetched*, so they consume I-cache
  capacity and fetch bandwidth — the effect that dominates Figure 5 for
  programs with large instruction footprints;
* the transformation needs scavenged registers.  The rewriter here is
  told two registers that are dead throughout the program (the paper's
  rewriters obtain this via liveness analysis or re-compilation); a
  ``spill_mode`` option instead saves/restores two registers around
  every check through the debugger save area, modeling a rewriter
  without liveness information;
* the transformation itself has a startup cost, reported as
  ``rewrite_sites``/``inserted_instructions`` (the paper excludes it
  from its graphs but calls it out in the text).

Transitions behave like DISE's: value and predicate tests happen inside
the application, so every trap is a user transition.
"""

from __future__ import annotations

from repro.cpu.machine import BREAKPOINT, TRAP, TrapEvent
from repro.cpu.stats import NONE, USER, TransitionKind
from repro.debugger.backends.base import DebuggerBackend, Option
from repro.debugger.backends.codegen import DebugCodeGenerator, LINK
from repro.debugger.expressions import ProgramResolver
from repro.errors import DebuggerError, UnsupportedWatchpointError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, OpClass
from repro.isa.program import INSTRUCTION_BYTES, Program, TEXT_BASE
from repro.isa.registers import NUM_GPRS, SP, ZERO_REG

_USABLE = [reg for reg in range(NUM_GPRS) if reg not in (SP, ZERO_REG)]
#: The scratch pairs the inline check works with: two distinct GPRs
#: (one holds the store address while the other takes each compare),
#: neither the zero register nor the stack pointer, which no program
#: leaves dead.
SCRATCH_PAIRS = frozenset((s1, s2) for s1 in _USABLE for s2 in _USABLE
                          if s1 != s2)


class BinaryRewriteBackend(DebuggerBackend):
    """Inline the watchpoint check at every store, statically."""

    name = "binary_rewrite"
    transforms_program = True
    OPTIONS = {
        **DebuggerBackend.OPTIONS,
        "scratch_registers": Option(tuple, (27, 28), SCRATCH_PAIRS),
        "spill_mode": Option(bool, False),
    }

    def transform_program(self, program: Program) -> Program:
        """Statically rewrite every store site and append the handler."""
        self.scratch: tuple[int, int] = tuple(
            self.option("scratch_registers"))
        self.spill_mode: bool = self.option("spill_mode")

        rewritten = program  # already a private copy (see base class)
        rewritten.name = f"{program.name}+rewritten"
        resolver = ProgramResolver(rewritten)
        gen = DebugCodeGenerator(rewritten, self.watchpoints, resolver,
                                 region_name="__rw_region",
                                 handler_label="__rw_handler",
                                 error_label="__rw_error")
        self.codegen = gen
        for entry in gen.entries:
            if entry.kind == "indirect":
                raise UnsupportedWatchpointError(
                    "binary rewriting cannot watch indirect expressions")

        gen.plan_region()
        # The data region is appended with initializers; the machine
        # loads them with the rest of the data segment.
        gen.install_region()
        # Rewrite first (call sites reference the handler by label), then
        # append the handler; install_handler() finalizes, resolving the
        # symbolic call targets.
        self._rewrite_stores(rewritten, gen)
        gen.install_handler(flavor="conventional")
        return rewritten

    # -- the rewrite pass -------------------------------------------------------

    def _rewrite_stores(self, program: Program,
                        gen: DebugCodeGenerator) -> None:
        """Insert the inline check at every store; retarget branches."""
        old = program.instructions

        # Pass 1: compute each old instruction's new index.
        new_index_of: list[int] = []
        cursor = 0
        site_lengths: dict[int, int] = {}
        for index, inst in enumerate(old):
            new_index_of.append(cursor)
            if inst.info.opclass is OpClass.STORE:
                length = self._site_length(inst, gen)
                site_lengths[index] = length
                cursor += length
            else:
                cursor += 1
        new_index_of.append(cursor)  # end sentinel

        # Pass 2: emit, resolving inline-skip branches against final PCs.
        new_instructions: list[Instruction] = []
        instrumentation: set[int] = set()
        self.rewrite_sites = 0
        store_slot = 2 if self.spill_mode else 0  # after the spills
        for index, inst in enumerate(old):
            if index in site_lengths:
                start = len(new_instructions)
                base_pc = TEXT_BASE + INSTRUCTION_BYTES * start
                seq = gen.inline_check(inst, base_pc, self.scratch)
                if self.spill_mode:
                    seq = self._with_spills(seq, gen)
                if len(seq) != site_lengths[index]:
                    raise DebuggerError("rewrite length mismatch")
                new_instructions.extend(seq)
                instrumentation.update(
                    TEXT_BASE + INSTRUCTION_BYTES * (start + slot)
                    for slot in range(len(seq)) if slot != store_slot)
                self.rewrite_sites += 1
            else:
                new_instructions.append(inst)
        self._instrumentation_pcs = instrumentation

        # Pass 3: retarget branches/calls of *original* instructions (a
        # retargeted copy: the original program shares the objects).
        pc_map = {
            TEXT_BASE + INSTRUCTION_BYTES * old_i:
                TEXT_BASE + INSTRUCTION_BYTES * new_i
            for old_i, new_i in enumerate(new_index_of[:-1])
        }
        emitted_site_pcs = self._site_pc_ranges(site_lengths, new_index_of)
        for new_i, inst in enumerate(new_instructions):
            if isinstance(inst.target, int):
                current_pc = TEXT_BASE + INSTRUCTION_BYTES * new_i
                if self._inside_site(current_pc, emitted_site_pcs):
                    continue  # inline-check internal branch: already final
                if inst.target in pc_map:
                    retargeted = new_instructions[new_i] = inst.copy()
                    retargeted.target = pc_map[inst.target]

        # Pass 4: remap labels and statement boundaries.
        program.labels = {name: new_index_of[idx]
                          for name, idx in program.labels.items()}
        program.statement_starts = {new_index_of[idx]
                                    for idx in program.statement_starts}
        program.instructions = new_instructions
        self.inserted_instructions = (len(new_instructions) - len(old))
        self._app_text_end_index = len(new_instructions)

    def prepare(self) -> None:
        # The inline checks and the appended handler commit and cost
        # cycles, but are instrumentation: they must not count toward
        # application-instruction run limits.
        """Mark inserted code as instrumentation for fair run limits."""
        handler_pcs = {
            TEXT_BASE + INSTRUCTION_BYTES * index
            for index in range(self._app_text_end_index, len(self.program))
        }
        self.machine.instrumentation_pcs = frozenset(
            self._instrumentation_pcs | handler_pcs)

    def _site_length(self, store: Instruction,
                     gen: DebugCodeGenerator) -> int:
        length = len(gen.inline_check(store, TEXT_BASE, self.scratch))
        if self.spill_mode:
            length += 4  # two spills + two restores
        return length

    def _with_spills(self, seq: list[Instruction],
                     gen: DebugCodeGenerator) -> list[Instruction]:
        """Wrap the check in save/restore of the scratch registers.

        Models a rewriter without liveness information; note the spill
        slots live in the debugger region (indices 4 and 5 of the save
        area, unused by the handler).
        """
        s1, s2 = self.scratch
        save = gen.save_base + 4 * 8
        prologue = [
            Instruction(Opcode.STQ, rd=s1, rs1=31, imm=save),
            Instruction(Opcode.STQ, rd=s2, rs1=31, imm=save + 8),
        ]
        epilogue = [
            Instruction(Opcode.LDQ, rd=s1, rs1=31, imm=save),
            Instruction(Opcode.LDQ, rd=s2, rs1=31, imm=save + 8),
        ]
        # Branch targets inside seq shift by len(prologue).
        for inst in seq:
            if isinstance(inst.target, int) and inst.target >= TEXT_BASE:
                inst.target += INSTRUCTION_BYTES * len(prologue)
        return prologue + seq + epilogue

    @staticmethod
    def _site_pc_ranges(site_lengths: dict[int, int],
                        new_index_of: list[int]) -> list[tuple[int, int]]:
        ranges = []
        for old_i, length in site_lengths.items():
            start = TEXT_BASE + INSTRUCTION_BYTES * new_index_of[old_i]
            ranges.append((start, start + INSTRUCTION_BYTES * length))
        ranges.sort()
        return ranges

    @staticmethod
    def _inside_site(pc: int, ranges: list[tuple[int, int]]) -> bool:
        # Binary search over disjoint sorted ranges.
        lo, hi = 0, len(ranges)
        while lo < hi:
            mid = (lo + hi) // 2
            start, end = ranges[mid]
            if pc < start:
                hi = mid
            elif pc >= end:
                lo = mid + 1
            else:
                return True
        return False

    # -- trap handling ------------------------------------------------------------

    def handle_trap(self, event: TrapEvent) -> TransitionKind:
        """Classify traps: handler traps are user transitions."""
        if event.kind is BREAKPOINT:
            return self.classify_breakpoint(event.pc)
        if event.kind is not TRAP:
            return NONE
        # The inlined handler traps only on a real, predicate-approved
        # value change.
        self.monitor.capture_all()
        return USER
