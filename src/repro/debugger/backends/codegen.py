"""Debugger code generation.

The debugger "does not need to modify the application binary, except in
two well-defined and simple ways, i.e., appending a dynamically-
generated function and small data region to the application's text and
data segments" (paper Section 4.4).  This module generates both, plus
the DISE replacement sequences (Figure 2 variants) and the statically
inlined check sequence used by the binary-rewriting backend.

Pieces generated per watchpoint set:

* **Data region** (:class:`DebugDataRegion`): a register save area, one
  32-byte entry per watchpoint (watched address, previous expression
  value, auxiliary fields), mirrors for range watchpoints, and the
  optional Bloom filter.  The whole region is sized/aligned to a power
  of two so the protection production (Figure 2f) can identify it by
  its high address bits.
* **Debugger-generated function** (Figure 2e): re-evaluates every
  watched expression, updates the stored previous values, evaluates
  compiled-in conditions, and traps only when the user must be invoked.
  Two flavours: ``dise`` (entered by ``d_call``/``d_ccall``, may use
  ``d_mfr``/``d_mtr``, returns with ``d_ret``) and ``conventional``
  (entered by ``jsr r28``, returns with ``ret r28``) for the
  binary-rewriting backend.  The function treats all registers as
  callee-saved, spilling its temporaries to the save area through
  zero-based absolute addressing (calls to it are not set up by the
  application's compiler).
* **Replacement sequences** (Figure 2 a-d/f and the Figure 6 Bloom
  variants), as template-instruction lists ready to wrap in a
  :class:`~repro.dise.production.Production`.

Deviations from the paper's exact listings, chosen for a clean ISA:

* watched addresses and bounds are baked into replacement sequences as
  64-bit literals (the paper holds them in DISE registers; both live in
  the replacement table, and literals free DISE registers for many
  watchpoints);
* ``ctrap`` traps on *non-zero*, so sequences carry one extra ``xor``
  to invert an equality test where the paper fuses it;
* the evaluate-expression sequence updates the previous-value register
  inline (``mov``) instead of relying on the debugger to refresh it
  during the user transition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.debugger.expressions import (BinaryOp, Comparison, Constant,
                                        Expression, Indirect, Range,
                                        Variable)
from repro.debugger.watchpoint import Watchpoint
from repro.dise.template import T, TemplateInstruction
from repro.errors import DebuggerError, UnsupportedWatchpointError
from repro.isa.builder import CodeBuilder
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (LOAD_FOR_SIZE, STORE_FOR_SIZE, Opcode)
from repro.isa.program import INSTRUCTION_BYTES, Program
from repro.isa.registers import ZERO_REG, dise_reg
from repro.memory.main_memory import MainMemory

# Temporaries used inside generated functions (t0-t3 in the paper's
# Figure 2e); always spilled/restored to the save area.
T0, T1, T2, T3 = 1, 2, 3, 4
# Link register for the conventional-flavour handler (binary rewriting).
LINK = 28

# DISE register allocation for replacement sequences.
DR_ADDR = dise_reg(1)  # computed store address
DR_FLAG = dise_reg(2)  # comparison result
DR_TMP = dise_reg(3)  # second temporary
DAR_BASE = 4  # dise_reg(4 + i): dynamic watched addresses (indirect)
DPV_BASE = 8  # dise_reg(8 + i): previous values (eval-expr variants)

BLOOM_BYTES = 2048
QUAD = 8
ENTRY_BYTES = 32
SAVE_AREA_BYTES = 6 * QUAD


def _template(opcode, **fields) -> TemplateInstruction:
    return TemplateInstruction(opcode, **fields)


def _original() -> TemplateInstruction:
    return TemplateInstruction(whole=True)


@dataclass
class WatchEntry:
    """One watchpoint analyzed for code generation."""

    wp: Watchpoint
    kind: str  # "scalar" | "complex" | "indirect" | "range"
    index: int
    offset: int = 0  # entry offset within the data region
    # Scalar/complex: (address, size) terms referenced by the expression.
    terms: list[tuple[int, int]] = field(default_factory=list)
    # Indirect: the pointer's own address.
    pointer_addr: int = 0
    # Range: [lo, hi) and the mirror offset within the region.
    range_lo: int = 0
    range_hi: int = 0
    mirror_offset: int = 0
    # DISE register holding the dynamic watched address (indirect only).
    dar_index: int = -1

    @property
    def dpv_index(self) -> int:
        return DPV_BASE + self.index


class DebugCodeGenerator:
    """Generates the debugger's embedded data and code."""

    def __init__(self, program: Program, watchpoints: list[Watchpoint],
                 resolver, region_name: str = "__dbg_region",
                 handler_label: str = "__dbg_handler",
                 error_label: str = "__dbg_error"):
        self.program = program
        self.watchpoints = watchpoints
        self.resolver = resolver
        self.region_name = region_name
        self.handler_label = handler_label
        self.error_label = error_label
        self.entries: list[WatchEntry] = []
        self.uses_bloom = False
        self.bloom_bitwise = False
        self.data_base = 0
        self.data_size = 0
        self.segment_shift = 0
        self.handler_pc: Optional[int] = None
        self.error_pc: Optional[int] = None
        self._analyze()

    # -- analysis -------------------------------------------------------------

    def _analyze(self) -> None:
        next_dar = DAR_BASE
        for index, wp in enumerate(self.watchpoints):
            expr = wp.expression
            if isinstance(expr, Range):
                (lo, length), = expr.addresses(self.resolver)
                entry = WatchEntry(wp, "range", index,
                                   range_lo=lo, range_hi=lo + length)
            elif isinstance(expr, Indirect):
                pointer_addr, _ = self.resolver.resolve(expr.pointer)
                entry = WatchEntry(wp, "indirect", index,
                                   pointer_addr=pointer_addr,
                                   dar_index=next_dar)
                next_dar += 1
            elif isinstance(expr, Variable):
                entry = WatchEntry(wp, "scalar", index,
                                   terms=expr.addresses(self.resolver))
            elif isinstance(expr, (BinaryOp, Constant)):
                entry = WatchEntry(wp, "complex", index,
                                   terms=expr.addresses(self.resolver))
            else:
                raise UnsupportedWatchpointError(
                    f"cannot generate code for expression {expr}")
            self.entries.append(entry)

    def watched_quads(self, memory: MainMemory) -> set[int]:
        """All quad numbers currently covered by the watch set."""
        quads: set[int] = set()
        for entry in self.entries:
            for lo, length in entry.wp.expression.addresses(
                    self.resolver, memory):
                for quad in range(lo >> 3, (lo + length - 1 >> 3) + 1):
                    quads.add(quad)
        return quads

    # -- data region -------------------------------------------------------------

    def plan_region(self, use_bloom: bool = False,
                    bitwise: bool = False) -> int:
        """Lay out the data region; returns the total (pow2) size."""
        self.uses_bloom = use_bloom
        self.bloom_bitwise = bitwise
        cursor = SAVE_AREA_BYTES
        for entry in self.entries:
            entry.offset = cursor
            cursor += ENTRY_BYTES
        for entry in self.entries:
            if entry.kind == "range":
                entry.mirror_offset = cursor
                cursor += _align8(entry.range_hi - entry.range_lo)
        self._bloom_offset = cursor
        if use_bloom:
            cursor += BLOOM_BYTES
        size = 1
        while size < cursor:
            size <<= 1
        self.data_size = size
        self.segment_shift = size.bit_length() - 1
        return size

    def install_region(self, memory: Optional[MainMemory] = None) -> int:
        """Append the region to the program and return its base address.

        When ``memory`` is given the initial contents are also written
        directly (the machine has already loaded its data segment).
        """
        if not self.data_size:
            self.plan_region(self.uses_bloom, self.bloom_bitwise)
        blob = self._initial_blob(memory)
        self.data_base = self.program.append_data(
            self.region_name, self.data_size, init=blob,
            align=self.data_size)
        if memory is not None:
            memory.write_bytes(self.data_base, blob)
        return self.data_base

    def _initial_blob(self, memory: Optional[MainMemory]) -> bytes:
        """Initial region contents, evaluated against current memory."""
        snapshot = memory if memory is not None else _initial_memory(
            self.program)
        blob = bytearray(self.data_size)
        for entry in self.entries:
            fields = [0, 0, 0, 0]
            expr = entry.wp.expression
            if entry.kind in ("scalar", "complex"):
                fields[0] = entry.terms[0][0] if entry.terms else 0
                fields[1] = _as_u64(expr.evaluate(self.resolver, snapshot))
            elif entry.kind == "indirect":
                fields[0] = entry.pointer_addr
                fields[1] = _as_u64(expr.evaluate(self.resolver, snapshot))
                fields[2] = snapshot.read_int(entry.pointer_addr, QUAD)
            elif entry.kind == "range":
                fields[0] = entry.range_lo
                fields[1] = entry.range_hi - entry.range_lo
                length = entry.range_hi - entry.range_lo
                blob[entry.mirror_offset:entry.mirror_offset + length] = \
                    snapshot.read_bytes(entry.range_lo, length)
            for i, value in enumerate(fields):
                offset = entry.offset + i * QUAD
                blob[offset:offset + QUAD] = value.to_bytes(QUAD, "little")
        if self.uses_bloom:
            self._fill_bloom(blob, snapshot)
        return bytes(blob)

    def _fill_bloom(self, blob: bytearray, memory) -> None:
        for quad in self.watched_quads(memory):
            if self.bloom_bitwise:
                bit = quad & (BLOOM_BYTES * 8 - 1)
                blob[self._bloom_offset + (bit >> 3)] |= 1 << (bit & 7)
            else:
                blob[self._bloom_offset + (quad & (BLOOM_BYTES - 1))] = 1

    @property
    def bloom_base(self) -> int:
        return self.data_base + self._bloom_offset

    @property
    def save_base(self) -> int:
        return self.data_base

    def entry_addr(self, entry: WatchEntry, field_index: int = 0) -> int:
        """Absolute address of ``entry``'s field ``field_index``."""
        return self.data_base + entry.offset + field_index * QUAD

    # -- the debugger-generated function (Figure 2e) ---------------------------

    def install_handler(self, flavor: str = "dise") -> int:
        """Generate and append the expression-evaluation function.

        Returns its entry PC.  ``flavor`` is ``"dise"`` (called by
        ``d_call``/``d_ccall``; ends in ``d_ret``) or ``"conventional"``
        (called by ``jsr r28``; ends in ``ret r28``).
        """
        start_pc = self.program.text_end_pc
        builder = CodeBuilder("handler")
        self._emit_prolog(builder)
        for entry in self.entries:
            self._emit_entry_check(builder, entry, flavor)
        self._emit_epilog(builder, flavor)
        instructions = _resolve_local(builder, start_pc)
        self.handler_pc = self.program.append_function(self.handler_label,
                                                       instructions)
        assert self.handler_pc == start_pc
        return self.handler_pc

    def install_error_handler(self) -> int:
        """The protection production's error target: trap, then halt."""
        builder = CodeBuilder("error")
        builder.trap()
        builder.halt()
        self.error_pc = self.program.append_function(
            self.error_label, _resolve_local(builder, self.program.text_end_pc))
        return self.error_pc

    def _emit_prolog(self, b: CodeBuilder) -> None:
        # All registers are callee-saved; spill the four temporaries via
        # absolute (zero-based) addressing.
        for i, reg in enumerate((T0, T1, T2, T3)):
            b.stq(reg, self.save_base + i * QUAD, ZERO_REG)

    def _emit_epilog(self, b: CodeBuilder, flavor: str) -> None:
        for i, reg in enumerate((T0, T1, T2, T3)):
            b.ldq(reg, self.save_base + i * QUAD, ZERO_REG)
        if flavor == "dise":
            b.d_ret()
        else:
            b.ret(LINK)

    def _emit_entry_check(self, b: CodeBuilder, entry: WatchEntry,
                          flavor: str) -> None:
        skip = f"__skip_{entry.index}_{b.here}"
        if entry.kind == "range":
            self._emit_range_check(b, entry, skip, flavor)
        elif entry.kind == "indirect":
            self._emit_indirect_check(b, entry, skip, flavor)
        else:
            self._emit_value_check(b, entry, skip)
        b.label(skip)

    def _emit_value_check(self, b: CodeBuilder, entry: WatchEntry,
                          skip: str) -> None:
        """Scalar/complex: re-evaluate, compare, update, maybe trap."""
        _emit_eval(b, entry.wp.expression, self.resolver, dest=T2, tmp=T0)
        b.ldq(T1, self.entry_addr(entry, 1), ZERO_REG)  # previous value
        b.cmpeq(T1, _regname(T2), T3)
        b.bne(T3, skip)  # unchanged: continue
        b.stq(T2, self.entry_addr(entry, 1), ZERO_REG)  # update prev
        self._emit_condition_gate(b, entry, skip, value_reg=T2)
        b.trap()

    def _emit_indirect_check(self, b: CodeBuilder, entry: WatchEntry,
                             skip: str, flavor: str) -> None:
        """``*p``: maintain the cached target, then the value check."""
        b.ldq(T0, entry.pointer_addr, ZERO_REG)  # current p
        b.ldq(T1, self.entry_addr(entry, 2), ZERO_REG)  # cached target
        b.cmpeq(T0, _regname(T1), T3)
        same = f"__ptr_same_{entry.index}_{b.here}"
        b.bne(T3, same)
        b.stq(T0, self.entry_addr(entry, 2), ZERO_REG)  # re-cache target
        if flavor == "dise" and entry.dar_index >= 0:
            # Retarget the replacement sequence's dynamic address check
            # (the sequence compares quad-aligned addresses).
            b.bic(T0, QUAD - 1, T3)
            b.d_mtr(T3, entry.dar_index)
        if self.uses_bloom:
            self._emit_bloom_insert(b, addr_reg=T0)
        b.label(same)
        b.ldq(T2, 0, T0)  # current *p
        b.ldq(T1, self.entry_addr(entry, 1), ZERO_REG)  # previous value
        b.cmpeq(T1, _regname(T2), T3)
        b.bne(T3, skip)
        b.stq(T2, self.entry_addr(entry, 1), ZERO_REG)
        self._emit_condition_gate(b, entry, skip, value_reg=T2)
        b.trap()

    def _emit_range_check(self, b: CodeBuilder, entry: WatchEntry,
                          skip: str, flavor: str) -> None:
        """Range: compare the stored-to quad against its mirror copy.

        The replacement sequence leaves the (aligned) store address in
        DISE register dr1; the function retrieves it with ``d_mfr``.
        The conventional flavour receives it in the scavenged scratch
        register r27 instead.
        """
        if flavor == "dise":
            b.d_mfr(T0, DR_ADDR - dise_reg(0))  # t0 = aligned store address
        else:
            b.mov(27, T0)
        lo = entry.range_lo & ~(QUAD - 1)
        length = entry.range_hi - lo
        mirror = self.data_base + entry.mirror_offset
        b.lda(T1, -lo, T0)  # t1 = offset within the range
        b.cmpult(T1, length, T3)
        b.beq(T3, skip)  # outside this range
        b.ldq(T2, 0, T0)  # current quad at the store address
        b.ldq(T1, mirror - lo, T0)  # mirrored quad
        b.cmpeq(T1, _regname(T2), T3)
        b.bne(T3, skip)  # silent store into the range
        b.stq(T2, mirror - lo, T0)  # refresh mirror
        self._emit_condition_gate(b, entry, skip, value_reg=T2)
        b.trap()

    def _emit_condition_gate(self, b: CodeBuilder, entry: WatchEntry,
                             skip: str, value_reg: int) -> None:
        """Compile the watchpoint's condition; fall through iff true."""
        condition = entry.wp.condition
        if condition is None:
            return
        _emit_predicate(b, condition, entry.wp.expression, self.resolver,
                        value_reg=value_reg, dest=T3, tmp=T0)
        b.beq(T3, skip)

    def _emit_bloom_insert(self, b: CodeBuilder, addr_reg: int) -> None:
        """Set the Bloom entry for the quad of the address in ``addr_reg``.

        Uses t1/t3 as scratch; called from handler code only.
        """
        b.srl(addr_reg, 3, T1)  # quad number
        if self.bloom_bitwise:
            b.and_(T1, BLOOM_BYTES * 8 - 1, T1)  # bit index
            b.srl(T1, 3, T3)  # byte index
            b.ldb(T3, self.bloom_base, T3)  # wait: needs base+index
            # Recompute: t3 = byte index again (ldb overwrote it).
            # Sequence kept simple: set whole byte to 0xFF, a superset of
            # the single bit — conservatively correct for a Bloom filter.
            b.srl(T1, 3, T3)
            b.lda(T1, 255, ZERO_REG)
            b.stb(T1, self.bloom_base, T3)
        else:
            b.and_(T1, BLOOM_BYTES - 1, T1)
            b.lda(T3, 1, ZERO_REG)
            b.stb(T3, self.bloom_base, T1)

    # -- replacement sequences (Figure 2 and Figure 6) ---------------------------

    def seq_match_address(self, conditional_isa: bool = True,
                          protect: bool = False) -> list[TemplateInstruction]:
        """Figure 2c/d (+2f with ``protect``): address-match gating.

        ``T.INST; lda dr1, T.IMM(T.RS1); bic dr1, 7, dr1`` followed by
        one comparison + conditional call per watched address (serial
        matching), bounds checks for ranges, and DISE-register compares
        for indirect targets.
        """
        if self.handler_pc is None:
            raise DebuggerError("install_handler() must run first")
        seq: list[TemplateInstruction] = []
        if protect:
            seq.extend(self._protect_prefix())
        else:
            seq.append(_original())
            seq.append(_template(Opcode.LDA, rd=DR_ADDR, rs1=T.RS1, imm=T.IMM))
        seq.append(_template(Opcode.BIC, rd=DR_ADDR, rs1=DR_ADDR,
                             imm=QUAD - 1))
        for entry in self.entries:
            seq.extend(self._match_tests(entry, conditional_isa))
        return seq

    def _protect_prefix(self) -> list[TemplateInstruction]:
        """Figure 2f prefix: fault stores aimed at the debugger region."""
        if self.error_pc is None:
            raise DebuggerError("install_error_handler() must run first")
        seg_high = self.data_base >> self.segment_shift
        return [
            _template(Opcode.LDA, rd=DR_ADDR, rs1=T.RS1, imm=T.IMM),
            _template(Opcode.SRL, rd=DR_FLAG, rs1=DR_ADDR,
                      imm=self.segment_shift),
            _template(Opcode.SUBQ, rd=DR_FLAG, rs1=DR_FLAG, imm=seg_high),
            _template(Opcode.BEQ, rs1=DR_FLAG, target=self.error_pc),
            _original(),
        ]

    def _match_tests(self, entry: WatchEntry,
                     conditional_isa: bool) -> list[TemplateInstruction]:
        tests: list[TemplateInstruction] = []
        if entry.kind in ("scalar", "complex"):
            for addr, size in _aligned_quads(entry.terms):
                tests.append(_template(Opcode.CMPEQ, rd=DR_FLAG,
                                       rs1=DR_ADDR, imm=addr))
                tests.extend(self._call_if(DR_FLAG, conditional_isa))
        elif entry.kind == "indirect":
            # The pointer's own quad (a write moves the watchpoint)...
            tests.append(_template(Opcode.CMPEQ, rd=DR_FLAG, rs1=DR_ADDR,
                                   imm=entry.pointer_addr & ~(QUAD - 1)))
            tests.extend(self._call_if(DR_FLAG, conditional_isa))
            # ...and the current target, tracked in a DISE register that
            # the handler retargets with d_mtr.
            tests.append(_template(Opcode.CMPEQ, rd=DR_FLAG, rs1=DR_ADDR,
                                   rs2=dise_reg(entry.dar_index)))
            tests.extend(self._call_if(DR_FLAG, conditional_isa))
        elif entry.kind == "range":
            lo = entry.range_lo & ~(QUAD - 1)
            tests.append(_template(Opcode.CMPULT, rd=DR_FLAG, rs1=DR_ADDR,
                                   imm=lo))
            tests.append(_template(Opcode.XOR, rd=DR_FLAG, rs1=DR_FLAG,
                                   imm=1))
            tests.append(_template(Opcode.CMPULT, rd=DR_TMP, rs1=DR_ADDR,
                                   imm=entry.range_hi))
            tests.append(_template(Opcode.AND, rd=DR_FLAG, rs1=DR_FLAG,
                                   rs2=DR_TMP))
            tests.extend(self._call_if(DR_FLAG, conditional_isa))
        return tests

    def _call_if(self, flag_reg: int,
                 conditional_isa: bool) -> list[TemplateInstruction]:
        """Call the handler iff ``flag_reg`` is non-zero.

        With the conditional-call DISE-ISA extension this is one
        ``d_ccall``; without it, a DISE branch skips an unconditional
        ``d_call``, flushing the pipeline in the (common) no-match case
        — the contrast of Figure 7's two groups.
        """
        if conditional_isa:
            return [_template(Opcode.D_CCALL, rs1=flag_reg,
                              target=self.handler_pc)]
        return [
            _template(Opcode.D_BEQ, rs1=flag_reg, imm=1),
            _template(Opcode.D_CALL, target=self.handler_pc),
        ]

    def seq_evaluate_expression(
            self, conditional_isa: bool = True,
            use_dar_register: bool = True) -> list[TemplateInstruction]:
        """Figure 2a/b: re-evaluate the expression after every store.

        Scalar and indirect expressions only; each watched scalar costs
        a load (the data-cache/load-port pressure the paper's
        Optimization II removes).  Previous values live in DISE
        registers (``dpv``), updated inline.
        """
        seq: list[TemplateInstruction] = [_original()]
        for entry in self.entries:
            if entry.kind == "range":
                raise UnsupportedWatchpointError(
                    "evaluate-expression sequences cannot watch ranges")
            if entry.kind == "complex":
                raise UnsupportedWatchpointError(
                    "evaluate-expression sequences support single-term "
                    "expressions only")
            dpv = dise_reg(entry.dpv_index)
            if entry.kind == "indirect":
                seq.append(_template(Opcode.LDQ, rd=DR_ADDR, rs1=ZERO_REG,
                                     imm=entry.pointer_addr))
                seq.append(_template(Opcode.LDQ, rd=DR_ADDR, rs1=DR_ADDR,
                                     imm=0))
            else:
                addr, size = entry.terms[0]
                load_op = LOAD_FOR_SIZE[min(size, QUAD)]
                if use_dar_register and len(self.entries) == 1:
                    # Faithful Figure 2a form: ldq dr1, 0(dar).
                    seq.append(_template(load_op, rd=DR_ADDR,
                                         rs1=dise_reg(DAR_BASE), imm=0))
                else:
                    seq.append(_template(load_op, rd=DR_ADDR, rs1=ZERO_REG,
                                         imm=addr))
            seq.append(_template(Opcode.CMPEQ, rd=DR_FLAG, rs1=DR_ADDR,
                                 rs2=dpv))
            seq.append(_template(Opcode.MOV, rd=dpv, rs1=DR_ADDR))
            seq.extend(self._trap_if_changed(entry, conditional_isa,
                                             value_reg=DR_ADDR))
        return seq

    def seq_match_address_value(
            self, conditional_isa: bool = True) -> list[TemplateInstruction]:
        """Figure 7's Match-Address-Value: no load, no call.

        Compares the store's address to the watched address and the
        stored value (``T.RD``) to the previous value.  Only valid when
        the watched expression is a scalar and every store to it has
        the same data size (paper: "can only be used in select cases").
        """
        seq: list[TemplateInstruction] = [
            _original(),
            _template(Opcode.LDA, rd=DR_ADDR, rs1=T.RS1, imm=T.IMM),
        ]
        for entry in self.entries:
            if entry.kind != "scalar":
                raise UnsupportedWatchpointError(
                    "match-address-value requires scalar watchpoints")
            addr, _size = entry.terms[0]
            dpv = dise_reg(entry.dpv_index)
            seq.append(_template(Opcode.CMPEQ, rd=DR_FLAG, rs1=DR_ADDR,
                                 imm=addr))
            seq.append(_template(Opcode.CMPEQ, rd=DR_TMP, rs1=T.RD, rs2=dpv))
            seq.append(_template(Opcode.XOR, rd=DR_TMP, rs1=DR_TMP, imm=1))
            seq.append(_template(Opcode.AND, rd=DR_FLAG, rs1=DR_FLAG,
                                 rs2=DR_TMP))
            if entry.wp.condition is not None:
                seq.extend(self._inline_predicate(entry, T.RD))
            if conditional_isa:
                seq.append(_template(Opcode.CTRAP, rs1=DR_FLAG))
            else:
                seq.append(_template(Opcode.D_BEQ, rs1=DR_FLAG, imm=1))
                seq.append(_template(Opcode.TRAP))
        return seq

    def seq_bloom(self, bytewise: bool = True,
                  conditional_isa: bool = True) -> list[TemplateInstruction]:
        """Figure 6's Bloom-filter sequences.

        Bytewise: hash the store's quad number to a byte of a 2KB array
        ("a byte value of 1 indicates a probable match").  Bitwise: hash
        to a bit, eight times the effective capacity at the cost of two
        extra bit-manipulation operations.
        """
        if self.handler_pc is None:
            raise DebuggerError("install_handler() must run first")
        if not self.uses_bloom or self.bloom_bitwise != (not bytewise):
            raise DebuggerError(
                "plan_region(use_bloom=True, bitwise=...) must match")
        seq: list[TemplateInstruction] = [
            _original(),
            _template(Opcode.LDA, rd=DR_ADDR, rs1=T.RS1, imm=T.IMM),
            _template(Opcode.BIC, rd=DR_ADDR, rs1=DR_ADDR, imm=QUAD - 1),
            _template(Opcode.SRL, rd=DR_FLAG, rs1=DR_ADDR, imm=3),
        ]
        if bytewise:
            seq.append(_template(Opcode.AND, rd=DR_FLAG, rs1=DR_FLAG,
                                 imm=BLOOM_BYTES - 1))
            seq.append(_template(Opcode.LDB, rd=DR_FLAG, rs1=DR_FLAG,
                                 imm=self.bloom_base))
        else:
            seq.append(_template(Opcode.AND, rd=DR_FLAG, rs1=DR_FLAG,
                                 imm=BLOOM_BYTES * 8 - 1))
            seq.append(_template(Opcode.SRL, rd=DR_TMP, rs1=DR_FLAG, imm=3))
            seq.append(_template(Opcode.LDB, rd=DR_TMP, rs1=DR_TMP,
                                 imm=self.bloom_base))
            seq.append(_template(Opcode.AND, rd=DR_FLAG, rs1=DR_FLAG, imm=7))
            seq.append(_template(Opcode.SRL, rd=DR_TMP, rs1=DR_TMP,
                                 rs2=DR_FLAG))
            seq.append(_template(Opcode.AND, rd=DR_TMP, rs1=DR_TMP, imm=1))
            seq.append(_template(Opcode.MOV, rd=DR_FLAG, rs1=DR_TMP))
        seq.extend(self._call_if(DR_FLAG, conditional_isa))
        return seq

    def _trap_if_changed(self, entry: WatchEntry, conditional_isa: bool,
                         value_reg: int) -> list[TemplateInstruction]:
        """Trap when DR_FLAG says 'unchanged'==0 and the predicate holds."""
        out: list[TemplateInstruction] = []
        if conditional_isa:
            out.append(_template(Opcode.XOR, rd=DR_FLAG, rs1=DR_FLAG, imm=1))
            if entry.wp.condition is not None:
                out.extend(self._inline_predicate(entry, value_reg))
            out.append(_template(Opcode.CTRAP, rs1=DR_FLAG))
            return out
        # Without the conditional trap: Figure 2a, a DISE branch skips
        # the trap when the value is unchanged (flushing when taken —
        # i.e. on nearly every store).
        if entry.wp.condition is not None:
            out.append(_template(Opcode.XOR, rd=DR_FLAG, rs1=DR_FLAG, imm=1))
            out.extend(self._inline_predicate(entry, value_reg))
            out.append(_template(Opcode.D_BEQ, rs1=DR_FLAG, imm=1))
            out.append(_template(Opcode.TRAP))
        else:
            out.append(_template(Opcode.D_BNE, rs1=DR_FLAG, imm=1))
            out.append(_template(Opcode.TRAP))
        return out

    def _inline_predicate(self, entry: WatchEntry,
                          value_reg) -> list[TemplateInstruction]:
        """AND the condition into DR_FLAG (simple const comparisons).

        The value of the watched expression is in ``value_reg``; only
        conditions of the form ``<watched expr> OP <constant>`` can be
        compiled inline (Section 4.3's conditional-breakpoint style).
        """
        condition = entry.wp.condition
        if not isinstance(condition.right, Constant):
            raise UnsupportedWatchpointError(
                "inline predicates require a constant right-hand side")
        if str(condition.left) != str(entry.wp.expression):
            raise UnsupportedWatchpointError(
                "inline predicates must test the watched expression")
        rhs = condition.right.value
        out: list[TemplateInstruction] = []
        op = condition.op
        if op in ("==", "!="):
            out.append(_template(Opcode.CMPEQ, rd=DR_TMP, rs1=value_reg,
                                 imm=rhs))
            if op == "!=":
                out.append(_template(Opcode.XOR, rd=DR_TMP, rs1=DR_TMP,
                                     imm=1))
        elif op in ("<", ">="):
            out.append(_template(Opcode.CMPLT, rd=DR_TMP, rs1=value_reg,
                                 imm=rhs))
            if op == ">=":
                out.append(_template(Opcode.XOR, rd=DR_TMP, rs1=DR_TMP,
                                     imm=1))
        elif op in ("<=", ">"):
            out.append(_template(Opcode.CMPLE, rd=DR_TMP, rs1=value_reg,
                                 imm=rhs))
            if op == ">":
                out.append(_template(Opcode.XOR, rd=DR_TMP, rs1=DR_TMP,
                                     imm=1))
        out.append(_template(Opcode.AND, rd=DR_FLAG, rs1=DR_FLAG,
                             rs2=DR_TMP))
        return out

    # -- binary-rewriting inline sequence ----------------------------------------

    def inline_check(self, store: Instruction, base_pc: int,
                     scratch: tuple[int, int] = (27, 28)) -> list[Instruction]:
        """The statically inlined per-store check (Figure 2c, inlined).

        ``base_pc`` is the PC at which the first instruction of the
        emitted sequence will reside (internal skip branches resolve
        against it).  ``scratch`` are the two registers the rewriter
        scavenged; the store site must not use them.  The handler is
        entered with ``jsr r28`` and receives the aligned store address
        in r27 (needed by range checks).

        The handler may not be appended yet; in that case the call is
        emitted against the handler's label and resolved when the
        program is finalized after :meth:`install_handler`.
        """
        handler_target = (self.handler_pc if self.handler_pc is not None
                          else self.handler_label)
        s1, s2 = scratch
        if store.rs1 in scratch or store.rd in scratch:
            raise DebuggerError(
                f"store uses scavenged register r{store.rs1}/r{store.rd}")
        b = CodeBuilder("inline-check")
        b.emit(store.copy())
        b.emit(Instruction(Opcode.LDA, rd=s1, rs1=store.rs1, imm=store.imm))
        b.emit(Instruction(Opcode.BIC, rd=s1, rs1=s1, imm=QUAD - 1))

        def emit_call(skip: str) -> None:
            if s1 != 27:
                b.mov(s1, 27)  # range handler reads the address from r27
            b.jsr(LINK, handler_target)
            b.label(skip)

        for entry in self.entries:
            if entry.kind in ("scalar", "complex"):
                for addr, _size in _aligned_quads(entry.terms):
                    skip = b.unique_label("__rw_skip")
                    b.emit(Instruction(Opcode.CMPEQ, rd=s2, rs1=s1, imm=addr))
                    b.beq(s2, skip)
                    emit_call(skip)
            elif entry.kind == "range":
                skip = b.unique_label("__rw_skip")
                lo = entry.range_lo & ~(QUAD - 1)
                b.emit(Instruction(Opcode.CMPULT, rd=s2, rs1=s1, imm=lo))
                b.bne(s2, skip)  # below the range
                b.emit(Instruction(Opcode.CMPULT, rd=s2, rs1=s1,
                                   imm=entry.range_hi))
                b.beq(s2, skip)  # at or above the range
                emit_call(skip)
            else:
                raise UnsupportedWatchpointError(
                    "binary rewriting cannot watch indirect expressions "
                    "without whole-program re-compilation")
        return _resolve_local(b, base_pc)


# -- helpers -------------------------------------------------------------------


def _align8(value: int) -> int:
    return (value + 7) & ~7


def _as_u64(value) -> int:
    if isinstance(value, bytes):
        # Range values are bytes; entries store a digest (unused — the
        # mirror is authoritative for ranges).
        return hash(value) & ((1 << 64) - 1)
    return value & ((1 << 64) - 1)


def _aligned_quads(terms: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Quad-aligned, deduplicated (address, size) watch terms."""
    seen: dict[int, int] = {}
    for addr, size in terms:
        aligned = addr & ~(QUAD - 1)
        # Cover every quad the term touches.
        last = (addr + size - 1) & ~(QUAD - 1)
        for quad_addr in range(aligned, last + 1, QUAD):
            seen.setdefault(quad_addr, QUAD)
    return sorted(seen.items())


def _initial_memory(program: Program) -> MainMemory:
    """A scratch memory holding the program's initial data segment."""
    memory = MainMemory()
    for item in program.data_items:
        symbol = program.symbols[item.name]
        if item.init:
            memory.write_bytes(symbol.address, item.init)
    return memory


def _resolve_local(builder: CodeBuilder, start_pc: int) -> list[Instruction]:
    """Resolve a builder's local labels against an absolute start PC."""
    labels = builder.labels
    for inst in builder.instructions:
        if isinstance(inst.target, str) and inst.target in labels:
            inst.target = start_pc + INSTRUCTION_BYTES * labels[inst.target]
    return builder.instructions


def _emit_eval(b: CodeBuilder, expr: Expression, resolver,
               dest: int, tmp: int) -> None:
    """Evaluate a scalar expression tree into register ``dest``.

    Supports left-deep trees whose right operands are leaves
    (variables/constants) — enough for the paper's "complex
    expressions" (sums/differences/products of program variables).
    """
    if isinstance(expr, Variable):
        addr, size = resolver.resolve(expr.name)
        load_op = LOAD_FOR_SIZE[min(size, QUAD)]
        b.op(load_op.name.lower(), dest, addr, ZERO_REG)
        return
    if isinstance(expr, Constant):
        b.lda(dest, expr.value, ZERO_REG)
        return
    if isinstance(expr, Indirect):
        pointer_addr, _ = resolver.resolve(expr.pointer)
        b.ldq(dest, pointer_addr, ZERO_REG)
        b.ldq(dest, 0, dest)
        return
    if isinstance(expr, BinaryOp):
        _emit_eval(b, expr.left, resolver, dest, tmp)
        right = expr.right
        if isinstance(right, Constant):
            operand = right.value
            b.op(_ARITH_OPCODE[expr.op].name.lower(), dest, operand, dest)
            return
        if isinstance(right, Variable):
            addr, size = resolver.resolve(right.name)
            load_op = LOAD_FOR_SIZE[min(size, QUAD)]
            b.op(load_op.name.lower(), tmp, addr, ZERO_REG)
            b.op(_ARITH_OPCODE[expr.op].name.lower(), dest,
                 _regname(tmp), dest)
            return
        raise UnsupportedWatchpointError(
            "expression too complex for the generated function: right "
            f"operand {right} must be a variable or constant")
    raise UnsupportedWatchpointError(f"cannot evaluate {expr} in code")


def _emit_predicate(b: CodeBuilder, condition: Comparison,
                    watched: Expression, resolver, value_reg: int,
                    dest: int, tmp: int) -> None:
    """Evaluate ``condition`` into ``dest`` (1 = true).

    Reuses ``value_reg`` when the condition's left side is the watched
    expression itself (the common case).
    """
    if str(condition.left) == str(watched):
        left_reg = value_reg
    else:
        _emit_eval(b, condition.left, resolver, dest=tmp, tmp=dest)
        left_reg = tmp
    if isinstance(condition.right, Constant):
        rhs = condition.right.value
        _emit_compare(b, condition.op, left_reg, rhs, dest)
        return
    if isinstance(condition.right, Variable):
        addr, size = resolver.resolve(condition.right.name)
        load_op = LOAD_FOR_SIZE[min(size, QUAD)]
        b.op(load_op.name.lower(), dest, addr, ZERO_REG)
        _emit_compare(b, condition.op, left_reg, _regname(dest), dest)
        return
    raise UnsupportedWatchpointError(
        f"condition right-hand side {condition.right} is too complex")


def _emit_compare(b: CodeBuilder, op: str, left_reg: int, right,
                  dest: int) -> None:
    if op in ("==", "!="):
        b.cmpeq(left_reg, right, dest)
        if op == "!=":
            b.xor(dest, 1, dest)
    elif op in ("<", ">="):
        b.cmplt(left_reg, right, dest)
        if op == ">=":
            b.xor(dest, 1, dest)
    elif op in ("<=", ">"):
        b.cmple(left_reg, right, dest)
        if op == ">":
            b.xor(dest, 1, dest)
    else:
        raise UnsupportedWatchpointError(f"unknown comparison {op!r}")


def _regname(reg: int) -> str:
    return f"r{reg}"


_ARITH_OPCODE = {
    "+": Opcode.ADDQ,
    "-": Opcode.SUBQ,
    "*": Opcode.MULQ,
}
