"""The :class:`Instruction` record and its disassembly.

Instructions are plain records: an opcode plus register/immediate/target
operands.  Field use by format (see :class:`repro.isa.opcodes.Format`):

==============  ======================================================
Format          Operand fields
==============  ======================================================
OPERATE         ``rs1``, (``rs2`` or ``imm``), ``rd``
MEMORY          ``rd`` (data reg; written by loads, read by stores),
                ``imm`` (displacement), ``rs1`` (base register)
BRANCH          ``rs1`` (condition), ``target``
JUMP            ``br target`` / ``jsr rd, target`` / ``jmp (rs1)`` /
                ``ret rs1``
CTRAP           ``rs1``
CODEWORD        ``imm`` (codeword identifier)
DISE_BRANCH     ``rs1`` (absent for ``d_br``), ``imm`` (skip distance)
DISE_CALL       ``rs1`` (``d_ccall`` only), ``target``
DISE_MOVE       ``d_mfr rd, imm`` / ``d_mtr rs1, imm``
                (``imm`` is the DISE register index)
MISC, DISE_RET  none
==============  ======================================================

``target`` may be a label string before assembly resolution, or an
absolute PC afterwards.  Instructions should be treated as immutable
once built; the assembler mutates ``target`` during its second pass
only.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.isa.opcodes import Format, Opcode, OpClass, OpInfo, opcode_info
from repro.isa.registers import NUM_GPRS, ZERO_REG, register_name

TargetType = Union[int, str, None]

# Handler indices of the dispatch-table interpreter
# (:class:`repro.cpu.machine.Machine` holds its handlers in this order).
# ALU and JUMP are split into their opcode-level subcases so the hot
# loop never re-inspects the opcode.
(H_ALU_LDA, H_ALU_MOV, H_ALU_IMM, H_ALU_REG, H_LOAD, H_STORE, H_BRANCH,
 H_JUMP_BR, H_JUMP_JSR, H_JUMP_RET, H_JUMP_JMP, H_TRAP, H_CTRAP,
 H_DISE_BRANCH, H_DISE_CALL, H_DISE_RET, H_DISE_MOVE, H_NOP, H_HALT,
 H_CODEWORD, H_SYSCALL, H_ERET) = range(22)

NUM_HANDLERS = 22


class Decoded:
    """Shared, never-mutated decode record.

    A record depends only on the opcode, on whether ``rs2`` is present
    (an ALU operation takes a register or an immediate), and on
    ``fast_regs``, so :meth:`Instruction.decode` interns one record per
    such key in :data:`DECODED` and every instruction of that shape
    shares it.  The interpreter's hot loop reads opclass, format,
    memory size and the handler to dispatch to from it and never
    re-derives them.
    """

    __slots__ = ("opclass", "format", "mem_size", "handler_index",
                 "alu_func", "branch_func", "fast_regs")

    def __init__(self, opcode: Opcode, has_rs2: bool, fast_regs: bool):
        # Deferred import: repro.cpu.functional imports repro.isa.opcodes.
        from repro.cpu.functional import ALU_FUNCS, BRANCH_FUNCS

        info = opcode_info(opcode)
        opclass = info.opclass
        self.opclass = opclass
        self.format = info.format
        self.mem_size = info.mem_size
        self.alu_func = None
        self.branch_func = None
        self.fast_regs = fast_regs

        if opclass is OpClass.ALU:
            if info.format is Format.MEMORY:  # lda
                self.handler_index = H_ALU_LDA
            elif opcode is Opcode.MOV:
                self.handler_index = H_ALU_MOV
            elif has_rs2:
                self.handler_index = H_ALU_REG
                self.alu_func = ALU_FUNCS[opcode]
            else:
                self.handler_index = H_ALU_IMM
                self.alu_func = ALU_FUNCS[opcode]
        elif opclass is OpClass.LOAD:
            self.handler_index = H_LOAD
        elif opclass is OpClass.STORE:
            self.handler_index = H_STORE
        elif opclass is OpClass.BRANCH:
            self.handler_index = H_BRANCH
            self.branch_func = BRANCH_FUNCS[opcode]
        elif opclass is OpClass.JUMP:
            self.handler_index = {
                Opcode.BR: H_JUMP_BR, Opcode.JSR: H_JUMP_JSR,
                Opcode.RET: H_JUMP_RET, Opcode.JMP: H_JUMP_JMP}[opcode]
        elif opclass is OpClass.TRAP:
            self.handler_index = (H_CTRAP if opcode is Opcode.CTRAP
                                  else H_TRAP)
        elif opclass is OpClass.NOP:
            self.handler_index = H_NOP
        elif opclass is OpClass.HALT:
            self.handler_index = H_HALT
        elif opclass is OpClass.CODEWORD:
            self.handler_index = H_CODEWORD
        elif opclass is OpClass.SYSCALL:
            self.handler_index = H_SYSCALL
        elif opclass is OpClass.ERET:
            self.handler_index = H_ERET
        elif opclass is OpClass.DISE_BRANCH:
            self.handler_index = H_DISE_BRANCH
        elif opclass is OpClass.DISE_CALL:
            self.handler_index = H_DISE_CALL
        elif opclass is OpClass.DISE_RET:
            self.handler_index = H_DISE_RET
        else:  # OpClass.DISE_MOVE
            self.handler_index = H_DISE_MOVE


#: The interned decode records, keyed ``(opcode, has_rs2, fast_regs)``:
#: bounded by the ISA (at most four records per opcode), not by the
#: register combinations programs use.
DECODED: dict[tuple[Opcode, bool, bool], Decoded] = {}


class Instruction:
    """One machine instruction."""

    __slots__ = ("opcode", "rd", "rs1", "rs2", "imm", "target", "info",
                 "decoded")

    def __init__(
        self,
        opcode: Opcode,
        rd: Optional[int] = None,
        rs1: Optional[int] = None,
        rs2: Optional[int] = None,
        imm: int = 0,
        target: TargetType = None,
    ):
        self.opcode = opcode
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target
        self.info: OpInfo = opcode_info(opcode)
        self.decoded: Optional[Decoded] = None

    # -- convenience predicates (delegate to static metadata) ------------

    @property
    def opclass(self) -> OpClass:
        return self.info.opclass

    @property
    def is_store(self) -> bool:
        return self.info.opclass is OpClass.STORE

    @property
    def is_load(self) -> bool:
        return self.info.opclass is OpClass.LOAD

    @property
    def is_control(self) -> bool:
        return self.info.is_control

    @property
    def mem_size(self) -> int:
        return self.info.mem_size

    def copy(self) -> "Instruction":
        """Return a shallow copy (used by rewriting and templates)."""
        return Instruction(self.opcode, self.rd, self.rs1, self.rs2,
                           self.imm, self.target)

    # -- decode cache ------------------------------------------------------

    def decode(self) -> Decoded:
        """Look up (and cache) the interpreter's decode record.

        Must run after symbolic operands are resolved (``imm`` may be a
        symbol name until :meth:`Program.finalize`).  The record holds
        nothing derived from ``imm``/``target``, so later retargeting
        (e.g. by the binary rewriter) stays safe; a change of opcode or
        registers needs ``decoded`` reset to None first.
        """
        info = self.info
        rs2 = self.rs2
        # May every named register be accessed directly in the GPR file?
        # (All operands conventional; a written rd that is neither the
        # zero register nor a DISE register.)  When False the handlers
        # fall back to the checked _read_reg/_write_reg slow path.
        fast = True
        if info.reads_rs1:
            fast = self.rs1 is not None and 0 <= self.rs1 < NUM_GPRS
        if fast and info.reads_rs2 and rs2 is not None:
            fast = 0 <= rs2 < NUM_GPRS
        if fast and info.reads_rd:
            fast = self.rd is not None and 0 <= self.rd < NUM_GPRS
        if fast and info.writes_rd:
            fast = (self.rd is not None and 0 <= self.rd < NUM_GPRS
                    and self.rd != ZERO_REG)
        key = (self.opcode, rs2 is not None, fast)
        d = DECODED.get(key)
        if d is None:
            # setdefault: threads that race on a new key agree on one.
            d = DECODED.setdefault(key, Decoded(*key))
        self.decoded = d
        return d

    # -- equality / hashing / display ------------------------------------

    def _key(self):
        return (self.opcode, self.rd, self.rs1, self.rs2, self.imm, self.target)

    def __eq__(self, other) -> bool:
        return isinstance(other, Instruction) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Instruction({self.disassemble()})"

    def disassemble(self) -> str:
        """Render the instruction as assembly text.

        The output is accepted by :func:`repro.isa.assembler.assemble`,
        giving a round-trip property exercised by the test suite.
        """
        info = self.info
        mn = info.mnemonic
        fmt = info.format
        if fmt is Format.OPERATE:
            if self.opcode is Opcode.MOV:
                return f"{mn} {register_name(self.rs1)}, {register_name(self.rd)}"
            second = register_name(self.rs2) if self.rs2 is not None else str(self.imm)
            return (f"{mn} {register_name(self.rs1)}, {second}, "
                    f"{register_name(self.rd)}")
        if fmt is Format.MEMORY:
            return f"{mn} {register_name(self.rd)}, {self.imm}({register_name(self.rs1)})"
        if fmt is Format.BRANCH:
            return f"{mn} {register_name(self.rs1)}, {_target_str(self.target)}"
        if fmt is Format.JUMP:
            if self.opcode is Opcode.BR:
                return f"{mn} {_target_str(self.target)}"
            if self.opcode is Opcode.JSR:
                return f"{mn} {register_name(self.rd)}, {_target_str(self.target)}"
            # jmp / ret: indirect through rs1
            return f"{mn} ({register_name(self.rs1)})"
        if fmt is Format.CTRAP:
            return f"{mn} {register_name(self.rs1)}"
        if fmt is Format.CODEWORD:
            return f"{mn} {self.imm}"
        if fmt is Format.DISE_BRANCH:
            if self.opcode is Opcode.D_BR:
                return f"{mn} +{self.imm}"
            return f"{mn} {register_name(self.rs1)}, +{self.imm}"
        if fmt is Format.DISE_CALL:
            if self.opcode is Opcode.D_CCALL:
                return f"{mn} {register_name(self.rs1)}, {_target_str(self.target)}"
            return f"{mn} {_target_str(self.target)}"
        if fmt is Format.DISE_MOVE:
            if self.opcode is Opcode.D_MFR:
                return f"{mn} {register_name(self.rd)}, {self.imm}"
            return f"{mn} {register_name(self.rs1)}, {self.imm}"
        # MISC / DISE_RET
        return mn


def _target_str(target: TargetType) -> str:
    if target is None:
        return "<unresolved>"
    if isinstance(target, str):
        return target
    return f"{target:#x}"
