"""A two-pass textual assembler for the Alpha-like ISA.

Syntax example::

    .data
    counter:    .quad 0
    buffer:     .space 64

    .text
    main:
        lda   r1, counter       ; r1 = &counter
        ldq   r2, 0(r1)
        addq  r2, 1, r2
        stq   r2, 0(r1)
        cmpeq r2, 10, r3
        beq   r3, main
        halt

Comments start with ``;`` or ``#``.  Labels end with ``:`` and may share a
line with an instruction.  Data directives: ``.quad``, ``.long``,
``.word``, ``.byte`` (comma-separated values), ``.space N``, ``.align N``.
``.stmt`` marks the next instruction as the start of a source statement
(used by the single-stepping debugger backend); labels implicitly start a
statement.

The first pass collects labels and data; the second is performed by
:meth:`repro.isa.program.Program.finalize`, which resolves symbolic
branch targets and data symbols.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.errors import AssemblyError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, Opcode, opcode_for_mnemonic, opcode_info
from repro.isa.program import DataItem, Program
from repro.isa.registers import parse_register

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$")
_MEM_OPERAND_RE = re.compile(r"^(-?\w+)\((\w+)\)$")
_NAME_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")

_DATA_SIZES = {".quad": 8, ".long": 4, ".word": 2, ".byte": 1}


def assemble(source: str, name: str = "program",
             entry: Optional[str] = None) -> Program:
    """Assemble ``source`` into a finalized :class:`Program`.

    ``entry`` names the entry label; it defaults to ``main`` if present,
    otherwise the first instruction.
    """
    assembler = _Assembler(name)
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        assembler.feed(raw_line, line_number)
    assembler.flush_data()
    program = assembler.program
    if entry is not None:
        program.entry = entry
    elif "main" in program.labels:
        program.entry = "main"
    return program.finalize()


def assemble_program(source: str, name: str = "program") -> Program:
    """Assemble ``source`` without finalizing (no symbol resolution)."""
    assembler = _Assembler(name)
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        assembler.feed(raw_line, line_number)
    return assembler.program


class _Assembler:
    """Single-pass line-by-line assembler state."""

    def __init__(self, name: str):
        self.program = Program(name=name)
        self.section = "text"
        self._pending_statement = False
        self._pending_data_label: Optional[str] = None
        self._data_parts: dict[str, list[bytes]] = {}
        self._data_order: list[str] = []
        self._data_align: dict[str, int] = {}

    def feed(self, raw_line: str, line_number: int) -> None:
        line = _strip_comment(raw_line).strip()
        if not line:
            return
        match = _LABEL_RE.match(line)
        if match:
            self._define_label(match.group(1), line_number)
            line = match.group(2).strip()
            if not line:
                return
        if line.startswith("."):
            self._directive(line, line_number)
        elif self.section == "text":
            self._instruction(line, line_number)
        else:
            raise AssemblyError(f"instruction in .data section: {line!r}",
                                line_number)

    # -- labels ------------------------------------------------------------

    def _define_label(self, label: str, line_number: int) -> None:
        if self.section == "text":
            if label in self.program.labels:
                raise AssemblyError(f"duplicate label {label!r}", line_number)
            self.program.labels[label] = len(self.program.instructions)
            self._pending_statement = True
        else:
            if label in self._data_parts:
                raise AssemblyError(f"duplicate data label {label!r}",
                                    line_number)
            self._data_parts[label] = []
            self._data_order.append(label)
            self._data_align[label] = 8
            self._pending_data_label = label

    # -- directives ----------------------------------------------------------

    def _directive(self, line: str, line_number: int) -> None:
        parts = line.split(None, 1)
        directive = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if directive == ".text":
            self.section = "text"
        elif directive == ".data":
            self.section = "data"
        elif directive == ".stmt":
            self._pending_statement = True
        elif directive in _DATA_SIZES:
            self._data_values(directive, rest, line_number)
        elif directive == ".space":
            self._data_space(rest, line_number)
        elif directive == ".align":
            self._data_set_align(rest, line_number)
        else:
            raise AssemblyError(f"unknown directive {directive!r}", line_number)

    def _current_data_label(self, line_number: int) -> str:
        if self._pending_data_label is None:
            raise AssemblyError("data directive outside a labelled block",
                                line_number)
        return self._pending_data_label

    def _data_values(self, directive: str, rest: str, line_number: int) -> None:
        label = self._current_data_label(line_number)
        size = _DATA_SIZES[directive]
        for token in _split_operands(rest):
            value = _parse_int(token, line_number)
            self._data_parts[label].append(
                (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def _data_space(self, rest: str, line_number: int) -> None:
        label = self._current_data_label(line_number)
        self._data_parts[label].append(bytes(_parse_int(rest, line_number)))

    def _data_set_align(self, rest: str, line_number: int) -> None:
        label = self._current_data_label(line_number)
        self._data_align[label] = _parse_int(rest, line_number)

    # -- instructions --------------------------------------------------------

    def _instruction(self, line: str, line_number: int) -> None:
        inst = parse_instruction(line, line_number)
        index = len(self.program.instructions)
        self.program.instructions.append(inst)
        if self._pending_statement:
            self.program.statement_starts.add(index)
            self._pending_statement = False

    # -- completion ------------------------------------------------------------

    def flush_data(self) -> None:
        for label in self._data_order:
            blob = b"".join(self._data_parts[label])
            self.program.data_items.append(
                DataItem(label, max(len(blob), 1), blob or None,
                         self._data_align[label]))


def parse_instruction(line: str, line_number: Optional[int] = None) -> Instruction:
    """Parse one instruction line into an :class:`Instruction`."""
    parts = line.split(None, 1)
    mnemonic = parts[0].lower()
    operand_text = parts[1] if len(parts) > 1 else ""
    try:
        opcode = opcode_for_mnemonic(mnemonic)
    except KeyError:
        raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line_number)
    operands = _split_operands(operand_text)
    try:
        return _build(opcode, operands, line_number)
    except (ValueError, IndexError) as exc:
        raise AssemblyError(f"bad operands for {mnemonic!r}: {exc}",
                            line_number)


def _build(opcode: Opcode, ops: list[str],
           line_number: Optional[int]) -> Instruction:
    fmt = opcode_info(opcode).format
    if fmt is Format.OPERATE:
        if opcode is Opcode.MOV:
            _expect(ops, 2, line_number)
            return Instruction(opcode, rd=parse_register(ops[1]),
                               rs1=parse_register(ops[0]))
        _expect(ops, 3, line_number)
        rs2, imm = _reg_or_imm(ops[1])
        return Instruction(opcode, rd=parse_register(ops[2]),
                           rs1=parse_register(ops[0]), rs2=rs2, imm=imm)
    if fmt is Format.MEMORY:
        _expect(ops, 2, line_number)
        rd = parse_register(ops[0])
        match = _MEM_OPERAND_RE.match(ops[1])
        if match:
            disp_text, base_text = match.groups()
            return Instruction(opcode, rd=rd, rs1=parse_register(base_text),
                               imm=_int_or_symbol(disp_text, line_number))
        # Bare symbol or absolute address (lda rd, symbol).
        from repro.isa.registers import ZERO_REG
        return Instruction(opcode, rd=rd, rs1=ZERO_REG,
                           imm=_int_or_symbol(ops[1], line_number))
    if fmt is Format.BRANCH:
        _expect(ops, 2, line_number)
        return Instruction(opcode, rs1=parse_register(ops[0]),
                           target=_target(ops[1], line_number))
    if fmt is Format.JUMP:
        return _build_jump(opcode, ops, line_number)
    if fmt is Format.CTRAP:
        _expect(ops, 1, line_number)
        return Instruction(opcode, rs1=parse_register(ops[0]))
    if fmt is Format.CODEWORD:
        _expect(ops, 1, line_number)
        return Instruction(opcode, imm=_parse_int(ops[0], line_number))
    if fmt is Format.DISE_BRANCH:
        if opcode is Opcode.D_BR:
            _expect(ops, 1, line_number)
            return Instruction(opcode, imm=_parse_skip(ops[0], line_number))
        _expect(ops, 2, line_number)
        return Instruction(opcode, rs1=parse_register(ops[0]),
                           imm=_parse_skip(ops[1], line_number))
    if fmt is Format.DISE_CALL:
        if opcode is Opcode.D_CCALL:
            _expect(ops, 2, line_number)
            return Instruction(opcode, rs1=parse_register(ops[0]),
                               target=_target(ops[1], line_number))
        _expect(ops, 1, line_number)
        return Instruction(opcode, target=_target(ops[0], line_number))
    if fmt is Format.DISE_MOVE:
        _expect(ops, 2, line_number)
        if opcode is Opcode.D_MFR:
            return Instruction(opcode, rd=parse_register(ops[0]),
                               imm=_parse_int(ops[1], line_number))
        return Instruction(opcode, rs1=parse_register(ops[0]),
                           imm=_parse_int(ops[1], line_number))
    # MISC / DISE_RET take no operands.
    _expect(ops, 0, line_number)
    return Instruction(opcode)


def _build_jump(opcode: Opcode, ops: list[str],
                line_number: Optional[int]) -> Instruction:
    if opcode is Opcode.BR:
        _expect(ops, 1, line_number)
        return Instruction(opcode, target=_target(ops[0], line_number))
    if opcode is Opcode.JSR:
        _expect(ops, 2, line_number)
        return Instruction(opcode, rd=parse_register(ops[0]),
                           target=_target(ops[1], line_number))
    # jmp (rs1) / ret (rs1)
    _expect(ops, 1, line_number)
    text = ops[0]
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return Instruction(opcode, rs1=parse_register(text))


def _expect(ops: list[str], count: int, line_number: Optional[int]) -> None:
    if len(ops) != count:
        raise AssemblyError(
            f"expected {count} operand(s), got {len(ops)}", line_number)


def _split_operands(text: str) -> list[str]:
    text = text.strip()
    if not text:
        return []
    return [part.strip() for part in text.split(",")]


def _strip_comment(line: str) -> str:
    for marker in (";", "#"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line


def _reg_or_imm(text: str) -> tuple[Optional[int], int]:
    """Parse the middle operate operand: a register or an immediate."""
    try:
        return parse_register(text), 0
    except ValueError:
        return None, _parse_int(text, None)


def _parse_int(text: str, line_number: Optional[int]) -> int:
    try:
        return int(text.strip(), 0)
    except ValueError:
        raise AssemblyError(f"bad integer {text!r}", line_number)


def _int_or_symbol(text: str, line_number: Optional[int]):
    text = text.strip()
    if _NAME_RE.match(text) and not text.lstrip("-").isdigit():
        return text
    return _parse_int(text, line_number)


def _target(text: str, line_number: Optional[int]):
    text = text.strip()
    if _NAME_RE.match(text):
        return text
    return _parse_int(text, line_number)


def _parse_skip(text: str, line_number: Optional[int]) -> int:
    """Parse a DISE-branch skip distance of the form ``+N``."""
    text = text.strip()
    if text.startswith("+"):
        text = text[1:]
    return _parse_int(text, line_number)
