"""Program layout, symbols, appends, copying."""

import pytest

from repro.debugger.session import Session
from repro.errors import AssemblyError
from repro.isa.assembler import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import (DATA_BASE, INSTRUCTION_BYTES, DataItem,
                               Program, TEXT_BASE)
from repro.workloads.benchmarks import build_benchmark


def _simple_program() -> "Program":
    return assemble("""
    .data
    var: .quad 5
    .text
    main:
        lda r1, var
        halt
    """)


def test_pc_index_mapping():
    program = _simple_program()
    assert program.pc_of_index(0) == TEXT_BASE
    assert program.index_of_pc(TEXT_BASE + 4) == 1
    end = program.pc_of_index(len(program.instructions))
    for pc in (TEXT_BASE + 2, TEXT_BASE - 4, end, end + 0x1000):
        with pytest.raises(AssemblyError):  # misaligned or outside text
            program.index_of_pc(pc)


def test_data_layout_starts_at_base_and_aligns():
    program = assemble("""
    .data
    a: .byte 1
    b: .quad 2
    .text
    main: halt
    """)
    a = program.symbol("a")
    b = program.symbol("b")
    assert a.address == DATA_BASE
    assert b.address % 8 == 0
    assert b.address >= a.address + a.size


def test_unknown_symbol_raises():
    with pytest.raises(AssemblyError):
        _simple_program().symbol("missing")


def test_append_data_returns_fresh_address():
    program = _simple_program()
    end_before = program.data_segment_extent()[1]
    address = program.append_data("extra", 64, init=b"\xAA" * 64)
    assert address >= end_before
    assert program.symbol("extra").size == 64


def test_append_data_alignment():
    program = _simple_program()
    address = program.append_data("aligned", 2048, align=2048)
    assert address % 2048 == 0


def test_append_data_duplicate_name_rejected():
    program = _simple_program()
    program.append_data("extra", 8)
    with pytest.raises(AssemblyError):
        program.append_data("extra", 8)


def test_append_function_resolves_and_extends_text():
    program = _simple_program()
    end_pc = program.text_end_pc
    body = [Instruction(Opcode.NOP), Instruction(Opcode.D_RET)]
    entry = program.append_function("helper", body)
    assert entry == end_pc
    assert program.pc_of_label("helper") == entry
    assert len(program) == 4


def test_append_function_duplicate_label_rejected():
    program = _simple_program()
    program.append_function("helper", [Instruction(Opcode.D_RET)])
    with pytest.raises(AssemblyError):
        program.append_function("helper", [Instruction(Opcode.D_RET)])


def test_appended_code_can_reference_data_symbols():
    program = _simple_program()
    body = [Instruction(Opcode.LDA, rd=1, rs1=31, imm="var"),
            Instruction(Opcode.D_RET)]
    program.append_function("helper", body)
    assert program.instructions[-2].imm == program.address_of("var")


def test_copy_is_independent():
    """A copy's slots, appends, labels and symbols are its own; the
    instructions themselves are shared (nothing edits one in place)."""
    program = _simple_program()
    clone = program.copy()
    assert clone.instructions == program.instructions
    assert all(a is b for a, b in zip(clone.instructions,
                                      program.instructions))
    halt = program.instructions[1]
    clone.instructions[1] = Instruction(Opcode.NOP)
    clone.append_function("extra", [Instruction(Opcode.HALT)])
    clone.labels["other"] = 0
    clone.append_data("more", 8)
    clone.statement_starts.add(1)
    assert len(program.instructions) == 2
    assert program.instructions[1] is halt
    assert "extra" not in program.labels and "other" not in program.labels
    assert "extra" not in program.symbols and "more" not in program.symbols
    assert [item.name for item in program.data_items] == ["var"]
    assert 1 not in program.statement_starts


def test_a_rewritten_copy_leaves_the_source_targets_alone():
    """The binary rewriter retargets copies of the instructions it
    moves, never the instructions its source program holds."""
    program = build_benchmark("mcf")
    targets = [inst.target for inst in program.instructions]
    session = Session(program, backend="binary_rewrite")
    session.watch("hot")
    rewritten = session.build_backend().program
    assert [inst.target for inst in program.instructions] == targets
    source = {id(inst) for inst in program.instructions}
    moved = [inst for inst in rewritten.instructions
             if isinstance(inst.target, int) and inst.target not in targets]
    assert moved and not any(id(inst) in source for inst in moved)


def test_copy_preserves_symbols_and_statements():
    program = _simple_program()
    program.statement_starts.add(1)
    clone = program.copy()
    assert clone.symbol("var").address == program.symbol("var").address
    assert clone.statement_starts == program.statement_starts


def test_disassemble_includes_labels():
    text = _simple_program().disassemble()
    assert "main:" in text
    assert "lda" in text


def test_data_item_validation():
    with pytest.raises(AssemblyError):
        DataItem("bad", 0)
    with pytest.raises(AssemblyError):
        DataItem("bad", 4, init=b"12345")
    with pytest.raises(AssemblyError):
        DataItem("bad", 8, align=3)


def test_entry_pc_by_index():
    program = Program([Instruction(Opcode.HALT)], entry=0)
    program.finalize()
    assert program.entry_pc == TEXT_BASE


def test_text_bytes():
    program = _simple_program()
    assert program.text_bytes == 2 * INSTRUCTION_BYTES
