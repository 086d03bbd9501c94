"""Replacement-sequence templates: directive instantiation."""

import pytest

from repro.dise.template import T, TemplateInstruction, literal, original, template
from repro.errors import DiseError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import SP, dise_reg


TRIGGER = Instruction(Opcode.LDQ, rd=4, rs1=SP, imm=32)


def test_whole_instruction_directive():
    slot = original()
    result = slot.instantiate(TRIGGER)
    # T.INST re-emits the trigger itself: instructions are immutable
    # once resolved, so the slot need not copy.
    assert result is TRIGGER


def test_literal_slot_instantiation_is_cached():
    slot = template(Opcode.ADDQ, rd=1, rs1=2, imm=8)
    first = slot.instantiate(TRIGGER)
    second = slot.instantiate(
        Instruction(Opcode.STQ, rd=7, rs1=SP, imm=0))
    assert first is second  # same pre-decoded instance, trigger-independent
    assert first.decoded is not None


def test_templated_slot_instantiation_is_not_cached():
    slot = template(Opcode.ADDQ, rd=1, rs1=T.RS1, imm=8)
    first = slot.instantiate(TRIGGER)
    second = slot.instantiate(TRIGGER)
    assert first is not second


def test_paper_figure1_production_shape():
    # addq T.RS1, 8, dr0 ; T.OP T.RD, T.IMM(dr0)
    dr0 = dise_reg(0)
    first = template(Opcode.ADDQ, rd=dr0, rs1=T.RS1, imm=8)
    second = template(T.OP, rd=T.RD, rs1=dr0, imm=T.IMM)
    a = first.instantiate(TRIGGER)
    b = second.instantiate(TRIGGER)
    assert a == Instruction(Opcode.ADDQ, rd=dr0, rs1=SP, imm=8)
    assert b == Instruction(Opcode.LDQ, rd=4, rs1=dr0, imm=32)


def test_rd_rs2_directives():
    trigger = Instruction(Opcode.ADDQ, rd=1, rs1=2, rs2=3)
    slot = template(Opcode.CMPEQ, rd=dise_reg(1), rs1=T.RD, rs2=T.RS2)
    result = slot.instantiate(trigger)
    assert (result.rs1, result.rs2) == (1, 3)


def test_pc_directive_fills_the_fetch_address():
    """T.PC is the trigger's fetch address, in immediate and target
    fields; a slot using it is instantiated afresh at every PC."""
    slot = template(Opcode.LDA, rd=dise_reg(1), rs1=31, imm=T.PC)
    first = slot.instantiate(TRIGGER, pc=0x1040)
    assert first == Instruction(Opcode.LDA, rd=dise_reg(1), rs1=31,
                                imm=0x1040)
    assert slot.instantiate(TRIGGER, pc=0x2000).imm == 0x2000
    jump = template(Opcode.BR, target=T.PC)
    assert jump.instantiate(TRIGGER, pc=0x1040).target == 0x1040
    with pytest.raises(DiseError):
        template(Opcode.ADDQ, rd=T.PC, rs1=1, imm=0).instantiate(TRIGGER)


def test_literal_fields_pass_through():
    slot = template(Opcode.CTRAP, rs1=dise_reg(2))
    assert slot.instantiate(TRIGGER).rs1 == dise_reg(2)


def test_target_field():
    slot = template(Opcode.D_CCALL, rs1=dise_reg(2), target=0x9000)
    assert slot.instantiate(TRIGGER).target == 0x9000


def test_invalid_directive_in_register_field():
    slot = template(Opcode.ADDQ, rd=T.IMM, rs1=1, imm=0)
    with pytest.raises(DiseError):
        slot.instantiate(TRIGGER)


def test_invalid_directive_in_imm_field():
    slot = template(Opcode.ADDQ, rd=1, rs1=1, imm=T.RS1)
    with pytest.raises(DiseError):
        slot.instantiate(TRIGGER)


def test_missing_opcode_rejected():
    with pytest.raises(DiseError):
        TemplateInstruction(opcode=None)


def test_literal_wrapper():
    inst = Instruction(Opcode.TRAP)
    assert literal(inst).instantiate(TRIGGER) == inst


def test_describe():
    assert original().describe() == "T.INST"
    text = template(T.OP, rd=T.RD, imm=T.IMM).describe()
    assert text.startswith("T.OP")
