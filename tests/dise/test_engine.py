"""Expansion engine: bucketing, most-specific-wins, stats."""

from repro.dise.engine import DiseEngine
from repro.dise.pattern import Pattern
from repro.dise.production import Production, identity_production
from repro.dise.template import T, original, template
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import SP, dise_reg


def _store(base=5):
    return Instruction(Opcode.STQ, rd=1, rs1=base, imm=0)


def _generic_store_production():
    return Production(Pattern.stores(),
                      [original(), template(Opcode.TRAP)],
                      name="generic")


def test_no_productions_returns_none():
    engine = DiseEngine()
    assert engine.expand(_store(), 0x1000) is None
    assert not engine.has_productions


def test_non_matching_returns_none():
    engine = DiseEngine()
    engine.add(_generic_store_production())
    assert engine.expand(Instruction(Opcode.NOP), 0x1000) is None


def test_basic_expansion_and_stats():
    engine = DiseEngine()
    engine.add(_generic_store_production())
    expansion = engine.expand(_store(), 0x1000)
    assert [i.opcode for i in expansion] == [Opcode.STQ, Opcode.TRAP]
    assert engine.expansions == 1
    assert engine.instructions_inserted == 1


def test_most_specific_wins():
    engine = DiseEngine()
    engine.add(_generic_store_production())
    engine.add(identity_production(Pattern.stores(base_register=SP),
                                   name="stack-identity"))
    # Stack store: the more specific identity production applies.
    assert engine.expand(_store(base=SP), 0x1000) == [_store(base=SP)]
    # Other stores: the generic watchpoint expansion.
    assert len(engine.expand(_store(base=5), 0x1000)) == 2


def test_pc_pattern_overrides_class_pattern():
    engine = DiseEngine()
    engine.add(_generic_store_production())
    engine.add(Production(Pattern.at_pc(0x2000),
                          [template(Opcode.NOP)], name="by-pc"))
    assert engine.expand(_store(), 0x2000)[0].opcode is Opcode.NOP
    assert engine.expand(_store(), 0x2004)[0].opcode is Opcode.STQ


def test_codeword_bucket():
    engine = DiseEngine()
    engine.add(Production(Pattern.for_codeword(7),
                          [template(Opcode.TRAP)], name="bp"))
    codeword = Instruction(Opcode.CODEWORD, imm=7)
    assert engine.expand(codeword, 0)[0].opcode is Opcode.TRAP
    assert engine.expand(Instruction(Opcode.CODEWORD, imm=8), 0) is None


def test_generic_bucket():
    engine = DiseEngine()
    engine.add(Production(Pattern(rd=3), [template(Opcode.NOP)],
                          name="rd3"))
    assert engine.expand(Instruction(Opcode.ADDQ, rd=3, rs1=1, rs2=2),
                         0) is not None
    assert engine.expand(Instruction(Opcode.ADDQ, rd=4, rs1=1, rs2=2),
                         0) is None
    # An opcode pattern is generic too; the engine hands the trigger's
    # fetch address to T.PC.
    engine.add(Production(
        Pattern(opcode=Opcode.JSR),
        [template(Opcode.LDA, rd=dise_reg(1), rs1=31, imm=T.PC),
         original()], name="at-call"))
    call = Instruction(Opcode.JSR, rd=26, target=0x2000)
    assert engine.expand(call, 0x1040) == [
        Instruction(Opcode.LDA, rd=dise_reg(1), rs1=31, imm=0x1040), call]
    assert engine.expand(Instruction(Opcode.RET, rs1=26), 0x1040) is None


def test_remove_production():
    engine = DiseEngine()
    production = _generic_store_production()
    engine.add(production)
    engine.remove(production)
    assert engine.expand(_store(), 0) is None
    assert not engine.has_productions


def test_disable_engine():
    engine = DiseEngine()
    engine.add(_generic_store_production())
    engine.enabled = False
    assert engine.expand(_store(), 0) is None


def test_tie_breaks_toward_earliest_installed():
    """Equal specificity: the earliest-installed production wins, and
    re-adding at a preserved order restores the original priority."""
    engine = DiseEngine()
    first = Production(Pattern.stores(), [original(), template(Opcode.TRAP)],
                       name="first")
    second = Production(Pattern.stores(), [original(), template(Opcode.NOP)],
                        name="second")
    engine.add(first)
    engine.add(second)
    assert engine.expand(_store(), 0x1000)[1].opcode is Opcode.TRAP
    order = engine.remove(first)
    assert engine.expand(_store(), 0x1000)[1].opcode is Opcode.NOP
    engine.add(first, order=order)
    assert engine.expand(_store(), 0x1000)[1].opcode is Opcode.TRAP


def test_clear_and_reset_stats():
    engine = DiseEngine()
    engine.add(_generic_store_production())
    engine.expand(_store(), 0)
    engine.clear()
    engine.reset_stats()
    assert engine.expansions == 0
    assert not engine.has_productions
