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
    assert engine.expand(_store(base=SP), 0x1000) == (_store(base=SP),)
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
    assert engine.expand(call, 0x1040) == (
        Instruction(Opcode.LDA, rd=dise_reg(1), rs1=31, imm=0x1040), call)
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


def test_remove_drops_emptied_buckets():
    """A removed production leaves no empty bucket behind, so the
    instructions it keyed stop being candidates."""
    engine = DiseEngine()
    stores = _generic_store_production()
    at_pc = Production(Pattern.at_pc(0x2000), [template(Opcode.NOP)],
                       name="by-pc")
    engine.add(stores)
    engine.add(at_pc)
    engine.remove(stores)
    assert engine._by_opclass == {}
    assert engine._by_pc == {0x2000: [at_pc]}
    engine.remove(at_pc)
    assert engine._by_pc == {}
    generic = Production(Pattern(rd=3), [template(Opcode.NOP)], name="rd3")
    engine.add(generic)
    engine.remove(generic)
    assert engine._generic == []
    assert not engine.has_productions


def test_memo_builds_each_trigger_once(sequence_builds):
    engine = DiseEngine()
    engine.add(_generic_store_production())
    store = _store()
    first = engine.expand(store, 0x1000)
    assert engine.expand(store, 0x1000) is first
    assert isinstance(first, tuple) and first[0] is store
    assert sequence_builds == {0x1000: 1}
    # Counters still count every dynamic expansion.
    assert engine.expansions == 2
    assert engine.instructions_inserted == 2
    # The no-match answer is remembered too.
    nop = Instruction(Opcode.NOP)
    assert engine.expand(nop, 0x1004) is None
    assert engine._memo[0x1004] == (nop, None)


def test_memo_answers_only_for_the_same_instruction(sequence_builds):
    engine = DiseEngine()
    engine.add(_generic_store_production())
    first = engine.expand(_store(base=5), 0x1000)
    # An equal but distinct instruction at the PC is another trigger.
    other = _store(base=6)
    second = engine.expand(other, 0x1000)
    assert second[0] is other and first[0] is not other
    assert sequence_builds == {0x1000: 2}


def test_t_pc_slots_get_each_trigger_pc():
    engine = DiseEngine()
    engine.add(Production(
        Pattern.stores(),
        [template(Opcode.LDA, rd=dise_reg(1), rs1=31, imm=T.PC),
         original()], name="at-store"))
    store = _store()
    assert engine.expand(store, 0x1000)[0].imm == 0x1000
    assert engine.expand(store, 0x1008)[0].imm == 0x1008
    assert engine.expand(store, 0x1000)[0].imm == 0x1000


def test_production_changes_and_flush_drop_the_memo(sequence_builds):
    engine = DiseEngine()
    production = _generic_store_production()
    engine.add(production)
    store = _store()
    engine.expand(store, 0x1000)
    extra = Production(Pattern.at_pc(0x2000), [template(Opcode.NOP)],
                       name="by-pc")
    engine.add(extra)
    engine.expand(store, 0x1000)
    engine.remove(extra)
    engine.expand(store, 0x1000)
    engine.flush()
    engine.expand(store, 0x1000)
    assert sequence_builds == {0x1000: 4}
    engine.clear()
    assert engine._memo == {}
    assert engine.expand(store, 0x1000) is None


def test_restore_of_the_held_set_keeps_the_memo(sequence_builds):
    engine = DiseEngine()
    engine.add(_generic_store_production())
    store = _store()
    blob = engine.snapshot()
    sequence = engine.expand(store, 0x1000)
    engine.restore(blob)
    assert engine.expansions == 0
    assert engine.expand(store, 0x1000) is sequence
    assert sequence_builds == {0x1000: 1}


def test_restore_to_another_set_rebuilds(sequence_builds):
    engine = DiseEngine()
    trapping = _generic_store_production()
    engine.add(trapping)
    blob = engine.snapshot()
    store = _store()
    assert engine.expand(store, 0x1000)[1].opcode is Opcode.TRAP
    engine.remove(trapping)
    engine.add(Production(Pattern.stores(),
                          [original(), template(Opcode.NOP)], name="nop"))
    assert engine.expand(store, 0x1000)[1].opcode is Opcode.NOP
    engine.restore(blob)
    assert engine.productions == (trapping,)
    assert engine.expand(store, 0x1000)[1].opcode is Opcode.TRAP
    assert sequence_builds == {0x1000: 3}
