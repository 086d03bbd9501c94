"""Expansion engine: bucketing, most-specific-wins, the expansion memo."""

from repro.dise.controller import DiseController
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


def _engine(*productions):
    engine = DiseEngine()
    engine.load(productions)
    return engine


def test_no_productions_returns_none():
    engine = DiseEngine()
    assert engine.expand(_store(), 0x1000) is None
    assert engine.productions == ()


def test_non_matching_returns_none():
    engine = _engine(_generic_store_production())
    assert engine.expand(Instruction(Opcode.NOP), 0x1000) is None


def test_basic_expansion():
    engine = _engine(_generic_store_production())
    expansion = engine.expand(_store(), 0x1000)
    assert [i.opcode for i in expansion] == [Opcode.STQ, Opcode.TRAP]


def test_most_specific_wins():
    engine = _engine(_generic_store_production(),
                     identity_production(Pattern.stores(base_register=SP),
                                         name="stack-identity"))
    # Stack store: the more specific identity production applies.
    assert engine.expand(_store(base=SP), 0x1000) == (_store(base=SP),)
    # Other stores: the generic watchpoint expansion.
    assert len(engine.expand(_store(base=5), 0x1000)) == 2


def test_pc_pattern_overrides_class_pattern():
    engine = _engine(_generic_store_production(),
                     Production(Pattern.at_pc(0x2000),
                                [template(Opcode.NOP)], name="by-pc"))
    assert engine.expand(_store(), 0x2000)[0].opcode is Opcode.NOP
    assert engine.expand(_store(), 0x2004)[0].opcode is Opcode.STQ


def test_codeword_bucket():
    engine = _engine(Production(Pattern.for_codeword(7),
                                [template(Opcode.TRAP)], name="bp"))
    assert engine._by_codeword.keys() == {7}
    codeword = Instruction(Opcode.CODEWORD, imm=7)
    assert engine.expand(codeword, 0)[0].opcode is Opcode.TRAP
    assert engine.expand(Instruction(Opcode.CODEWORD, imm=8), 0) is None


def test_generic_bucket():
    rd3 = Production(Pattern(rd=3), [template(Opcode.NOP)], name="rd3")
    engine = _engine(rd3)
    assert engine._generic == [rd3]
    assert engine.expand(Instruction(Opcode.ADDQ, rd=3, rs1=1, rs2=2),
                         0) is not None
    assert engine.expand(Instruction(Opcode.ADDQ, rd=4, rs1=1, rs2=2),
                         0) is None
    # An opcode pattern is generic too; the engine hands the trigger's
    # fetch address to T.PC.
    engine.load((rd3, Production(
        Pattern(opcode=Opcode.JSR),
        [template(Opcode.LDA, rd=dise_reg(1), rs1=31, imm=T.PC),
         original()], name="at-call")))
    call = Instruction(Opcode.JSR, rd=26, target=0x2000)
    assert engine.expand(call, 0x1040) == (
        Instruction(Opcode.LDA, rd=dise_reg(1), rs1=31, imm=0x1040), call)
    assert engine.expand(Instruction(Opcode.RET, rs1=26), 0x1040) is None


def test_remove_production():
    """Loading a set without a production takes it out of matching."""
    production = _generic_store_production()
    engine = _engine(production)
    engine.load(())
    assert engine.expand(_store(), 0) is None
    assert engine.productions == ()


def test_tie_breaks_toward_earliest_installed():
    """Equal specificity: the earliest production of the resident set
    wins, whatever sets were resident before."""
    first = Production(Pattern.stores(), [original(), template(Opcode.TRAP)],
                       name="first")
    second = Production(Pattern.stores(), [original(), template(Opcode.NOP)],
                        name="second")
    engine = _engine(first, second)
    assert engine.expand(_store(), 0x1000)[1].opcode is Opcode.TRAP
    engine.load((second,))
    assert engine.expand(_store(), 0x1000)[1].opcode is Opcode.NOP
    engine.load((first, second))
    assert engine.expand(_store(), 0x1000)[1].opcode is Opcode.TRAP


def test_remove_drops_emptied_buckets():
    """Loading a smaller set leaves no empty bucket behind, so the
    instructions it keyed stop being candidates; the loops' bindings
    (refilled in place) see the change."""
    stores = _generic_store_production()
    at_pc = Production(Pattern.at_pc(0x2000), [template(Opcode.NOP)],
                       name="by-pc")
    generic = Production(Pattern(rd=3), [template(Opcode.NOP)], name="rd3")
    engine = DiseEngine()
    bound = (engine._productions, engine._by_pc, engine._by_opclass,
             engine._generic)
    engine.load((stores, at_pc, generic))
    assert engine._by_opclass.keys() == {stores.pattern.opclass}
    engine.load((at_pc,))
    assert engine._by_opclass == {}
    assert engine._by_pc == {0x2000: [at_pc]}
    assert engine._generic == []
    engine.load(())
    assert engine._by_pc == {}
    assert bound == ([], {}, {}, [])
    assert bound[0] is engine._productions and bound[1] is engine._by_pc


def test_memo_builds_each_trigger_once(sequence_builds):
    engine = _engine(_generic_store_production())
    store = _store()
    first = engine.expand(store, 0x1000)
    assert engine.expand(store, 0x1000) is first
    assert isinstance(first, tuple) and first[0] is store
    assert sequence_builds == {0x1000: 1}
    # The no-match answer is remembered too.
    nop = Instruction(Opcode.NOP)
    assert engine.expand(nop, 0x1004) is None
    assert engine._memo[0x1004] == (nop, None)


def test_memo_answers_only_for_the_same_instruction(sequence_builds):
    engine = _engine(_generic_store_production())
    first = engine.expand(_store(base=5), 0x1000)
    # An equal but distinct instruction at the PC is another trigger.
    other = _store(base=6)
    second = engine.expand(other, 0x1000)
    assert second[0] is other and first[0] is not other
    assert sequence_builds == {0x1000: 2}


def test_t_pc_slots_get_each_trigger_pc():
    engine = _engine(Production(
        Pattern.stores(),
        [template(Opcode.LDA, rd=dise_reg(1), rs1=31, imm=T.PC),
         original()], name="at-store"))
    store = _store()
    assert engine.expand(store, 0x1000)[0].imm == 0x1000
    assert engine.expand(store, 0x1008)[0].imm == 0x1008
    assert engine.expand(store, 0x1000)[0].imm == 0x1000


def test_loading_another_set_drops_the_memo(sequence_builds):
    """Loading the resident set again keeps its sequences; loading
    another set starts an empty memo."""
    production = _generic_store_production()
    extra = Production(Pattern.at_pc(0x2000), [template(Opcode.NOP)],
                       name="by-pc")
    engine = _engine(production)
    store = _store()
    sequence = engine.expand(store, 0x1000)
    engine.load([production])
    assert engine.expand(store, 0x1000) is sequence
    engine.load((production, extra))
    assert engine._memo == {}
    assert engine.expand(store, 0x1000) is not sequence
    engine.load((production,))
    engine.expand(store, 0x1000)
    assert sequence_builds == {0x1000: 3}


def test_production_changes_and_flush_drop_the_memo(sequence_builds):
    """Installing or deactivating a resident production, or a text
    change (flush), drops the memo."""
    controller = DiseController(DiseEngine())
    engine = controller.engine
    production = controller.install(_generic_store_production())
    store = _store()
    engine.expand(store, 0x1000)
    extra = controller.install(Production(
        Pattern.at_pc(0x2000), [template(Opcode.NOP)], name="by-pc"))
    engine.expand(store, 0x1000)
    controller.deactivate(extra)
    engine.expand(store, 0x1000)
    engine.flush()
    engine.expand(store, 0x1000)
    assert sequence_builds == {0x1000: 4}
    controller.deactivate(production)
    assert engine._memo == {}
    assert engine.expand(store, 0x1000) is None


def test_restore_of_the_held_set_keeps_the_memo(sequence_builds):
    controller = DiseController(DiseEngine())
    engine = controller.engine
    controller.install(_generic_store_production())
    store = _store()
    blob = controller.snapshot()
    sequence = engine.expand(store, 0x1000)
    controller.restore(blob)
    assert engine.expand(store, 0x1000) is sequence
    assert sequence_builds == {0x1000: 1}


def test_restore_to_another_set_rebuilds(sequence_builds):
    controller = DiseController(DiseEngine())
    engine = controller.engine
    trapping = controller.install(_generic_store_production())
    blob = controller.snapshot()
    store = _store()
    assert engine.expand(store, 0x1000)[1].opcode is Opcode.TRAP
    controller.deactivate(trapping)
    controller.install(Production(Pattern.stores(),
                                  [original(), template(Opcode.NOP)],
                                  name="nop"))
    assert engine.expand(store, 0x1000)[1].opcode is Opcode.NOP
    controller.restore(blob)
    assert engine.productions == (trapping,)
    assert engine.expand(store, 0x1000)[1].opcode is Opcode.TRAP
    assert sequence_builds == {0x1000: 3}
