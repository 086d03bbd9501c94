"""Machine + DISE engine: expansion semantics, DISEPC control flow."""

import pytest

from repro.cpu.machine import Machine
from repro.cpu.stats import TransitionKind
from repro.debugger.dispatcher import CommandDispatcher
from repro.debugger.session import Session
from repro.dise.engine import DiseEngine
from repro.dise.pattern import Pattern
from repro.dise.production import Production, identity_production
from repro.dise.template import T, original, template
from repro.errors import SimulationError
from repro.isa import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import RA, SP, ZERO_REG, dise_reg
from repro.workloads.benchmarks import build_benchmark

DR0, DR1, DR2 = dise_reg(0), dise_reg(1), dise_reg(2)


def _machine(source, *productions, trap_handler=None):
    program = assemble(source)
    machine = Machine(program, trap_handler=trap_handler)
    for production in productions:
        machine.dise_controller.install(production)
    return program, machine


def test_figure1_load_offset_production():
    """The paper's Figure 1: add 8 to the address of sp-based loads."""
    production = Production(
        Pattern.loads(base_register=SP),
        [template(Opcode.ADDQ, rd=DR0, rs1=T.RS1, imm=8),
         template(T.OP, rd=T.RD, rs1=DR0, imm=T.IMM)],
        name="fig1")
    program, machine = _machine("""
    main:
        lda r2, 0xAB
        stq r2, 40(sp)     ; value lives at sp+40
        ldq r4, 32(sp)     ; rewritten to load from sp+8+32
        halt
    """, production)
    machine.run()
    assert machine.regs[4] == 0xAB
    assert machine.stats.dise_expansions == 1
    assert machine.stats.dise_instructions == 1  # one added instruction


def test_expansion_counts_app_and_dise_instructions():
    production = Production(
        Pattern.stores(),
        [original(), template(Opcode.NOP), template(Opcode.NOP)],
        name="pad")
    _, machine = _machine("""
    main:
        stq r1, 0(sp)
        halt
    """, production)
    result = machine.run()
    # The trigger slot counts as the application store.
    assert result.stats.app_instructions == 2  # store + halt


def test_dise_branch_skips_within_sequence():
    # d_bne dr1, +1 skips the trap when dr1 != 0.
    production = Production(
        Pattern.stores(),
        [original(),
         template(Opcode.D_BNE, rs1=DR1, imm=1),
         template(Opcode.TRAP)],
        name="skip")
    traps = []
    _, machine = _machine("""
    main:
        stq r1, 0(sp)
        stq r1, 8(sp)
        halt
    """, production, trap_handler=lambda e: traps.append(e) or
        TransitionKind.USER)
    machine.dise_regs.write(1, 1)  # branch taken -> no traps
    machine.run()
    assert not traps
    assert machine.stats.dise_branch_flushes == 2


def test_dise_branch_not_taken_falls_through():
    production = Production(
        Pattern.stores(),
        [original(),
         template(Opcode.D_BNE, rs1=DR1, imm=1),
         template(Opcode.TRAP)],
        name="fall")
    traps = []
    _, machine = _machine("""
    main:
        stq r1, 0(sp)
        halt
    """, production, trap_handler=lambda e: traps.append(e) or
        TransitionKind.USER)
    machine.run()  # dr1 == 0 -> falls into the trap
    assert len(traps) == 1


def test_dise_branch_to_sequence_end():
    production = Production(
        Pattern.stores(),
        [original(), template(Opcode.D_BR, imm=1),
         template(Opcode.TRAP), template(Opcode.NOP)],
        name="end")
    # d_br +1 from index 1 lands at index 3 (the nop), sequence ends.
    traps = []
    _, machine = _machine("""
    main:
        stq r1, 0(sp)
        addq r9, 1, r9
        halt
    """, production, trap_handler=lambda e: traps.append(e) or
        TransitionKind.USER)
    machine.run()
    assert not traps
    assert machine.regs[9] == 1  # execution continued correctly


def test_dise_call_and_return():
    """d_call runs a conventional function with DISE disabled, then
    returns to the remainder of the replacement sequence."""
    program = assemble("""
    main:
        stq r1, 0(sp)
        halt
    func:
        d_mtr r5, 0        ; dr0 = r5 (would recurse if DISE were live)
        stq r6, 16(sp)     ; a store inside the function: NOT expanded
        d_ret
    """)
    production = Production(
        Pattern.stores(),
        [original(),
         template(Opcode.D_CALL, target=program.pc_of_label("func")),
         template(Opcode.ADDQ, rd=DR2, rs1=DR2, imm=1)],
        name="call")
    machine = Machine(program)
    machine.dise_controller.install(production)
    machine.regs[5] = 0x77
    machine.run()
    # dr0 written via d_mtr inside the function.
    assert machine.dise_regs.read(0) == 0x77
    # The post-call slot of the sequence executed.
    assert machine.dise_regs.read(2) == 1
    # Only the app store was expanded; the function's store was not
    # (DISE is disabled inside DISE-called functions).
    assert machine.stats.dise_expansions == 1
    assert machine.stats.function_instructions == 3
    assert machine.stats.dise_call_flushes == 2  # call + return


def test_d_ccall_not_taken_skips_call():
    program = assemble("""
    main:
        stq r1, 0(sp)
        halt
    func:
        d_ret
    """)
    production = Production(
        Pattern.stores(),
        [original(),
         template(Opcode.D_CCALL, rs1=DR1,
                  target=program.pc_of_label("func"))],
        name="ccall")
    machine = Machine(program)
    machine.dise_controller.install(production)
    machine.run()  # dr1 == 0: no call
    assert machine.stats.function_instructions == 0
    assert machine.stats.dise_call_flushes == 0


def test_ctrap_semantics():
    traps = []
    production = Production(
        Pattern.stores(),
        [original(), template(Opcode.CTRAP, rs1=DR1)],
        name="ctrap")
    _, machine = _machine("""
    main:
        stq r1, 0(sp)
        stq r1, 8(sp)
        halt
    """, production, trap_handler=lambda e: traps.append(e) or
        TransitionKind.USER)
    machine.dise_regs.write(1, 1)
    machine.run()
    assert len(traps) == 2  # ctrap fires when the register is non-zero


def test_conventional_branch_in_sequence_abandons_expansion():
    # A taken conventional branch inside a sequence jumps to <newPC:0>.
    program = assemble("""
    main:
        stq r1, 0(sp)
        lda r9, 1
        halt
    elsewhere:
        lda r9, 2
        halt
    """)
    production = Production(
        Pattern.stores(),
        [original(),
         template(Opcode.BR, target=program.pc_of_label("elsewhere")),
         template(Opcode.TRAP)],  # never reached
        name="jump-out")
    machine = Machine(program)
    machine.dise_controller.install(production)
    machine.run()
    assert machine.regs[9] == 2
    assert machine.stats.traps == 0


def test_call_and_return_triggers():
    """A shadow stack's shape: the call's expansion stores the trigger's
    address (T.PC) with an inserted store that no store pattern expands
    again, the re-emitted call still links to its own pc + 4, and a
    ctrap ahead of a return fires before the return executes."""
    program = assemble("""
    .data
    shadow: .quad 0
    .text
    main:
        jsr ra, helper
        lda r9, 1
        halt
    helper:
        ret (ra)
    """)
    shadow = program.address_of("shadow")
    call_pc = program.pc_of_label("main")
    push = Production(
        Pattern(opcode=Opcode.JSR),
        [template(Opcode.LDA, rd=DR1, rs1=ZERO_REG, imm=T.PC),
         template(Opcode.STQ, rd=DR1, rs1=ZERO_REG, imm=shadow),
         original()],
        name="push")
    check = Production(Pattern(opcode=Opcode.RET),
                       [template(Opcode.CTRAP, rs1=DR2), original()],
                       name="check")
    count = Production(
        Pattern.stores(),
        [original(), template(Opcode.ADDQ, rd=DR0, rs1=DR0, imm=1)],
        name="count-stores")
    for armed in (False, True):
        traps = []
        machine = Machine(program, trap_handler=lambda e: traps.append(e)
                          or TransitionKind.USER)
        for production in (push, check, count):
            machine.dise_controller.install(production)
        machine.dise_regs.write(2, int(armed))
        machine.run()
        assert machine.halted
        assert machine.memory.read_int(shadow, 8) == call_pc
        assert machine.dise_regs.read(0) == 0
        assert machine.regs[RA] == call_pc + 4
        assert machine.regs[9] == 1
        assert [t.pc for t in traps] == (
            [program.pc_of_label("helper")] if armed else [])


def test_identity_production_overrides_generic():
    traps = []
    generic = Production(Pattern.stores(),
                         [original(), template(Opcode.TRAP)], name="generic")
    stack = identity_production(Pattern.stores(base_register=SP),
                                name="stack")
    _, machine = _machine("""
    .data
    heap: .quad 0
    .text
    main:
        stq r1, 0(sp)      ; pruned: identity expansion
        lda r2, heap
        stq r1, 0(r2)      ; generic expansion traps
        halt
    """, generic, stack, trap_handler=lambda e: traps.append(e) or
        TransitionKind.USER)
    machine.run()
    assert len(traps) == 1


def test_codeword_trigger():
    traps = []
    production = Production(
        Pattern.for_codeword(9),
        [template(Opcode.TRAP), template(Opcode.NOP)],
        name="bp")
    _, machine = _machine("""
    main:
        codeword 9
        halt
    """, production, trap_handler=lambda e: traps.append(e) or
        TransitionKind.USER)
    machine.run()
    assert len(traps) == 1


def test_codeword_without_production_is_error():
    program = assemble("main:\n    codeword 5\n    halt")
    machine = Machine(program)
    with pytest.raises(SimulationError):
        machine.run()


def test_d_ret_outside_function_is_error():
    program = assemble("main:\n    d_ret\n    halt")
    machine = Machine(program)
    with pytest.raises(SimulationError):
        machine.run()


def test_d_mfr_outside_function_is_error():
    program = assemble("main:\n    d_mfr r1, 0\n    halt")
    machine = Machine(program)
    with pytest.raises(SimulationError):
        machine.run()


def test_breakpoint_trap_has_no_stale_store_context():
    """A trap that does not follow a store-check sequence must not leak
    the previous unrelated store's address/size/value."""
    events = []
    production = Production(
        Pattern.for_codeword(3),
        [template(Opcode.TRAP), template(Opcode.NOP)],
        name="bp")
    _, machine = _machine("""
    main:
        lda r1, 0xBEEF
        stq r1, 0(sp)      ; unrelated store
        codeword 3         ; breakpoint: trap without a store check
        halt
    """, production, trap_handler=lambda e: events.append(e) or
        TransitionKind.USER)
    machine.run()
    assert len(events) == 1
    assert (events[0].address, events[0].size, events[0].value) == (0, 0, 0)


def test_watchpoint_trap_keeps_store_context():
    """A trap following its expansion's store still carries the store's
    address/size/value (the watchpoint check needs them)."""
    events = []
    production = Production(
        Pattern.stores(),
        [original(), template(Opcode.TRAP)],
        name="watch")
    _, machine = _machine("""
    main:
        lda r1, 0xBEEF
        stq r1, 16(sp)
        halt
    """, production, trap_handler=lambda e: events.append(e) or
        TransitionKind.USER)
    machine.run()
    assert len(events) == 1
    assert events[0].value == 0xBEEF
    assert events[0].size == 8


def test_dise_registers_isolated_from_app():
    """DISE registers persist across expansions and are invisible to
    conventional code."""
    production = Production(
        Pattern.stores(),
        [original(), template(Opcode.ADDQ, rd=DR0, rs1=DR0, imm=1)],
        name="count-stores")
    _, machine = _machine("""
    main:
        stq r1, 0(sp)
        stq r1, 8(sp)
        stq r1, 16(sp)
        halt
    """, production)
    machine.run()
    assert machine.dise_regs.read(0) == 3
    assert all(r == 0 for i, r in enumerate(machine.regs)
               if i not in (30,))  # only sp is non-zero


# -- built sequences: one per trigger PC, dropped on every change -----------

STORE_LOOP = """
.data
hot: .quad 0
.text
main:
    lda r5, hot
    lda r4, 77
    lda r1, 0
loop:
    addq r1, 1, r1
    stq r1, 0(r5)
    cmplt r1, 6, r2
    bne r2, loop
    halt
"""
STORE_INDEX = 4  # the loop's stq


def _rebuilt_store(counter=DR0):
    """Stores re-emitted from the trigger's fields (so a stale sequence
    would store the old register), counting into ``counter``."""
    return Production(
        Pattern.stores(),
        [template(T.OP, rd=T.RD, rs1=T.RS1, imm=T.IMM),
         template(Opcode.ADDQ, rd=counter, rs1=counter, imm=1)],
        name=f"rebuilt-{counter}")


def _hot(program, machine):
    return machine.memory.read_int(program.symbols["hot"].address, 8)


@pytest.mark.parametrize("change", ("patch_text", "reload_text"))
def test_in_place_edit_of_a_trigger_drops_its_sequence(change):
    """An edited trigger keeps its identity, so only the text change
    itself can tell the engine to rebuild."""
    program, machine = _machine(STORE_LOOP, _rebuilt_store())
    machine.run(max_app_instructions=3 + 4 * 2)
    assert _hot(program, machine) == 2
    store = machine._text[STORE_INDEX]
    store.rd = 4  # now stores r4 (77)
    if change == "patch_text":
        machine.patch_text(machine._text_base + 4 * STORE_INDEX, store)
    else:
        machine.reload_text()
    machine.run()
    assert _hot(program, machine) == 77
    assert machine.dise_regs.read(0) == 6


def test_patch_text_with_a_new_trigger_rebuilds(sequence_builds):
    program, machine = _machine(STORE_LOOP, _rebuilt_store())
    pc = machine._text_base + 4 * STORE_INDEX
    machine.run(max_app_instructions=3 + 4 * 2)
    patch = assemble("main:\n    stq r4, 0(r5)\n    halt\n").instructions[0]
    machine.patch_text(pc, patch)
    machine.run()
    assert _hot(program, machine) == 77
    assert sequence_builds == {pc: 2}


def test_production_changes_rebuild_sequences(sequence_builds):
    first, second = _rebuilt_store(DR0), _rebuilt_store(DR1)
    program, machine = _machine(STORE_LOOP, first)
    pc = machine._text_base + 4 * STORE_INDEX
    controller = machine.dise_controller
    machine.run(max_app_instructions=3 + 4 * 2)
    controller.deactivate(first)
    controller.install(second)
    machine.run()
    assert (machine.dise_regs.read(0), machine.dise_regs.read(1)) == (2, 4)
    assert sequence_builds == {pc: 2}


def test_deactivate_then_activate_rebuilds(sequence_builds):
    production = _rebuilt_store()
    program, machine = _machine(STORE_LOOP, production)
    pc = machine._text_base + 4 * STORE_INDEX
    controller = machine.dise_controller
    machine.run(max_app_instructions=3 + 4 * 2)
    controller.deactivate(production)
    machine.run(max_app_instructions=3 + 4 * 3)
    controller.activate(production)
    machine.run()
    assert machine.dise_regs.read(0) == 5
    assert sequence_builds == {pc: 2}


def test_restore_to_a_different_production_set(sequence_builds):
    """A checkpoint taken under another production set reinstalls it,
    and the sequences built under the later set are not reused."""
    first, second = _rebuilt_store(DR0), _rebuilt_store(DR1)
    program, machine = _machine(STORE_LOOP, first)
    pc = machine._text_base + 4 * STORE_INDEX
    controller = machine.dise_controller
    machine.run(max_app_instructions=3 + 4 * 2)
    blob = machine.snapshot()
    controller.deactivate(first)
    controller.install(second)
    machine.run()
    assert machine.dise_regs.read(1) == 4
    machine.restore(blob)
    assert machine.dise_engine.productions == (first,)
    machine.run()
    assert (machine.dise_regs.read(0), machine.dise_regs.read(1)) == (6, 0)
    assert sequence_builds == {pc: 3}


def test_restore_of_the_same_set_keeps_sequences(sequence_builds):
    """Rewinding under an unchanged production set reuses every built
    sequence, and a snapshot taken mid-expansion shares its tuple."""
    program, machine = _machine(STORE_LOOP, _rebuilt_store())
    pc = machine._text_base + 4 * STORE_INDEX
    machine.run(max_app_instructions=3 + 4 + 2)  # stops after a trigger
    sequence = machine._expansion
    assert sequence is not None
    blob = machine.snapshot()
    assert blob["expansion"][0] is sequence
    machine.run()
    for _ in range(3):
        machine.restore(blob)
        assert machine._expansion is sequence
        machine.run()
    assert _hot(program, machine) == 6
    assert machine.dise_regs.read(0) == 6
    assert sequence_builds == {pc: 1}


def test_bzip2_session_builds_each_trigger_once(sequence_builds,
                                                 monkeypatch):
    """Through forward, reverse and time-travel verbs, a DISE session
    builds each trigger PC's sequence at most once."""
    expand = DiseEngine.expand
    calls = []

    def counted(engine, inst, pc):
        calls.append(pc)
        return expand(engine, inst, pc)

    monkeypatch.setattr(DiseEngine, "expand", counted)
    dispatcher = CommandDispatcher(build_benchmark("bzip2"), backend="dise")
    for verb, args in (("watch", ["warm1"]), ("run", ["4000"]),
                       ("continue", ["4000"]), ("continue", ["4000"]),
                       ("reverse-continue", []), ("rewind", ["500"]),
                       ("last-write", ["warm1"]), ("continue", ["4000"])):
        dispatcher.dispatch(verb, args)
    assert sequence_builds and max(sequence_builds.values()) == 1
    assert len(calls) > 50 * len(sequence_builds)


def test_memo_is_bounded_by_the_text():
    """After a long session with many restores, the engine holds at
    most one sequence per text PC."""
    session = Session(build_benchmark("gcc"), backend="dise")
    session.watch("warm1")
    backend = session.build_backend()
    machine = backend.machine
    blobs = []
    for step in range(50):  # 100K instructions, 50 restores
        machine.run(max_app_instructions=machine.stats.app_instructions
                    + 2_000)
        blobs.append(backend.snapshot())
        backend.restore(blobs[step // 2])
    memo = machine.dise_engine._memo
    text_pcs = range(machine._text_base, machine._text_end, 4)
    assert memo and set(memo) <= set(text_pcs)
    assert len(memo) <= len(machine._text)
