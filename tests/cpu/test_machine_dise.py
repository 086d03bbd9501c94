"""Machine + DISE engine: expansion semantics, DISEPC control flow."""

import pytest

from repro.cpu.machine import Machine
from repro.cpu.stats import TransitionKind
from repro.dise.pattern import Pattern
from repro.dise.production import Production, identity_production
from repro.dise.template import T, original, template
from repro.errors import SimulationError
from repro.isa import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import RA, SP, ZERO_REG, dise_reg

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
    machine.config = machine.config.with_(free_nops=False)
    # Rebuild to honor the config (free_nops read during run).
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
