"""The trap architecture: syscall/eret, guest vectors, the timer."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.cpu.machine import (CAUSE_SYSCALL, CAUSE_TIMER, Machine,
                               SYS_EXIT, SYS_GETPID)
from repro.errors import SimulationError
from repro.isa import assemble

TABLE = DEFAULT_CONFIG.with_(interpreter="table")
LEGACY = DEFAULT_CONFIG.with_(interpreter="legacy")
COMPILED = DEFAULT_CONFIG.with_(interpreter="compiled",
                                compiled_hot_threshold=1)
CONFIGS = {"table": TABLE, "legacy": LEGACY, "compiled": COMPILED}


@pytest.mark.parametrize("interp", sorted(CONFIGS))
def test_standalone_getpid_returns_one(interp):
    machine = Machine(assemble("""
    main:
        lda r1, 2
        syscall
        halt
    """), CONFIGS[interp])
    machine.run()
    assert machine.regs[1] == 1
    # The inline emulation never touches the trap registers.
    assert machine.trap_cause == 0 and not machine.kernel_mode


@pytest.mark.parametrize("interp", sorted(CONFIGS))
def test_standalone_exit_halts(interp):
    machine = Machine(assemble("""
    main:
        lda r1, 3
        syscall
        lda r2, 99
        halt
    """), CONFIGS[interp])
    run = machine.run()
    assert run.halted
    assert machine.regs[2] == 0  # exit stops before the next statement


@pytest.mark.parametrize("interp", sorted(CONFIGS))
def test_standalone_yield_and_unknown_are_noops(interp):
    machine = Machine(assemble("""
    main:
        lda r1, 1
        syscall
        lda r1, 77
        syscall
        lda r3, 5
        halt
    """), CONFIGS[interp])
    machine.run()
    assert machine.regs[3] == 5


@pytest.mark.parametrize("interp", sorted(CONFIGS))
def test_guest_trap_vector_services_syscall(interp):
    """With a guest vector installed the machine vectors into the
    handler in kernel mode; ``eret`` resumes after the syscall."""
    program = assemble("""
    main:
        lda r1, 2
        syscall
        lda r5, 123
        halt
    handler:
        lda r1, 42
        eret
    """)
    machine = Machine(program, CONFIGS[interp])
    machine.trap_vector = program.pc_of_label("handler")
    machine.run()
    assert machine.regs[1] == 42  # the guest handler's answer
    assert machine.regs[5] == 123  # eret resumed after the syscall
    assert machine.trap_cause == CAUSE_SYSCALL
    assert machine.trap_value == SYS_GETPID
    assert not machine.kernel_mode


@pytest.mark.parametrize("interp", sorted(CONFIGS))
def test_eret_in_user_mode_raises(interp):
    machine = Machine(assemble("""
    main:
        eret
        halt
    """), CONFIGS[interp])
    with pytest.raises(SimulationError, match="eret in user mode"):
        machine.run()


def test_epc_names_the_instruction_after_the_syscall():
    program = assemble("""
    main:
        lda r1, 3
        syscall
    after:
        halt
    handler:
        eret
    """)
    machine = Machine(program, TABLE)
    machine.trap_vector = program.pc_of_label("handler")
    machine.run()
    assert machine.trap_epc == program.pc_of_label("after")
    assert machine.trap_value == SYS_EXIT


@pytest.mark.parametrize("interp", sorted(CONFIGS))
def test_timer_latches_a_pending_trap(interp):
    """Without a kernel attached, an armed timer still fires: the cause
    parks in ``pending_trap`` at a deterministic boundary."""
    machine = Machine(assemble("""
    main:
        lda r1, 0
    loop:
        addq r1, 1, r1
        cmplt r1, 50, r2
        bne r2, loop
        halt
    """), CONFIGS[interp])
    machine.timer_quantum = 10
    machine.run()
    assert machine.pending_trap == CAUSE_TIMER
    assert machine.kernel_mode
    assert not machine.halted
    assert machine.stats.app_instructions == 10
    # Servicing the trap (as a kernel would) lets the run finish.
    machine.pending_trap = None
    machine.kernel_mode = False
    machine.timer_quantum = 0
    machine.run()
    assert machine.halted
    assert machine.regs[1] == 50


def test_timer_preemption_points_agree_across_interpreters():
    source = """
    main:
        lda r1, 0
    loop:
        addq r1, 1, r1
        mulq r1, 3, r3
        cmplt r1, 200, r2
        bne r2, loop
        halt
    """
    landings = {}
    for interp, config in CONFIGS.items():
        machine = Machine(assemble(source), config)
        machine.timer_quantum = 37
        machine.run()
        landings[interp] = (machine.stats.app_instructions, machine.pc,
                            machine.regs[1])
    assert len(set(landings.values())) == 1, landings


def test_syscall_and_eret_disassemble_bare():
    program = assemble("""
    main:
        syscall
        eret
        halt
    """)
    text = program.disassemble()
    assert "syscall" in text
    assert "eret" in text
