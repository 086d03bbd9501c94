"""Round-robin scheduling: completion, isolation, determinism."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.cpu.machine import Machine
from repro.errors import SimulationError
from repro.isa import assemble
from repro.kernel import DEFAULT_QUANTUM, Kernel, ProcessContext
from repro.workloads.corpus import (load_program_file, programs_dir,
                                    system_corpus)

TABLE = DEFAULT_CONFIG.with_(interpreter="table")
COMPILED = DEFAULT_CONFIG.with_(interpreter="compiled",
                                compiled_hot_threshold=1)
TIERS = {"table": TABLE, "compiled": COMPILED}

COUNTER = """
.data
total: .quad 0
.text
main:
    lda r1, 0
loop:
    addq r1, 1, r1
    mulq r1, 5, r3
    xor r3, r1, r3
    stq r3, total
    cmplt r1, {n}, r2
    bne r2, loop
    halt
"""


def counter(n=300):
    return assemble(COUNTER.format(n=n))


def solo_fingerprint(program, config):
    machine = Machine(program, config)
    machine.run()
    return ProcessContext.adopt(machine, 1, "solo").state_fingerprint()


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_three_processes_complete_bit_identically(tier):
    config = TIERS[tier]
    sizes = (300, 170, 420)
    programs = [counter(n) for n in sizes]
    machine = Machine(programs[0], config)
    kernel = Kernel(machine, quantum=97)
    for program in programs[1:]:
        kernel.spawn(program)
    run = machine.run()
    assert run.halted
    assert kernel.preemptions > 3
    for pid, n in zip((1, 2, 3), sizes):
        ctx = kernel.process_state(pid)
        assert ctx.halted
        # Bit-identical to a solo, kernel-less run of the same program.
        assert ctx.state_fingerprint() == solo_fingerprint(counter(n),
                                                           config)


def test_tiers_agree_on_the_whole_schedule():
    results = {}
    for tier, config in TIERS.items():
        machine = Machine(counter(260), config)
        kernel = Kernel(machine, quantum=61)
        kernel.spawn(counter(340))
        machine.run()
        results[tier] = (
            kernel.context_switches, kernel.preemptions,
            machine.state_fingerprint(),
            tuple(kernel.process_stats(pid)[0] for pid in (1, 2)),
        )
    assert results["table"] == results["compiled"]


def test_cooperative_quantum_zero_runs_on_yields_only():
    machine = Machine(load_program_file(programs_dir() / "yield.s"), TABLE)
    kernel = Kernel(machine, quantum=0)
    kernel.spawn(load_program_file(programs_dir() / "yield.s"))
    machine.run()
    assert kernel.preemptions == 0
    assert kernel.syscalls > 0
    for pid in (1, 2):
        ctx = kernel.process_state(pid)
        assert ctx.halted
        status = ctx.memory.read_int(ctx.program.address_of("status"), 8)
        assert status == 1


def test_system_corpus_programs_race_and_self_check():
    """yield.s and preempt.s scheduled against each other pass their
    own checksums — the corpus' multi-process conformance story."""
    entries = {entry.name: entry for entry in system_corpus().entries}
    assert set(entries) == {"yield", "preempt"}
    machine = Machine(entries["yield"].build(), TABLE)
    kernel = Kernel(machine, quantum=500)
    kernel.spawn(entries["preempt"].build())
    machine.run()
    for pid in (1, 2):
        ctx = kernel.process_state(pid)
        status = ctx.memory.read_int(ctx.program.address_of("status"), 8)
        assert ctx.halted and status == 1, (pid, ctx.name)


def test_spawn_deduplicates_names():
    machine = Machine(counter(10), TABLE)
    kernel = Kernel(machine, quantum=100)
    first = kernel.spawn(counter(10), name="worker")
    second = kernel.spawn(counter(10), name="worker")
    assert kernel.process_state(first).name == "worker"
    assert kernel.process_state(second).name == f"worker#{second}"


def test_lookup_by_pid_and_name_and_errors():
    machine = Machine(counter(10), TABLE)
    kernel = Kernel(machine, quantum=100)
    pid = kernel.spawn(counter(10), name="buddy")
    assert kernel.process_state("buddy").pid == pid
    assert kernel.process_state(pid).name == "buddy"
    with pytest.raises(SimulationError, match="no process with pid"):
        kernel.process_state(99)
    with pytest.raises(SimulationError, match="no process named"):
        kernel.process_state("ghost")


def test_per_process_accounting_sums_to_machine_totals():
    machine = Machine(counter(200), TABLE)
    kernel = Kernel(machine, quantum=73)
    kernel.spawn(counter(500))
    machine.run()
    per_process = [kernel.process_stats(pid)[0] for pid in (1, 2)]
    assert sum(per_process) == machine.stats.app_instructions
    assert all(count > 0 for count in per_process)


def test_default_quantum_is_wired_through():
    machine = Machine(counter(10), TABLE)
    kernel = Kernel(machine)
    assert kernel.quantum == DEFAULT_QUANTUM
    assert machine.timer_quantum == DEFAULT_QUANTUM


def test_negative_quantum_rejected():
    with pytest.raises(ValueError):
        Kernel(Machine(counter(10), TABLE), quantum=-1)


def test_run_limit_pauses_and_resumes_the_schedule():
    machine = Machine(counter(300), TABLE)
    kernel = Kernel(machine, quantum=50)
    kernel.spawn(counter(300))
    machine.run(333)  # machine-wide limit lands mid-schedule
    assert machine.stats.app_instructions == 333
    assert not machine.halted
    machine.run()  # picks the schedule back up to completion
    assert machine.halted
    for pid in (1, 2):
        assert kernel.process_state(pid).halted
