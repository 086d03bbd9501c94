"""Machine-level snapshot/restore: bit-exact, chunking-invisible."""

import pytest

from repro.config import MachineConfig
from repro.cpu.machine import Machine
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.replay import Snapshotable
from repro.workloads.benchmarks import build_benchmark
from tests.conftest import make_watch_loop


def _machine(**kwargs):
    return Machine(build_benchmark("bzip2"), **kwargs)


def test_components_satisfy_snapshotable():
    machine = _machine()
    for component in (machine, machine.memory, machine.pagetable,
                      machine.dise_regs, machine.dise_controller):
        assert isinstance(component, Snapshotable), component


def test_restore_is_bit_exact_including_timing():
    machine = _machine()
    machine.run(5_000)
    blob = machine.snapshot()
    fingerprint = machine.state_fingerprint()
    cycles = machine.stats.cycles

    machine.run(12_000)
    assert machine.state_fingerprint() != fingerprint

    machine.restore(blob)
    assert machine.state_fingerprint() == fingerprint
    assert machine.stats.cycles == cycles
    assert machine.stats.app_instructions == 5_000


def test_restore_then_rerun_reproduces_the_future():
    machine = _machine()
    machine.run(5_000)
    blob = machine.snapshot()
    machine.run(12_000)
    end_fingerprint = machine.state_fingerprint()
    end_cycles = machine.stats.cycles

    machine.restore(blob)
    machine.run(12_000)
    assert machine.state_fingerprint() == end_fingerprint
    assert machine.stats.cycles == end_cycles


def test_auto_checkpointing_is_semantically_invisible():
    plain = _machine()
    plain.run(9_500)

    chunked = _machine()
    chunked.enable_checkpoints(1_000)
    chunked.run(9_500)

    assert chunked.state_fingerprint() == plain.state_fingerprint()
    assert chunked.stats.cycles == plain.stats.cycles
    counts = [c.app_instructions for c in chunked.checkpoint_store]
    assert counts == list(range(1_000, 10_000, 1_000))


def test_enable_checkpoints_after_construction():
    machine = _machine()
    store = machine.enable_checkpoints(interval=2_000)
    machine.run(7_000)
    assert [c.app_instructions for c in store] == [2_000, 4_000, 6_000]


def test_restore_across_reload_text():
    """Program text is not machine state: instructions appended after a
    snapshot stay visible after restoring it (see Machine.restore)."""
    program = make_watch_loop(50)
    machine = Machine(program)
    machine.run(50)
    blob = machine.snapshot()
    before = len(program.instructions)

    program.append_function("late", [Instruction(Opcode.HALT)])
    machine.reload_text()
    assert len(program.instructions) > before

    machine.restore(blob)
    # The appended function is still in the (shared, in-place) text...
    assert len(program.instructions) > before
    # ...and execution state rewound to the snapshot point.
    assert machine.stats.app_instructions == 50


def test_restore_across_code_versions_with_compiled_tier():
    """Restoring a snapshot taken under older code must not resurrect
    compiled blocks: text is not snapshotted, so after a mid-run patch
    the restored machine must re-execute through the *patched* code,
    identically to the first post-patch run."""
    from repro.isa import assemble

    config = MachineConfig(interpreter="compiled")
    machine = Machine(assemble("""
    main:
        lda r1, 0
        lda r3, 200
    loop:
        addq r1, 1, r1
        subq r3, 1, r3
        bne r3, loop
        halt
    """), config)
    machine.run(max_app_instructions=302)  # loop block is hot + cached
    blob = machine.snapshot()

    patch = assemble("main:\n    addq r1, 100, r1\n    halt\n") \
        .instructions[0]
    machine.patch_text(machine._text_base + 4 * 2, patch)
    machine.run()
    first_finish = machine.state_fingerprint()
    first_cycles = machine.stats.cycles
    assert machine.regs[1] == 100 + 100 * 100

    machine.restore(blob)
    assert machine._compiled.blocks == {}  # no stale blocks survive
    machine.run()
    assert machine.state_fingerprint() == first_finish
    assert machine.stats.cycles == first_cycles


@pytest.mark.parametrize("interval", (None, 40))
def test_restore_across_reload_text_compiled(interval):
    """The compiled tier composes with reload_text-after-restore (and
    with auto-checkpointing): appended code stays callable and the
    block cache never serves blocks from before the reload."""
    program = make_watch_loop(50)
    machine = Machine(program, MachineConfig(interpreter="compiled"))
    if interval is not None:
        machine.enable_checkpoints(interval)
    machine.run(50)
    blob = machine.snapshot()

    program.append_function("late", [Instruction(Opcode.HALT)])
    machine.reload_text()
    machine.restore(blob)
    assert machine._compiled is None or machine._compiled.blocks == {}
    machine.run(120)
    assert machine.stats.app_instructions == 120


def test_memory_restore_preserves_blob_for_reuse():
    machine = _machine()
    machine.run(3_000)
    blob = machine.snapshot()
    for _ in range(3):
        machine.run(6_000)
        machine.restore(blob)
        assert machine.stats.app_instructions == 3_000
