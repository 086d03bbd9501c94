"""Per-process state has one definition (repro.cpu.process).

Every attribute a machine holds is either per-process — listed in
``PROCESS_FIELDS``, swapped on a context switch, booted, snapshotted —
or machine-wide, listed here.  A new ``Machine`` attribute fails
:func:`test_every_machine_attribute_is_per_process_or_machine_wide`
until it is put in one list or the other.
"""

import pytest

from repro.config import DEFAULT_CONFIG, INTERPRETERS
from repro.cpu.machine import Machine
from repro.cpu.process import PROCESS_FIELDS, ProcessContext
from repro.isa import assemble
from repro.kernel import Kernel

#: Machine attributes shared by every process on the machine.
MACHINE_WIDE = frozenset({
    "config", "stats", "timing", "dise_engine", "dise_controller",
    "dise_regs", "trap_handler", "store_observer",
    "stop_on_user", "stopped_at_user",
    "kernel_mode", "trap_vector", "trap_cause", "trap_epc", "trap_value",
    "pending_trap", "timer_quantum", "timer_deadline",
    "current_process", "_kernel", "_interp",
    "checkpoint_store", "_checkpoint_interval", "_checkpoint_fn",
})

SOURCE = """
.data
total: .quad 7
.text
main:
    lda r1, 0
loop:
    addq r1, 1, r1
    stq r1, total
    cmplt r1, 200, r2
    bne r2, loop
    halt
"""


@pytest.mark.parametrize("interpreter", INTERPRETERS)
def test_every_machine_attribute_is_per_process_or_machine_wide(
        interpreter):
    assert len(set(PROCESS_FIELDS)) == len(PROCESS_FIELDS)
    assert not MACHINE_WIDE & set(PROCESS_FIELDS)
    config = DEFAULT_CONFIG.with_(interpreter=interpreter)
    machine = Machine(assemble(SOURCE), config)
    assert set(vars(machine)) == MACHINE_WIDE | set(PROCESS_FIELDS)
    machine.enable_checkpoints(50)
    # Running, scheduling and checkpointing add nothing undeclared.
    kernel = Kernel(machine, quantum=37)
    kernel.spawn(assemble(SOURCE))
    machine.restore(machine.snapshot())
    assert machine.run().halted
    assert set(vars(machine)) == MACHINE_WIDE | set(PROCESS_FIELDS)


def test_a_context_holds_exactly_the_per_process_fields():
    ctx = ProcessContext.fresh(2, "p", assemble(SOURCE),
                               DEFAULT_CONFIG.page_bytes)
    for field in ("pid", "name", *PROCESS_FIELDS):
        getattr(ctx, field)  # every slot is set by boot
    with pytest.raises(AttributeError):
        ctx.stats = None  # machine-wide state has no slot


def test_switch_swaps_references_not_copies():
    machine = Machine(assemble(SOURCE))
    ctx = ProcessContext.adopt(machine, 1, "p")
    for field in PROCESS_FIELDS:
        assert getattr(ctx, field) is getattr(machine, field)
    other = ProcessContext.fresh(2, "q", assemble(SOURCE),
                                 machine.config.page_bytes)
    other.load_into(machine)
    assert machine.memory is other.memory and machine.regs is other.regs
    assert machine.current_process == "q"


def test_restore_leaves_text_version_alone():
    """``text_version`` only keeps caches coherent, so no snapshot
    carries it and a restore never winds it back."""
    machine = Machine(assemble(SOURCE))
    blob = machine.snapshot()
    assert "text_version" not in blob
    machine.patch_text(machine._text_base, machine._text[0])
    machine.restore(blob)
    assert machine.text_version == 1
