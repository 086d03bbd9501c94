"""Checkpoints under preemption: snapshots must be invisible and
restores must re-land the schedule bit for bit."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.cpu.machine import Machine
from repro.cpu.stats import TransitionKind
from repro.debugger.backends import backend_class
from repro.debugger.watchpoint import Watchpoint
from repro.isa import assemble
from repro.kernel import Kernel
from repro.replay.reverse import ReverseController

TABLE = DEFAULT_CONFIG.with_(interpreter="table")
COMPILED = DEFAULT_CONFIG.with_(interpreter="compiled",
                                compiled_hot_threshold=1)
TIERS = {"table": TABLE, "compiled": COMPILED}

WORKER = """
.data
hot: .quad 0
.text
main:
    lda r1, 0
loop:
    addq r1, 1, r1
    mulq r1, 11, r3
    xor r3, r1, r3
    stq r3, hot
    cmplt r1, {n}, r2
    bne r2, loop
    halt
"""


def worker(n):
    return assemble(WORKER.format(n=n))


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_machine_snapshot_mid_quantum_replays_the_schedule(tier):
    """Snapshot in the middle of a quantum; the restored run re-lands
    every later context switch and the final state bit-identically."""
    config = TIERS[tier]
    machine = Machine(worker(400), config)
    kernel = Kernel(machine, quantum=100)
    kernel.spawn(worker(300))
    machine.run(250)  # mid-quantum: 250 is no multiple of the quantum
    assert not machine.halted
    blob = machine.snapshot()
    switches_at_snapshot = kernel.context_switches

    machine.run()
    first = (machine.state_fingerprint(), kernel.context_switches,
             kernel.preemptions,
             tuple(kernel.process_stats(pid) for pid in (1, 2)))

    machine.restore(blob)
    assert kernel.context_switches == switches_at_snapshot
    assert machine.stats.app_instructions == 250
    machine.run()
    second = (machine.state_fingerprint(), kernel.context_switches,
              kernel.preemptions,
              tuple(kernel.process_stats(pid) for pid in (1, 2)))
    assert first == second


def test_restore_relands_while_the_other_process_is_live():
    """Snapshot while pid 1 runs, restore after the machine has moved
    on to pid 2: Kernel.restore must swap the live context back first."""
    machine = Machine(worker(400), TABLE)
    kernel = Kernel(machine, quantum=100)
    kernel.spawn(worker(300))
    machine.run(150)
    assert kernel.current_pid == 2  # second quantum: pid 2 is live
    blob = machine.snapshot()
    machine.run(450)
    assert kernel.current_pid == 1  # schedule moved on (5th quantum)
    machine.restore(blob)
    assert kernel.current_pid == 2
    assert machine.stats.app_instructions == 150
    machine.run()
    assert machine.halted
    for pid in (1, 2):
        assert kernel.process_state(pid).halted


class _Stops:
    """Record every USER stop as (process, app instruction count)."""

    def __init__(self, backend):
        self.backend = backend
        self.log = []
        self._inner = backend.machine.trap_handler
        backend.machine.trap_handler = self

    def __call__(self, event):
        kind = self._inner(event)
        if kind is TransitionKind.USER:
            self.log.append((self.backend.current_process,
                             self.backend.machine.stats.app_instructions))
        return kind


@pytest.mark.parametrize("backend_name", ("dise", "hardware"))
def test_backend_checkpoint_mid_quantum_replays_stops(backend_name):
    """Satellite acceptance: checkpoint mid-quantum under a debugger
    backend, run on, restore, and the continuation re-lands the next
    context switch *and* every stop bit-identically."""
    backend = backend_class(backend_name)(
        worker(200), [Watchpoint.parse("hot", None, 1)], [],
        TABLE, detailed_timing=False,
        processes=[worker(260)], quantum=75)
    stops = _Stops(backend)
    kernel = backend.kernel

    backend.run(100)  # mid-quantum (second quantum is 25 in)
    assert not backend.machine.halted
    blob = backend.snapshot()
    prefix = list(stops.log)
    switches_before = kernel.context_switches

    backend.run()
    first_stops = list(stops.log)
    first = (backend.state_fingerprint(), kernel.context_switches,
             kernel.preemptions)

    backend.restore(blob)
    stops.log[:] = prefix
    assert kernel.context_switches == switches_before
    backend.run()
    assert stops.log == first_stops
    assert (backend.state_fingerprint(), kernel.context_switches,
            kernel.preemptions) == first


def test_rewind_across_context_switches():
    """Reverse execution re-lands a mid-schedule stop: rewinding past
    context switches restores the whole process table."""
    backend = backend_class("dise")(
        worker(200), [Watchpoint.parse("hot", "hot == 1064", 1)], [],
        TABLE, detailed_timing=False,
        processes=[worker(260)], quantum=60)
    controller = ReverseController(backend, interval=50,
                                   record_fingerprints=True)
    run = controller.resume()
    assert run.stopped_at_user
    record = controller.current_stop
    fingerprint = backend.state_fingerprint()
    assert record.fingerprint == fingerprint
    # Run on (the schedule keeps switching), then reverse back to the
    # stop: the replay re-lands it bit-identically, process table and
    # all.
    controller.resume()
    assert backend.machine.stats.app_instructions > record.app_instructions
    landed = controller.reverse_continue()
    assert landed is not None
    assert landed.app_instructions == record.app_instructions
    assert backend.state_fingerprint() == fingerprint
    assert backend.machine.pc == record.pc
