"""Cross-process debugging: scoping, stop attribution, gating."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.cpu.stats import TransitionKind
from repro.debugger.backends import backend_class
from repro.debugger.watchpoint import Watchpoint
from repro.isa import assemble
from repro.replay.reverse import ReverseController

TABLE = DEFAULT_CONFIG.with_(interpreter="table")
COMPILED = DEFAULT_CONFIG.with_(interpreter="compiled",
                                compiled_hot_threshold=1)
BACKENDS = ("single_step", "virtual_memory", "hardware", "binary_rewrite",
            "dise")

# Both processes run this program: each stores fresh values to its own
# `hot`, so an unscoped mechanism would see twice the stops.
STORES = """
.data
hot: .quad 0
.text
main:
    lda r1, 0
loop:
    addq r1, 1, r1
    mulq r1, 7, r3
    stq r3, hot
    cmplt r1, {n}, r2
    bne r2, loop
    halt
"""


def program(n=40):
    return assemble(STORES.format(n=n))


class _StopTrace:
    """Record (process, value-of-hot) at every USER classification."""

    def __init__(self, backend):
        self.backend = backend
        self.stops = []
        self._inner = backend.machine.trap_handler
        self._hot = backend.resolver.resolve("hot")[0]
        backend.machine.trap_handler = self

    def __call__(self, event):
        kind = self._inner(event)
        if kind is TransitionKind.USER:
            self.stops.append(
                (self.backend.current_process,
                 self.backend.machine.memory.read_int(self._hot, 8)))
        return kind


def _debugged(backend_name, config, **options):
    backend = backend_class(backend_name)(
        program(), [Watchpoint.parse("hot", None, 1)], [],
        config, detailed_timing=False, **options)
    return backend, _StopTrace(backend)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_watchpoint_never_fires_in_the_neighbour(backend_name):
    solo, solo_trace = _debugged(backend_name, TABLE)
    solo.run()
    # Trap-per-store mechanisms see all 40 stores; single-stepping
    # detects changes at the following statement, so it may fold the
    # final store into the halt.  Either way the solo trace is the
    # reference the multi-process run must reproduce exactly.
    assert len(solo_trace.stops) >= 39

    backend, trace = _debugged(backend_name, TABLE,
                               processes=[program()], quantum=29)
    backend.run()
    assert backend.kernel.preemptions > 3  # genuinely interleaved
    assert backend.kernel.process_state(2).halted
    # Same stop stream as the solo run -- the co-resident process
    # stores to its own `hot` 40 times and never trips the mechanism.
    assert trace.stops == solo_trace.stops
    target = backend.kernel.process_state(1).name
    assert all(process == target for process, _ in trace.stops)


@pytest.mark.parametrize("backend_name", ("dise", "hardware"))
def test_watchpoint_survives_context_switches(backend_name):
    """The mechanism keeps firing after the target is re-scheduled:
    stops land in every quantum, not just the first."""
    backend, trace = _debugged(backend_name, TABLE,
                               processes=[program()], quantum=17)
    backend.run()
    assert len(trace.stops) == 40
    assert backend.kernel.preemptions >= 10


def test_dise_productions_are_gated_not_uninstalled():
    """Descheduling the target lifts its productions out of the engine;
    rescheduling puts them back at their original priority."""
    backend, _ = _debugged("dise", TABLE, processes=[program()], quantum=17)
    machine = backend.machine
    kernel = backend.kernel
    controller = machine.dise_controller
    installed = len(controller.installed_productions)
    assert installed > 0
    target = kernel.process_state(1).name

    def step():  # run limits are absolute: keep raising by an odd 20
        assert not machine.halted
        machine.run(machine.stats.app_instructions + 20)

    while machine.current_process == target:
        step()
    # The neighbour is scheduled: the engine's pattern table is empty,
    # but the controller still tracks the installed productions.
    assert len(machine.dise_engine._productions) == 0
    assert len(controller.installed_productions) == installed
    while machine.current_process != target:
        step()
    assert len(machine.dise_engine._productions) == installed


def test_compiled_tier_keeps_per_process_block_caches(monkeypatch):
    """Context switches must not flush compiled code: each process's
    tier persists across deschedules (the whole point of keying the
    block cache per process), and DISE re-gating at switches must not
    read as a stale environment."""
    from repro.cpu.compiled import CompiledTier

    flushes = []
    original = CompiledTier.flush
    monkeypatch.setattr(CompiledTier, "flush",
                        lambda tier: (flushes.append(tier),
                                      original(tier))[1])
    backend, trace = _debugged("dise", COMPILED,
                               processes=[program()], quantum=23)
    backend.run()
    assert len(trace.stops) == 40  # correctness first
    assert backend.kernel.preemptions > 3
    assert not flushes  # no block cache was ever dropped
    for pid in (1, 2):
        ctx = backend.kernel.process_state(pid)
        assert ctx._compiled is not None and ctx._compiled.blocks


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_stop_records_name_the_stopping_process(backend_name):
    backend = backend_class(backend_name)(
        program(), [Watchpoint.parse("hot", "hot == 7", 1)], [],
        TABLE, detailed_timing=False, processes=[program()], quantum=31)
    controller = ReverseController(backend, interval=64)
    run = controller.resume()
    assert run.stopped_at_user
    record = controller.current_stop
    target = backend.kernel.process_state(1).name
    assert record.process == target
    assert f"in {target}" in record.describe()


def test_solo_stop_records_stay_processless():
    backend = backend_class("dise")(
        program(), [Watchpoint.parse("hot", "hot == 7", 1)], [],
        TABLE, detailed_timing=False)
    controller = ReverseController(backend, interval=64)
    run = controller.resume()
    assert run.stopped_at_user
    record = controller.current_stop
    assert record.process == ""
    assert " in " not in record.describe()
