"""Cross-process debugging: scoping, stop attribution, gating."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.cpu.machine import Machine
from repro.cpu.stats import TransitionKind
from repro.debugger.backends import backend_class
from repro.debugger.session import Session
from repro.debugger.watchpoint import Watchpoint
from repro.dise.pattern import Pattern
from repro.dise.production import Production
from repro.dise.template import T, original, template
from repro.isa import assemble
from repro.isa.opcodes import Opcode
from repro.isa.registers import dise_reg
from repro.kernel import Kernel
from repro.replay.reverse import ReverseController
from repro.workloads.corpus import system_corpus

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


# Two programs with the same layout but a different store at index 3.
SHARED_PC = """
.data
hot: .quad 0
.text
main:
    lda r5, hot
    lda r1, 0
loop:
    addq r1, 1, r1
    {store}
    stq r1, 8(sp)
    cmplt r1, 30, r2
    bne r2, loop
    halt
"""


@pytest.mark.parametrize("tier", ("table", "compiled"))
def test_multi_process_dise_session_ends_where_it_always_has(tier):
    """Context switches reload the engine with each process's resident
    set; a two-process DISE session still stops, expands and ends
    exactly as it always has."""
    entries = system_corpus()
    session = Session(entries.entry("yield").build(), backend="dise",
                      config=TABLE if tier == "table" else COMPILED,
                      processes=[entries.entry("preempt").build()],
                      quantum=2_000)
    session.watch("progress")
    stats = session.run().stats
    assert (stats.user_transitions, stats.dise_expansions,
            stats.app_instructions) == (240, 243, 13_436)
    assert session.last_backend.machine.state_fingerprint() == (
        "c266668d57c5a69409dcf31c8620f36966081bfea3d1369af2922dc8542db6f1")


@pytest.mark.parametrize("tier", ("table", "compiled"))
def test_processes_get_their_own_sequence_at_a_shared_pc(tier):
    """Each process has its own store production, so each context
    switch loads another resident set.  Built sequences are reused only
    for the very instruction they were built from, so two processes
    holding different stores at one PC each expand their own trigger,
    and a ``T.PC`` slot carries each trigger's own address."""
    config = TABLE if tier == "table" else COMPILED
    first = assemble(SHARED_PC.format(store="stq r1, 0(r5)"))
    second = assemble(SHARED_PC.format(store="stq r1, 16(sp)"))
    machine = Machine(first, config)
    kernel = Kernel(machine, quantum=7)
    kernel.spawn(second)
    names = [kernel.process_state(pid).name for pid in (1, 2)]
    for name in names:
        machine.dise_controller.install(Production(
            Pattern.stores(),
            [template(Opcode.LDA, rd=dise_reg(1), rs1=31, imm=T.PC),
             original()], name=name), target_process=name)
    expand = machine.dise_engine.expand
    seen = []

    def recording(inst, pc):
        sequence = expand(inst, pc)
        seen.append((machine.current_process, pc, inst, sequence))
        return sequence

    machine.dise_engine.expand = recording
    machine.run()
    assert kernel.preemptions > 10
    shared = first.pc_of_index(3)
    triggers = {process: inst for process, pc, inst, _ in seen
                if pc == shared}
    assert triggers[names[0]] is first.instructions[3]
    assert triggers[names[1]] is second.instructions[3]
    for process, pc, inst, sequence in seen:
        assert sequence[1] is inst
        assert sequence[0].imm == pc
    assert {pc for _, pc, _, _ in seen} == {shared, shared + 4}
    for pid, hot in ((1, 30), (2, 0)):
        ctx = kernel.process_state(pid)
        assert ctx.halted
        assert ctx.memory.read_int(ctx.program.address_of("hot"), 8) == hot
