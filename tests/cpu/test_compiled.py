"""The compiled execution tier: bit-identical semantics + invalidation.

The compiled tier (``MachineConfig.interpreter="compiled"``) must be
observationally indistinguishable from the dispatch-table interpreter —
same final state, same full statistics, same cycle counts — while its
block cache must be dropped on every code-version event: a text
reload, an in-place patch, a self-modifying store into a text page,
and any DISE production install/activate/deactivate.
"""

import gc
import weakref

import pytest

from repro.config import DEFAULT_CONFIG
from repro.cpu.compiled import _FALLBACK, CompiledTier
from repro.cpu.machine import Machine
from repro.cpu.stats import TransitionKind
from repro.debugger.backends import backend_class
from repro.debugger.watchpoint import Breakpoint, Watchpoint
from repro.dise.pattern import Pattern
from repro.dise.production import Production
from repro.dise.template import T, original, template
from repro.fuzz.oracle import StopRecorder
from repro.isa import assemble
from repro.isa.opcodes import Opcode
from repro.isa.registers import SP, dise_reg
from repro.workloads.benchmarks import build_benchmark

TABLE = DEFAULT_CONFIG.with_(interpreter="table")
COMPILED = DEFAULT_CONFIG.with_(interpreter="compiled")
LEGACY = DEFAULT_CONFIG.with_(interpreter="legacy")
CONFIGS = {"table": TABLE, "legacy": LEGACY, "compiled": COMPILED}

LOOP = """
main:
    lda r1, 0
    lda r3, 200
loop:
    addq r1, 1, r1
    subq r3, 1, r3
    bne r3, loop
    halt
"""


def _observables(machine, result):
    return (machine.state_fingerprint(), result.stats.to_dict(),
            machine.pc, result.halted)


# -- differential equivalence ------------------------------------------------


@pytest.mark.parametrize("workload", ("mcf", "gcc", "vortex"))
@pytest.mark.parametrize("detailed_timing", (True, False),
                         ids=("timed", "functional"))
def test_compiled_matches_table_on_benchmarks(workload, detailed_timing):
    runs = {}
    for name, config in (("table", TABLE), ("compiled", COMPILED)):
        machine = Machine(build_benchmark(workload), config,
                          detailed_timing=detailed_timing)
        result = machine.run(8000)
        runs[name] = _observables(machine, result)
    assert runs["compiled"] == runs["table"]


def test_hot_loop_actually_runs_compiled_blocks():
    """The fast path must engage on hot code, not silently fall back
    to cold table chunks for everything."""
    table = Machine(assemble(LOOP), TABLE)
    compiled = Machine(assemble(LOOP), COMPILED)
    for machine in (table, compiled):
        machine.run()
    assert compiled._compiled.blocks
    assert any(callable(entry[0]) for entry
               in compiled._compiled.blocks.values()
               if isinstance(entry, tuple))
    assert compiled.state_fingerprint() == table.state_fingerprint()
    assert compiled.stats.to_dict() == table.stats.to_dict()


def test_compiled_matches_table_with_dise_productions():
    production = Production(
        Pattern.loads(base_register=SP),
        [template(Opcode.ADDQ, rd=dise_reg(0), rs1=T.RS1, imm=8),
         template(T.OP, rd=T.RD, rs1=dise_reg(0), imm=T.IMM)],
        name="fig1")
    runs = {}
    for name, config in (("table", TABLE), ("compiled", COMPILED)):
        machine = Machine(assemble("""
        main:
            lda r2, 0xAB
            lda r3, 6
        loop:
            stq r2, 40(sp)
            ldq r4, 32(sp)
            subq r3, 1, r3
            bne r3, loop
            halt
        """), config)
        machine.dise_controller.install(production)
        result = machine.run()
        runs[name] = _observables(machine, result)
        assert result.stats.dise_expansions == 6, name
    assert runs["compiled"] == runs["table"]


def test_compiled_limit_semantics_are_exact(count_loop_program):
    table = Machine(count_loop_program, TABLE)
    compiled = Machine(count_loop_program, COMPILED)
    for machine in (table, compiled):
        partial = machine.run(max_app_instructions=50)
        assert partial.stats.app_instructions == 50
        assert not partial.halted
    assert compiled.state_fingerprint() == table.state_fingerprint()
    assert compiled.pc == table.pc
    # Resuming runs to completion and stays identical.
    for machine in (table, compiled):
        assert machine.run().halted
    assert compiled.state_fingerprint() == table.state_fingerprint()


# A watchpoint under single-stepping, and a breakpoint in a breakpoint
# register: both trap at fetch, so the compiled tier runs no block.
TRAPPING_FETCH = (("single_step", "watch", "hot"),
                  ("hardware", "break", "loop_top"))


def _trapping_fetch_run(backend_name, kind, target, interp, stop_on_user):
    """crafty for 4,000 instructions under ``backend_name``: the
    machine, its last run, the recorded stops and, when it stops on
    user hits, each stop's (pc, instruction count)."""
    point = (Watchpoint if kind == "watch" else Breakpoint).parse(
        target, None, 1)
    points = ([point], []) if kind == "watch" else ([], [point])
    # Threshold 1: a chain-loop visit would compile a block at once.
    config = CONFIGS[interp].with_(compiled_hot_threshold=1)
    backend = backend_class(backend_name)(build_benchmark("crafty"),
                                          *points, config)
    recorder = StopRecorder(backend)
    machine = backend.machine
    machine.stop_on_user = stop_on_user
    result = machine.run(4000)
    stops = []
    while result.stopped_at_user:
        stops.append((machine.pc, result.stats.app_instructions))
        result = machine.run(4000)
    return machine, result, recorder.stops, stops


@pytest.mark.parametrize("stop_on_user", (False, True),
                         ids=("recorded", "interactive"))
@pytest.mark.parametrize("backend_name, kind, target", TRAPPING_FETCH,
                         ids=("single_step", "breakpoint_register"))
def test_trapping_fetch_runs_hand_the_call_to_the_table_loop(
        backend_name, kind, target, stop_on_user, monkeypatch):
    steps = []
    step = CompiledTier._step

    def counting_step(tier):
        steps.append(tier)
        step(tier)

    monkeypatch.setattr(CompiledTier, "_step", counting_step)
    runs = {}
    for interp in ("table", "compiled"):
        machine, result, recorded, stops = _trapping_fetch_run(
            backend_name, kind, target, interp, stop_on_user)
        runs[interp] = (_observables(machine, result), recorded, stops)
    # One table-loop call per run, not one per instruction.
    assert steps == []
    assert machine._compiled.blocks == {}
    assert runs["table"][1]  # the runs did trap
    assert bool(runs["table"][2]) == stop_on_user
    assert runs["compiled"] == runs["table"]


def test_dropped_compiled_machine_is_freed_by_reference_counting():
    """The per-process code cache holds code objects only, never a
    machine or its blocks: a dropped machine and its compiled tier are
    freed without the cycle collector."""
    gc.disable()
    try:
        machine = Machine(assemble(LOOP), COMPILED)
        machine.run()
        assert machine._compiled.blocks
        refs = [weakref.ref(machine), weakref.ref(machine._compiled)]
        del machine
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_unknown_interpreter_is_rejected():
    config = DEFAULT_CONFIG.with_(interpreter="jit")
    with pytest.raises(ValueError, match="unknown interpreter"):
        Machine(assemble("main:\n    halt\n"), config)


# -- invalidation triggers ---------------------------------------------------


@pytest.mark.parametrize("interp", ("table", "legacy", "compiled"))
def test_patch_text_mid_run_executes_new_encoding(interp):
    """An instruction patched mid-run must take effect on every tier.

    The loop body runs a few iterations (hot: the compiled tier has
    the block cached and executed), then ``addq r1, 1`` is rewritten
    to ``addq r1, 100`` while the machine is paused inside the loop.
    """
    machine = Machine(assemble(LOOP), CONFIGS[interp])
    partial = machine.run(max_app_instructions=302)
    assert not partial.halted
    # app 1-2: the ldas; then 3 per iteration: 100 iterations done.
    patch = assemble("main:\n    addq r1, 100, r1\n    halt\n") \
        .instructions[0]
    machine.patch_text(machine._text_base + 4 * 2, patch)
    machine.run()
    # 100 pre-patch iterations at +1, 100 post-patch at +100.
    assert machine.regs[1] == 100 + 100 * 100, interp


def test_patch_text_bumps_version_and_stales_compiled_blocks():
    machine = Machine(assemble(LOOP), COMPILED)
    machine.run(max_app_instructions=302)
    tier = machine._compiled
    assert tier.blocks  # the loop block is cached
    version = machine.text_version
    patch = assemble("main:\n    addq r1, 100, r1\n    halt\n") \
        .instructions[0]
    machine.patch_text(machine._text_base + 4 * 2, patch)
    assert machine.text_version == version + 1
    assert tier._stale()


def test_patch_text_outside_text_raises():
    from repro.errors import SimulationError

    machine = Machine(assemble(LOOP), COMPILED)
    patch = assemble("main:\n    halt\n").instructions[0]
    with pytest.raises(SimulationError, match="patch outside text"):
        machine.patch_text(machine._text_base - 4, patch)
    with pytest.raises(SimulationError, match="patch outside text"):
        machine.patch_text(machine._text_base + 2, patch)  # misaligned


def test_reload_text_drops_decode_and_compiled_state():
    machine = Machine(assemble(LOOP), COMPILED)
    machine.run()
    tier = machine._compiled
    assert tier.blocks
    version = machine.text_version
    machine.reload_text()
    assert machine.text_version == version + 1
    assert all(inst.decoded is None for inst in machine._text)
    assert tier._stale()


@pytest.mark.parametrize("interp", ("table", "legacy", "compiled"))
def test_store_into_text_page_invalidates_decode(interp):
    """A store whose effective address overlaps text is self-modifying
    code as far as caches are concerned: the code version must bump
    and the overlapped slots' decode records must drop.
    """
    machine = Machine(assemble("""
    main:
        stq r2, 0(r1)
        lda r4, 7
        halt
    """), CONFIGS[interp])
    machine._text[1].decode()  # warm the decode cache
    assert machine._text[1].decoded is not None
    machine.regs[1] = machine._text_base + 4  # aim at the lda slot
    version = machine.text_version
    machine.run(max_app_instructions=1)  # just the store
    assert machine.text_version > version
    assert machine._text[1].decoded is None  # dropped, re-decoded lazily
    machine.run()
    assert machine.regs[4] == 7  # instruction records are not encodings


def test_store_outside_text_does_not_bump_version(count_loop_program):
    machine = Machine(count_loop_program, COMPILED)
    version = machine.text_version
    machine.run()
    assert machine.text_version == version


def test_production_install_and_toggle_stale_compiled_blocks():
    production = Production(Pattern.stores(), [original()], name="noop")
    machine = Machine(assemble(LOOP), COMPILED)
    machine.run(max_app_instructions=302)
    tier = machine._compiled
    assert tier.blocks and not tier._stale()
    machine.dise_controller.install(production)
    assert tier._stale()
    # Re-capture (as the run loop would), then toggle activation:
    # deactivate and activate must each stale the cache again.
    tier._capture()
    assert not tier._stale()
    machine.dise_controller.deactivate(production)
    assert tier._stale()
    tier._capture()
    machine.dise_controller.activate(production)
    assert tier._stale()


def test_restore_flushes_compiled_blocks(count_loop_program):
    machine = Machine(count_loop_program, COMPILED)
    machine.run(max_app_instructions=200)
    blob = machine.snapshot()
    machine.run(max_app_instructions=450)
    assert machine._compiled.blocks
    machine.restore(blob)
    assert machine._compiled.blocks == {}


def test_removed_store_production_leaves_stores_to_compiled_blocks():
    """With only a PC production left, stores are no production
    candidates: the compiled loop runs through its store instead of
    ending a block there."""
    program = assemble("""
    main:
        lda r1, 0
        lda r3, 200
    loop:
        addq r1, 1, r1
        stq r1, 8(sp)
        subq r3, 1, r3
        bne r3, loop
        halt
    """)
    store_pc = program.pc_of_index(3)
    stores = Production(Pattern.stores(), [original(), template(Opcode.TRAP)],
                        name="stores")
    at_halt = Production(Pattern.at_pc(program.pc_of_index(6)),
                         [original()], name="at-halt")
    machine = Machine(program, COMPILED,
                      trap_handler=lambda event: TransitionKind.NONE)
    engine = machine.dise_engine
    machine.dise_controller.install(stores)
    machine.dise_controller.install(at_halt)
    machine.dise_controller.deactivate(stores)
    assert store_pc not in engine._by_pc
    assert engine._by_opclass == {}
    machine.run()
    blocks = machine._compiled.blocks
    assert blocks.get(store_pc) is None
    assert any(entry is not _FALLBACK for entry in blocks.values())
    assert machine.regs[1] == 200
    assert machine.stats.traps == 0
    assert machine.stats.dise_expansions == 1  # the halt
