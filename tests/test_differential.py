"""Differential testing: random programs under every backend.

A miniature fuzzer: generate seeded random programs (ALU soup, loads,
stores to a small data region, short loops), run them undebugged, then
run them with a watchpoint under each backend.  Debugging must never
change the program's architectural results — the paper's entire premise
is *transparent* observation.

Failures here have historically caught template instantiation bugs,
branch-retargeting mistakes in the rewriter, and register-routing
errors, which is exactly what a differential suite is for.
"""

import random

import pytest

from repro.config import MachineConfig
from repro.cpu.machine import Machine
from repro.cpu.stats import TransitionKind
from repro.debugger import Session
from repro.errors import UnsupportedWatchpointError
from repro.isa.builder import CodeBuilder

SEEDS = list(range(10))
BACKENDS = ("single_step", "virtual_memory", "hardware", "binary_rewrite",
            "dise")
# Registers the generator may use (avoids sp/ra/zero and the rewriter's
# scavenged pair).
REGS = [f"r{i}" for i in range(1, 13)]
VARS = ["v0", "v1", "v2", "v3"]


def generate_program(seed: int) -> CodeBuilder:
    """A random but always-terminating program."""
    rng = random.Random(seed)
    b = CodeBuilder(f"fuzz-{seed}")
    for name in VARS:
        b.data_quad(name, rng.randrange(1, 100))
    b.data_space("pad", 64)
    b.label("main")
    b.stmt()
    # A bounded outer loop.
    iterations = rng.randrange(3, 9)
    b.lda("r20", 0, "zero")
    b.label("loop")
    for _ in range(rng.randrange(8, 20)):
        choice = rng.random()
        rd, rs = rng.choice(REGS), rng.choice(REGS)
        if choice < 0.35:
            op = rng.choice(["addq", "subq", "xor", "and_", "bis"])
            if rng.random() < 0.5:
                b.op(op.rstrip("_"), rs, rng.randrange(0, 64), rd)
            else:
                b.op(op.rstrip("_"), rs, rng.choice(REGS), rd)
        elif choice < 0.55:
            b.ldq(rd, rng.choice(VARS))
        elif choice < 0.8:
            b.stq(rs, rng.choice(VARS))
        elif choice < 0.9:
            b.stq(rs, rng.randrange(0, 8) * 8, "sp")
        else:
            b.stmt()
            b.op(rng.choice(["sll", "srl"]), rs, rng.randrange(0, 8), rd)
    b.stmt()
    b.addq("r20", 1, "r20")
    b.cmpult("r20", iterations, "r21")
    b.bne("r21", "loop")
    b.halt()
    return b


def _final_state(program):
    """Run undebugged; return (registers, watched-var values)."""
    machine = Machine(program, detailed_timing=False)
    machine.run(max_app_instructions=50_000)
    values = {name: machine.memory.read_int(program.address_of(name), 8)
              for name in VARS}
    return list(machine.regs), values


@pytest.mark.parametrize("seed", SEEDS)
def test_backends_preserve_random_program_semantics(seed):
    reference_regs, reference_vars = _final_state(
        generate_program(seed).build())
    for backend in BACKENDS:
        program = generate_program(seed).build()
        session = Session(program, backend=backend)
        session.watch("v0")
        try:
            debugged = session.build_backend()
        except UnsupportedWatchpointError:
            continue
        debugged.machine.run(max_app_instructions=50_000)
        machine = debugged.machine
        resolved = debugged.program
        values = {name: machine.memory.read_int(
            resolved.address_of(name), 8) for name in VARS}
        assert values == reference_vars, (seed, backend)
        # Scavenged/instrumentation registers excluded: the application
        # registers must match exactly.
        for index in list(range(1, 26)) + [30]:
            assert machine.regs[index] == reference_regs[index], \
                (seed, backend, index)


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_dise_variants_agree(seed):
    """All DISE sequence organizations compute the same results."""
    reference_regs, reference_vars = _final_state(
        generate_program(seed).build())
    for options in ({"check": "match-address"},
                    {"check": "evaluate-expression"},
                    {"check": "match-address-value"},
                    {"check": "match-address", "conditional_isa": False},
                    {"multi_strategy": "bloom-byte"},
                    {"multi_strategy": "bloom-bit"},
                    {"protect": True}):
        program = generate_program(seed).build()
        session = Session(program, backend="dise", **options)
        session.watch("v0")
        backend = session.build_backend()
        backend.machine.run(max_app_instructions=50_000)
        values = {name: backend.machine.memory.read_int(
            program.address_of(name), 8) for name in VARS}
        assert values == reference_vars, (seed, options)


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_transition_invariants_hold_on_random_programs(seed):
    """DISE never produces spurious transitions, on any program."""
    program = generate_program(seed).build()
    session = Session(program, backend="dise")
    session.watch("v0")
    backend = session.build_backend()
    result = backend.machine.run(max_app_instructions=50_000)
    assert result.stats.spurious_transitions == 0


# -- dispatch-table vs legacy interpreter ---------------------------------
#
# The interpreter rewrite (decode cache + handler table) must be
# bit-identical to the retained legacy path: full SimStats equality —
# instruction counts by origin, memory/control events, transitions, and
# cycles — across every backend, plus recorded absolute expectations so
# a simultaneous drift of both interpreters cannot slip through.

LEGACY_CONFIG = MachineConfig(interpreter="legacy")
TABLE_CONFIG = MachineConfig()


def _backend_machine(seed, backend, config, detailed_timing=True):
    program = generate_program(seed).build()
    session = Session(program, backend=backend, config=config,
                      detailed_timing=detailed_timing)
    session.watch("v0")
    debugged = session.build_backend()
    debugged.machine.run(max_app_instructions=50_000)
    return debugged.machine


def _backend_stats(seed, backend, config):
    return _backend_machine(seed, backend, config).stats


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS[:5])
def test_dispatch_table_matches_legacy_interpreter(seed, backend):
    """Full-SimStats equivalence of the two interpreter paths, with the
    detailed timing model attached (cycles included)."""
    legacy = _backend_stats(seed, backend, LEGACY_CONFIG)
    table = _backend_stats(seed, backend, TABLE_CONFIG)
    assert legacy == table, (seed, backend)


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_functional_fast_path_matches_legacy(seed):
    """The no-timing fast path computes identical stats and registers."""
    outcomes = []
    for config in (LEGACY_CONFIG, TABLE_CONFIG):
        program = generate_program(seed).build()
        machine = Machine(program, config, detailed_timing=False)
        machine.run(max_app_instructions=50_000)
        outcomes.append((machine.stats, list(machine.regs)))
    assert outcomes[0] == outcomes[1]


# -- timed vs functional runs ---------------------------------------------
#
# Each tier runs timed and functional (detailed_timing=False) through one
# code path that skips the timing model's events when it is detached.
# Skipping them must change nothing else: a semantic update misplaced
# under a handler's timing test shows up here as a register or counter
# that differs between the two modes.

# Compiling on first visit puts these short programs on compiled blocks,
# which differ between the modes (if-conversion is functional-only).
COMPILED_CONFIG = MachineConfig(interpreter="compiled",
                                compiled_hot_threshold=1)
#: What only the timing model decides: a functional run reports its
#: instruction count as cycles and counts no DISE call flushes.
TIMING_ONLY_STATS = ("cycles", "dise_call_flushes")


@pytest.mark.parametrize("config", (TABLE_CONFIG, COMPILED_CONFIG),
                         ids=("table", "compiled"))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS[:5])
def test_functional_run_matches_timed_run(seed, backend, config):
    runs = []
    for detailed_timing in (True, False):
        machine = _backend_machine(seed, backend, config, detailed_timing)
        stats = machine.stats.to_dict()
        for name in TIMING_ONLY_STATS:
            del stats[name]
        runs.append((list(machine.regs), stats))
    assert runs[0] == runs[1], (seed, backend)


# Recorded expectations for seed 0, captured from the seed interpreter:
# (app_instructions, dise_instructions, function_instructions,
#  user_transitions, spurious_transitions, cycles).
SEED0_EXPECTATIONS = {
    "single_step": (97, 0, 0, 1, 15, 1_500_547),
    "virtual_memory": (97, 0, 0, 1, 39, 3_900_806),
    "hardware": (97, 0, 0, 1, 4, 400_419),
    "binary_rewrite": (97, 292, 0, 1, 0, 782),
    "dise": (97, 220, 67, 1, 0, 647),
}


@pytest.mark.parametrize("backend", BACKENDS)
def test_recorded_seed_expectations(backend):
    """Pin seed-0 behaviour to absolute numbers recorded from the seed
    interpreter, so both paths cannot drift together unnoticed."""
    stats = _backend_stats(0, backend, TABLE_CONFIG)
    expected = SEED0_EXPECTATIONS[backend]
    actual = (stats.app_instructions, stats.dise_instructions,
              stats.function_instructions,
              stats.transitions[TransitionKind.USER],
              stats.spurious_transitions, stats.cycles)
    assert actual == expected, backend
