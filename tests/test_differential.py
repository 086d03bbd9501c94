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


# -- translated sequence tails vs the legacy interpreter --------------------
#
# The table loop runs each replacement sequence's DISE-inserted tail as
# translated host code (repro.cpu.compiled.translate_tail); the legacy
# tier interprets every instruction.  Every sequence organization the
# DISE backend builds must come out identical on both, timed and
# functional: full SimStats, the exact float cycle count (stall charges
# are fractional), registers, the DISE register file and the state
# fingerprint.

#: (backend options, watched variables, MachineConfig fields).
ORGANIZATIONS = {
    "match-address": ({"check": "match-address"}, ("v0",), {}),
    "match-address-branch": ({"check": "match-address",
                              "conditional_isa": False}, ("v0",), {}),
    "evaluate-expression": ({"check": "evaluate-expression"}, ("v0",), {}),
    "evaluate-expression-branch": ({"check": "evaluate-expression",
                                    "conditional_isa": False}, ("v0",), {}),
    "match-address-value": ({"check": "match-address-value"}, ("v0",), {}),
    "match-address-value-branch": ({"check": "match-address-value",
                                    "conditional_isa": False}, ("v0",), {}),
    "serial": ({"multi_strategy": "serial"}, ("v0", "v1", "v2"), {}),
    "bloom-byte": ({"multi_strategy": "bloom-byte"}, ("v0", "v1", "v2"), {}),
    "bloom-bit": ({"multi_strategy": "bloom-bit"}, ("v0", "v1", "v2"), {}),
    "protect": ({"protect": True}, ("v0",), {}),
    "prune-stack-stores": ({"prune_stack_stores": True}, ("v0",), {}),
    "multithreaded": ({}, ("v0", "v1"), {"multithreaded_dise_calls": True}),
}
RUN_LIMIT = 50_000


def _dise_backend(seed, organization, interpreter, timed):
    options, watches, config = ORGANIZATIONS[organization]
    session = Session(generate_program(seed).build(), backend="dise",
                      config=MachineConfig(interpreter=interpreter, **config),
                      detailed_timing=timed, **options)
    for name in watches:
        session.watch(name)
    return session.build_backend()


def _outcome(machine):
    timing = machine.timing
    return (machine.stats, timing.cycles.hex() if timing else None,
            list(machine.regs), machine.dise_regs.snapshot(),
            machine.state_fingerprint())


def _step_to_end(machine, on_step=None):
    """Run one application instruction per call: every trigger leaves
    its sequence at index 1 between calls."""
    while (not machine.halted
           and machine.stats.app_instructions < RUN_LIMIT):
        machine.run(max_app_instructions=machine.stats.app_instructions + 1)
        if on_step is not None:
            on_step(machine)


@pytest.mark.parametrize("timed", (True, False), ids=("timed", "functional"))
@pytest.mark.parametrize("organization", ORGANIZATIONS)
@pytest.mark.parametrize("seed", SEEDS[:5])
def test_translated_tails_match_legacy_interpreter(seed, organization,
                                                   timed):
    outcomes = {}
    for interpreter in ("legacy", "table"):
        backend = _dise_backend(seed, organization, interpreter, timed)
        backend.machine.run(max_app_instructions=RUN_LIMIT)
        outcomes[interpreter] = _outcome(backend.machine)
    assert outcomes["table"] == outcomes["legacy"], (seed, organization)
    assert outcomes["table"][0].dise_expansions > 0

    # Sliced one application instruction at a time, and restored from
    # a snapshot taken with a sequence active at index 1: both finish
    # as the unsliced run does.
    backend = _dise_backend(seed, organization, "table", timed)
    mid_sequence = []

    def snapshot_mid_sequence(machine):
        if (not mid_sequence and machine._expansion is not None
                and machine._exp_index == 1):
            mid_sequence.append(backend.snapshot())

    _step_to_end(backend.machine, snapshot_mid_sequence)
    assert _outcome(backend.machine) == outcomes["legacy"], "stepped"
    assert mid_sequence, "no run limit landed inside a sequence"
    backend.restore(mid_sequence[0])
    backend.machine.run(max_app_instructions=RUN_LIMIT)
    assert _outcome(backend.machine) == outcomes["legacy"], "restored"


def test_translated_tails_are_taken():
    """On bzip2 watching ``hot``, no DISE-inserted ALU, load or
    ``d_ccall`` instruction reaches its dispatch-table handler: the
    translation runs every one of them."""
    from repro.isa.instruction import (H_ALU_IMM, H_ALU_LDA, H_ALU_MOV,
                                       H_ALU_REG, H_DISE_CALL, H_LOAD)
    from repro.workloads.benchmarks import build_benchmark

    session = Session(build_benchmark("bzip2"), backend="dise")
    session.watch("hot")
    backend = session.build_backend()
    machine = backend.machine
    interpreted = []

    def counting(handler):
        def run(m, inst, d, is_dise):
            if m._expansion is not None and m._exp_index > 0:
                interpreted.append(inst)
            return handler(m, inst, d, is_dise)
        return run

    handlers = list(Machine._HANDLERS)
    for index in (H_ALU_LDA, H_ALU_MOV, H_ALU_IMM, H_ALU_REG, H_LOAD,
                  H_DISE_CALL):
        handlers[index] = counting(handlers[index])
    machine._HANDLERS = tuple(handlers)  # this machine's loop only
    machine.run(max_app_instructions=30_000)
    assert machine.stats.dise_instructions > 0
    assert machine.stats.function_instructions > 0  # d_ccall calls ran
    assert interpreted == []


def test_every_translated_construct_matches_legacy_interpreter():
    """One store production using each construct a tail translates —
    trigger and template immediates, the zero register, an ALU op with
    no inline form (sra), a nop, loads, nested and overlapping DISE
    skips, a skip to the end, a ctrap that fires, a d_ccall whose
    function uses d_mfr/d_mtr — agrees with the legacy tier."""
    from repro.dise.pattern import Pattern
    from repro.dise.production import Production
    from repro.dise.template import T, original, template
    from repro.isa import assemble
    from repro.isa.opcodes import Opcode
    from repro.isa.registers import ZERO_REG, dise_reg

    source = """
    .data
    hot:  .quad 3
    cold: .quad 0
    .text
    main:
        lda r1, hot
        lda r2, cold
    loop:
        addq r6, 1, r6
        stq r6, 0(r2)
        and r6, 7, r7
        stq r7, 0(r1)
        cmpeq r6, 300, r8
        beq r8, loop
        halt
    handler:
        d_mfr r20, 4
        addq r20, 1, r20
        d_mtr r20, 4
        d_ret
    """
    dr = dise_reg
    sequence = [
        original(),
        template(Opcode.ADDQ, rd=dr(1), rs1=T.RS1, imm=T.IMM),    # 1
        template(Opcode.SRA, rd=dr(2), rs1=dr(1), imm=3),         # 2
        template(Opcode.NOP),                                     # 3
        template(Opcode.LDQ, rd=ZERO_REG, rs1=T.RS1, imm=T.IMM),  # 4
        template(Opcode.LDQ, rd=dr(3), rs1=T.RS1, imm=T.IMM),     # 5
        template(Opcode.AND, rd=dr(3), rs1=dr(3), imm=1),         # 6
        template(Opcode.AND, rd=dr(5), rs1=T.RD, imm=2),          # 7
        template(Opcode.D_BEQ, rs1=dr(3), imm=3),                 # 8
        template(Opcode.D_BNE, rs1=dr(5), imm=1),                 # 9
        template(Opcode.XOR, rd=dr(4), rs1=dr(4), imm=1),         # 10
        template(Opcode.ADDQ, rd=dr(4), rs1=dr(4), imm=5),        # 11
        template(Opcode.D_BEQ, rs1=dr(5), imm=1),                 # 12
        template(Opcode.D_BNE, rs1=dr(3), imm=2),                 # 13
        template(Opcode.CMPLT, rd=dr(6), rs1=dr(3), rs2=T.RD),    # 14
        template(Opcode.CTRAP, rs1=dr(6)),                        # 15
        template(Opcode.D_CCALL, rs1=dr(5), target="handler"),    # 16
        template(Opcode.MOV, rd=dr(7), rs1=dr(4)),                # 17
        template(Opcode.D_BR, imm=1),                             # 18
        template(Opcode.XOR, rd=dr(4), rs1=dr(4), imm=2),         # 19
    ]
    outcomes = []
    for interpreter, timed in (("legacy", True), ("table", True),
                               ("legacy", False), ("table", False)):
        program = assemble(source)
        sequence[16] = template(Opcode.D_CCALL, rs1=dr(5),
                                target=program.pc_of_label("handler"))
        machine = Machine(program, MachineConfig(interpreter=interpreter),
                          trap_handler=lambda event: TransitionKind.NONE,
                          detailed_timing=timed)
        machine.dise_controller.install(
            Production(Pattern.stores(), sequence, name="every"))
        machine.run()
        assert machine.halted and machine.stats.traps > 0
        outcomes.append(_outcome(machine))
    assert outcomes[0] == outcomes[1]
    assert outcomes[2] == outcomes[3]
