"""Interpreter throughput: legacy chain vs dispatch table vs compiled,
and the timing model's cost on the table tier.

Measures interpreter speed in simulated instructions per wall-clock
second on the Figure 3 workloads and records the numbers to
``benchmarks/results/interpreter_throughput.txt``.  The first two
exhibits run functional mode (``detailed_timing=False``); the third
runs the table tier timed, as the figure grid and debug sessions do.

Three exhibits share the file:

* **legacy vs table** (plain and with a DISE watchpoint-style
  expansion active): short cold cells, ratio-checked against the
  committed baseline from when the dispatch table landed.
* **table vs compiled** (plain): *steady-state* cells — each machine
  warms through ``WARM_INSTRUCTIONS`` first (populating the decode
  cache, the warm-up counters, and the block cache), then the rate is
  the best of ``MEASURE_WINDOWS`` timed windows of
  ``MEASURE_INSTRUCTIONS`` each.  Best-of-N on *both* sides keeps the
  ratio fair while shaving scheduler noise, which on shared CI
  machines swings single-window rates by +-30%.  The compiled tier is
  only measured plain: with productions installed, store-bearing
  blocks deliberately fall back to the table path (expansion semantics
  are not compiled), so there is no speedup to claim there.
* **table, timed vs functional**: steady-state cells as above, but
  shorter (``TIMED_WARM_INSTRUCTIONS``, then the best of
  ``MEASURE_WINDOWS`` windows of ``TIMED_MEASURE_INSTRUCTIONS``) on
  both sides; the ratio of timed to functional time per instruction is
  what the timing model costs.

Asserts:

* table/legacy plain geomean >= 1.5x and both table/legacy geomeans
  within 20% of the committed baselines (ratios, not absolute inst/s,
  so the check is machine-independent and usable as a CI smoke test);
* compiled/table plain geomean >= COMPILED_FLOOR_SPEEDUP (3.0x) — the
  CI regression floor under the 5x bench target recorded in the
  results file;
* timed/functional geomean time ratio <= REGRESSION_CEILING times the
  committed TIMED_RATIO_BASELINE (a ratio, so machine-independent).

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/bench_interpreter_throughput.py -q
"""

from __future__ import annotations

import math
import time

from benchmarks.conftest import record
from repro.config import MachineConfig
from repro.cpu.machine import Machine
from repro.cpu.stats import TransitionKind
from repro.dise.pattern import Pattern
from repro.dise.production import Production
from repro.dise.template import original, template
from repro.isa.opcodes import Opcode
from repro.isa.registers import dise_reg
from repro.workloads.benchmarks import BENCHMARK_NAMES, build_benchmark

APP_INSTRUCTIONS = 40_000

# Steady-state cells (table vs compiled): warm first, then time the
# best of N measurement windows.
WARM_INSTRUCTIONS = 2_000_000
MEASURE_INSTRUCTIONS = 2_000_000
MEASURE_WINDOWS = 3

# Steady-state cells of the timed exhibit (table tier, both modes).
TIMED_WARM_INSTRUCTIONS = 200_000
TIMED_MEASURE_INSTRUCTIONS = 300_000

LEGACY = MachineConfig(interpreter="legacy")
TABLE = MachineConfig()
COMPILED = MachineConfig(interpreter="compiled")

# Committed baseline speedups (geomean table/legacy, measured when the
# dispatch table landed).  The smoke check fails when a measured
# speedup drops more than 20% below its baseline.
BASELINE_SPEEDUP = {"plain": 1.77, "dise": 1.75}
REGRESSION_TOLERANCE = 0.8

# The compiled tier's bench target is >=5x over the table geomean
# (recorded in the results file); the CI floor is deliberately lower
# so shared-runner noise cannot fail a healthy build.
COMPILED_TARGET_SPEEDUP = 5.0
COMPILED_FLOOR_SPEEDUP = 3.0

# Committed geomean of (timed time per instruction) / (functional time
# per instruction) on the table tier, measured when per-event timing
# code was made cheap.  The smoke check fails when the timing model's
# share grows the ratio more than 20% above it.
TIMED_RATIO_BASELINE = 1.85
REGRESSION_CEILING = 1.2


def _watch_production() -> Production:
    """A watchpoint-flavoured expansion: store + conditional trap that
    never fires (dr0 stays zero), so the run measures pure expansion and
    interpretation cost."""
    return Production(
        Pattern.stores(),
        [original(), template(Opcode.CTRAP, rs1=dise_reg(0))],
        name="throughput-watch")


def _machine(name: str, config: MachineConfig, with_dise: bool,
             timed: bool = False) -> Machine:
    machine = Machine(build_benchmark(name), config, detailed_timing=timed,
                      trap_handler=lambda event: TransitionKind.NONE)
    if with_dise:
        machine.dise_controller.install(_watch_production())
    return machine


def _throughput(name: str, config: MachineConfig, with_dise: bool) -> float:
    machine = _machine(name, config, with_dise)
    start = time.perf_counter()
    machine.run(max_app_instructions=APP_INSTRUCTIONS)
    elapsed = time.perf_counter() - start
    return machine.stats.total_instructions / elapsed


def _steady_state(name: str, config: MachineConfig, timed: bool = False,
                  warm: int = WARM_INSTRUCTIONS,
                  window: int = MEASURE_INSTRUCTIONS) -> float:
    """Warm, then return the best inst/s over MEASURE_WINDOWS windows."""
    machine = _machine(name, config, with_dise=False, timed=timed)
    machine.run(max_app_instructions=warm)
    best = 0.0
    target = warm
    for _ in range(MEASURE_WINDOWS):
        before = machine.stats.total_instructions
        target += window
        start = time.perf_counter()
        machine.run(max_app_instructions=target)
        elapsed = time.perf_counter() - start
        best = max(best, (machine.stats.total_instructions - before) / elapsed)
    return best


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_interpreter_throughput(results_dir):
    lines = [
        "Interpreter throughput (functional mode, simulated inst/s)",
        f"{APP_INSTRUCTIONS:,} application instructions per cell",
        "",
        f"{'benchmark':<10} {'mode':<6} {'legacy':>12} {'table':>12} "
        f"{'speedup':>8}",
    ]
    speedups: dict[str, list[float]] = {"plain": [], "dise": []}
    for name in BENCHMARK_NAMES:
        for mode, with_dise in (("plain", False), ("dise", True)):
            legacy = _throughput(name, LEGACY, with_dise)
            table = _throughput(name, TABLE, with_dise)
            speedup = table / legacy
            speedups[mode].append(speedup)
            lines.append(f"{name:<10} {mode:<6} {legacy:>12,.0f} "
                         f"{table:>12,.0f} {speedup:>7.2f}x")
    geo_plain = _geomean(speedups["plain"])
    geo_dise = _geomean(speedups["dise"])
    lines += [
        "",
        f"geomean speedup (plain): {geo_plain:.2f}x",
        f"geomean speedup (dise):  {geo_dise:.2f}x",
        f"committed baseline: plain {BASELINE_SPEEDUP['plain']:.2f}x, "
        f"dise {BASELINE_SPEEDUP['dise']:.2f}x",
        "",
        "Compiled tier, steady state (plain; warm "
        f"{WARM_INSTRUCTIONS:,}, best of {MEASURE_WINDOWS} x "
        f"{MEASURE_INSTRUCTIONS:,}-instruction windows)",
        "",
        f"{'benchmark':<10} {'table':>12} {'compiled':>12} {'speedup':>8}",
    ]
    compiled_speedups = []
    for name in BENCHMARK_NAMES:
        table = _steady_state(name, TABLE)
        compiled = _steady_state(name, COMPILED)
        speedup = compiled / table
        compiled_speedups.append(speedup)
        lines.append(f"{name:<10} {table:>12,.0f} {compiled:>12,.0f} "
                     f"{speedup:>7.2f}x")
    geo_compiled = _geomean(compiled_speedups)
    lines += [
        "",
        f"geomean speedup (compiled/table, plain): {geo_compiled:.2f}x",
        f"bench target: >={COMPILED_TARGET_SPEEDUP:.0f}x; "
        f"CI floor: >={COMPILED_FLOOR_SPEEDUP:.1f}x",
        "",
        "Table tier, timed vs functional, steady state (plain; warm "
        f"{TIMED_WARM_INSTRUCTIONS:,}, best of {MEASURE_WINDOWS} x "
        f"{TIMED_MEASURE_INSTRUCTIONS:,}-instruction windows)",
        "",
        f"{'benchmark':<10} {'timed':>12} {'functional':>12} "
        f"{'time ratio':>10}",
    ]
    timed_ratios = []
    for name in BENCHMARK_NAMES:
        timed, functional = (
            _steady_state(name, TABLE, timed=mode,
                          warm=TIMED_WARM_INSTRUCTIONS,
                          window=TIMED_MEASURE_INSTRUCTIONS)
            for mode in (True, False))
        ratio = functional / timed
        timed_ratios.append(ratio)
        lines.append(f"{name:<10} {timed:>12,.0f} {functional:>12,.0f} "
                     f"{ratio:>9.2f}x")
    geo_timed = _geomean(timed_ratios)
    lines += [
        "",
        f"geomean time ratio (timed/functional): {geo_timed:.2f}x",
        f"committed baseline: {TIMED_RATIO_BASELINE:.2f}x; CI ceiling: "
        f"<={REGRESSION_CEILING * TIMED_RATIO_BASELINE:.2f}x",
    ]
    record(results_dir, "interpreter_throughput", "\n".join(lines))

    # Tentpole target: >=1.5x functional-mode throughput.
    assert geo_plain >= 1.5, f"plain speedup {geo_plain:.2f}x < 1.5x"
    # Anti-regression smoke: within 20% of the committed baseline.
    assert geo_plain >= REGRESSION_TOLERANCE * BASELINE_SPEEDUP["plain"], \
        f"plain speedup {geo_plain:.2f}x regressed >20% vs baseline"
    assert geo_dise >= REGRESSION_TOLERANCE * BASELINE_SPEEDUP["dise"], \
        f"dise speedup {geo_dise:.2f}x regressed >20% vs baseline"
    # Compiled-tier regression floor (the bench target is 5x; the CI
    # floor leaves headroom for slow shared runners).
    assert geo_compiled >= COMPILED_FLOOR_SPEEDUP, \
        f"compiled speedup {geo_compiled:.2f}x < {COMPILED_FLOOR_SPEEDUP}x"
    # Timing-model ceiling: timed runs may not cost more than 20% over
    # the committed timed/functional ratio.
    assert geo_timed <= REGRESSION_CEILING * TIMED_RATIO_BASELINE, \
        f"timed/functional {geo_timed:.2f}x regressed >20% vs baseline"
