"""Checkpoint cost: copy-on-write snapshots vs full deep copies.

The replay subsystem takes periodic checkpoints during ``Machine.run``;
for that to be affordable the snapshot must be O(dirty pages), not
O(memory).  This benchmark times ``Machine.snapshot()`` against a full
``copy.deepcopy`` of the same machine's mutable state on a footprint of
a couple thousand resident pages, and asserts the CoW snapshot is at
least 10x cheaper.  That machine is functional (no timing model), so a
second case measures what a timed machine adds: its cache and TLB tag
arrays.  A snapshot plus restore of a warm default-config machine must
cost at most 4x that of its functional twin; the ratio is measured in
one process, so it does not depend on host speed.  It also measures
the warm-start path end to end: a warm-started experiment cell must
recompute *zero* prefix instructions (its measured run covers exactly
the measure budget).

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/bench_checkpoint_cost.py -q
"""

from __future__ import annotations

import copy
import time

from benchmarks.conftest import record
from repro.cpu.machine import Machine
from repro.harness.experiment import (CellSpec, ExperimentSettings,
                                      execute_spec)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.memory.main_memory import PAGE_BYTES
from repro.workloads.benchmarks import build_benchmark

TARGET_PAGES = 2_000
SPEEDUP_FLOOR = 10.0
SNAPSHOT_ROUNDS = 20
WARM_INSTRUCTIONS = 20_000
CHECKPOINT_ROUNDS = 30
TIMED_RATIO_CEILING = 4.0

#: Sections of the ``checkpoint_cost`` exhibit, in the order recorded.
_EXHIBIT: dict[str, str] = {}


def _record_section(results_dir, key: str, text: str) -> None:
    _EXHIBIT[key] = text
    record(results_dir, "checkpoint_cost", "\n\n".join(_EXHIBIT.values()))


def _wide_footprint_machine() -> Machine:
    """A machine with ~TARGET_PAGES resident data pages."""
    program = Program([Instruction(Opcode.HALT)], {"main": 0},
                      name="footprint")
    machine = Machine(program, detailed_timing=False)
    base = 0x0010_0000
    for page in range(TARGET_PAGES):
        machine.memory.write_int(base + page * PAGE_BYTES, 8, page + 1)
    return machine


def _deepcopy_blob(machine: Machine) -> dict:
    """The non-CoW alternative: deep-copy every mutable component."""
    return {
        "regs": copy.deepcopy(machine.regs),
        "memory": copy.deepcopy(machine.memory._pages),
        "pagetable": copy.deepcopy(machine.pagetable.snapshot()),
        "dise_regs": copy.deepcopy(machine.dise_regs.snapshot()),
        "stats": copy.deepcopy(machine.stats),
    }


def _time(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_cow_snapshot_beats_deep_copy(benchmark, results_dir):
    machine = _wide_footprint_machine()
    assert machine.memory.resident_pages >= TARGET_PAGES

    def measure():
        snap = _time(machine.snapshot, SNAPSHOT_ROUNDS)
        deep = _time(lambda: _deepcopy_blob(machine), 3)
        return snap, deep

    snap, deep = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = deep / snap

    text = "\n".join([
        "checkpoint cost: CoW snapshot vs deep copy "
        f"({machine.memory.resident_pages} resident pages)",
        f"  snapshot:  {snap * 1e6:10.1f} us",
        f"  deepcopy:  {deep * 1e6:10.1f} us",
        f"  speedup:   {speedup:10.1f}x (floor {SPEEDUP_FLOOR:.0f}x)",
    ])
    _record_section(results_dir, "cow", text)
    assert speedup >= SPEEDUP_FLOOR, text


def _warm_gcc(detailed_timing: bool) -> Machine:
    machine = Machine(build_benchmark("gcc"), detailed_timing=detailed_timing)
    machine.run(WARM_INSTRUCTIONS)
    return machine


def test_timed_checkpoint_costs_little_over_functional(benchmark,
                                                       results_dir):
    timed = _warm_gcc(True)
    functional = _warm_gcc(False)

    def round_trip(machine: Machine):
        return lambda: machine.restore(machine.snapshot())

    def measure():
        return (_time(round_trip(timed), CHECKPOINT_ROUNDS),
                _time(round_trip(functional), CHECKPOINT_ROUNDS))

    timed_s, functional_s = benchmark.pedantic(measure, rounds=1,
                                               iterations=1)
    ratio = timed_s / functional_s
    text = "\n".join([
        "checkpoint cost: snapshot + restore, warm gcc "
        f"({WARM_INSTRUCTIONS:,} instructions, best of "
        f"{CHECKPOINT_ROUNDS})",
        f"  timed:       {timed_s * 1e6:10.1f} us",
        f"  functional:  {functional_s * 1e6:10.1f} us",
        f"  ratio:       {ratio:10.1f}x (ceiling "
        f"{TIMED_RATIO_CEILING:.0f}x)",
    ])
    _record_section(results_dir, "timed", text)
    assert ratio <= TIMED_RATIO_CEILING, text


def test_warm_start_skips_the_entire_prefix(benchmark, results_dir):
    settings = ExperimentSettings(measure_instructions=20_000,
                                  warmup_instructions=20_000,
                                  warm_start=True)
    spec = CellSpec.make("bzip2", "hot", "dise")

    def run():
        return execute_spec(spec, settings)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.warm_started
    # Zero prefix instructions recomputed: the measured run is exactly
    # the measure budget, nothing more.
    assert result.stats.app_instructions == settings.measure_instructions
    record(results_dir, "warm_start",
           f"warm-start: measured {result.stats.app_instructions:,} "
           f"app instructions (prefix of "
           f"{settings.warmup_instructions:,} resumed from checkpoint)")
