"""Asserted memory bound on held checkpoints of a timed machine.

A timed machine's tag arrays (I$, D$, L2 and both TLBs: 4,640 sets in
the default configuration) are part of every snapshot.  Sets are
immutable tuples that checkpoints share with the live caches, so a
held checkpoint costs one reference per set plus the sets that changed
since the previous one; memory pages are shared copy-on-write the same
way.  Twenty checkpoints of a warm gcc run must stay under 4 MB.
"""

from __future__ import annotations

import tracemalloc

from repro.cpu.machine import Machine
from repro.workloads.benchmarks import build_benchmark

WARM_INSTRUCTIONS = 20_000
CHECKPOINTS = 20
SPACING = 2_000
BOUND_BYTES = 4 * 2**20


def test_held_timed_checkpoints_share_unchanged_state():
    machine = Machine(build_benchmark("gcc"))
    machine.run(WARM_INSTRUCTIONS)
    held = []
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for n in range(1, CHECKPOINTS + 1):
            machine.run(WARM_INSTRUCTIONS + n * SPACING)
            held.append(machine.snapshot())
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert machine.stats.app_instructions == (WARM_INSTRUCTIONS
                                              + CHECKPOINTS * SPACING)
    assert len(held) == CHECKPOINTS
    assert growth < BOUND_BYTES, f"{growth / 2**20:.2f} MB"
