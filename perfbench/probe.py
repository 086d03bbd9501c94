"""Interpreter-tier probe: simulated instructions per host second.

For the table and compiled tiers, each in timed and functional mode, a
fresh :class:`~repro.cpu.machine.Machine` per benchmark runs a first
window (which pays for decoding and, on the compiled tier, block
compilation) and then a steady window.  The geometric mean over the
six benchmarks gives ``cpu.<tier>.<mode>.{cold,steady}_ips``; the
timing model's cost per instruction is the table tier's steady timed
time per instruction minus its steady functional time per instruction.
The legacy tier is not probed.  Rates are at the reference host speed
(see ``hostspeed``).
"""

from __future__ import annotations

from perfbench import hostspeed
from perfbench.layers import geomean

COLD_WINDOW = 150_000
STEADY_WINDOW = 100_000


def _windows(benchmark: str, tier: str, timed: bool) -> tuple[float, float]:
    from repro.config import DEFAULT_CONFIG
    from repro.cpu.machine import Machine
    from repro.workloads.corpus import build_workload

    machine = Machine(build_workload(benchmark),
                      DEFAULT_CONFIG.with_(interpreter=tier),
                      detailed_timing=timed)
    rates = []
    for target in (COLD_WINDOW, COLD_WINDOW + STEADY_WINDOW):
        before = machine.stats.total_instructions
        _, wall, scale = hostspeed.timed(lambda: machine.run(target))
        rates.append((machine.stats.total_instructions - before)
                     / (wall * scale))
    return rates[0], rates[1]


def tier_probe() -> dict[str, tuple[float, str]]:
    """The eight ``cpu.*_ips`` metrics plus ``cpu.timing.ns_per_inst``."""
    from repro.workloads.benchmarks import BENCHMARK_NAMES

    out: dict[str, tuple[float, str]] = {}
    for tier in ("table", "compiled"):
        for mode, timed in (("timed", True), ("functional", False)):
            cold, steady = zip(*(_windows(b, tier, timed)
                                 for b in BENCHMARK_NAMES))
            out[f"cpu.{tier}.{mode}.cold_ips"] = (geomean(cold), "inst/s")
            out[f"cpu.{tier}.{mode}.steady_ips"] = (geomean(steady),
                                                    "inst/s")
    timed = out["cpu.table.timed.steady_ips"][0]
    functional = out["cpu.table.functional.steady_ips"][0]
    out["cpu.timing.ns_per_inst"] = (1e9 / timed - 1e9 / functional, "ns")
    return out
