"""CPU simulation: functional execution plus a cycle-level timing model.

* :mod:`repro.cpu.stats` -- counters collected during a run.
* :mod:`repro.cpu.predictor` -- hybrid branch predictor, BTB, RAS.
* :mod:`repro.cpu.timing` -- the single-pass timing model.
* :mod:`repro.cpu.functional` -- pure instruction semantics (ALU ops,
  branch conditions, sign handling).
* :mod:`repro.cpu.machine` -- the :class:`Machine`: fetch, DISE
  expansion, execute, trap delivery, statistics.

The machine executes functionally in program order while streaming
events into the timing model (width, ports, cache/TLB misses, flushes,
debugger transitions).  See DESIGN.md for why this decoupled style is a
faithful stand-in for the paper's SimpleScalar-based simulator at the
granularity its results depend on.
"""

from repro.cpu.machine import Machine, MachineRun, TrapEvent, TrapKind
from repro.cpu.stats import SimStats, TransitionKind
from repro.cpu.timing import TimingModel
from repro.cpu.predictor import BranchPredictor

__all__ = [
    "Machine",
    "MachineRun",
    "TrapEvent",
    "TrapKind",
    "SimStats",
    "TransitionKind",
    "TimingModel",
    "BranchPredictor",
]
