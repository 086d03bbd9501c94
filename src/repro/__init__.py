"""Reproduction of "Low-Overhead Interactive Debugging via Dynamic
Instrumentation with DISE" (Corliss, Lewis & Roth, HPCA-11, 2005).

The supported entry points live in :mod:`repro.api`:

* :func:`repro.api.simulate` -- run a benchmark (or any program)
  undebugged and measure it.
* :func:`repro.api.debug` -- set (conditional) watchpoints and
  breakpoints, pick one of the five backend implementations, run, and
  read back overhead and transition statistics.
* :func:`repro.api.experiment` -- run a (benchmark x kind x backend)
  grid through the parallel, cache-backed experiment engine.
* :func:`repro.api.timeline` -- record a checkpointed run and answer
  time-travel queries (last-write, first-write, seek-transition,
  value-at) over it by bounded deterministic re-execution.

Every run returns the unified, serializable :class:`repro.RunResult`.
Lower-level pieces (the :class:`repro.Machine` simulator, the DISE
engine, the ISA toolkit, :mod:`repro.harness` for the paper's tables
and figures) remain importable for advanced use.

Quickstart::

    from repro.api import debug

    session = debug("bzip2", backend="dise",
                    watch=[("hot", "hot == 4096")])
    result = session.run(max_app_instructions=100_000, run_baseline=True)
    print(result.summary())
"""

from repro.config import MachineConfig, DEFAULT_CONFIG
from repro.cpu.machine import Machine, MachineRun, TrapEvent, TrapKind
from repro.cpu.stats import SimStats, TransitionKind
from repro.results import RunResult
from repro.debugger.session import Session
from repro.debugger.watchpoint import Watchpoint, Breakpoint
from repro.dise import (DiseController, DiseEngine, Pattern, Production, T,
                        template)
from repro.isa import CodeBuilder, Instruction, Program, assemble
from repro.workloads.benchmarks import (BENCHMARK_NAMES, WATCHPOINT_KINDS,
                                        build_benchmark)
from repro import api
from repro.api import debug, experiment, simulate, timeline

__version__ = "1.1.0"

__all__ = [
    "api",
    "simulate",
    "debug",
    "experiment",
    "timeline",
    "RunResult",
    "MachineConfig",
    "DEFAULT_CONFIG",
    "Machine",
    "MachineRun",
    "TrapEvent",
    "TrapKind",
    "SimStats",
    "TransitionKind",
    "Session",
    "Watchpoint",
    "Breakpoint",
    "DiseController",
    "DiseEngine",
    "Pattern",
    "Production",
    "T",
    "template",
    "CodeBuilder",
    "Instruction",
    "Program",
    "assemble",
    "BENCHMARK_NAMES",
    "WATCHPOINT_KINDS",
    "build_benchmark",
    "__version__",
]
