"""The supported public API: ``simulate()``, ``debug()``,
``experiment()``, ``timeline()``.

This facade is the stable entry point to the reproduction; everything
else is implementation detail that may move between releases.  All
of these functions accept either a benchmark name (one of
:data:`repro.workloads.BENCHMARK_NAMES`) or an assembled
:class:`~repro.isa.program.Program`, and all of their options are
keyword-only.

* :func:`simulate` — run a program undebugged and return its
  :class:`~repro.results.RunResult` (the baseline measurement).
* :func:`debug` — build a debugging :class:`~repro.debugger.session.Session`
  with watchpoints/breakpoints attached; ``session.run()`` returns a
  :class:`~repro.results.RunResult`.
* :func:`experiment` — expand a (benchmark x kind x backend) grid into
  cells and run it through the parallel, cache-backed experiment
  engine; returns a :class:`~repro.harness.figures.FigureResult`.
* :func:`timeline` — record a checkpointed run of the program and
  return a :class:`~repro.timetravel.TimelineQuery` answering
  ``last_write``/``first_write``/``seek_transition``/``seek_until``/
  ``value_at`` time-travel queries over it.

Example::

    from repro.api import debug, experiment, simulate, timeline

    baseline = simulate("bzip2", max_app_instructions=100_000)
    session = debug("bzip2", watch=["hot", ("warm1", "warm1 == 12")])
    result = session.run(max_app_instructions=100_000, run_baseline=True)
    grid = experiment(benchmarks=["bzip2"], kinds=["HOT"], workers=4)
    query = timeline("bzip2", max_app_instructions=100_000)
    answer = query.last_write("hot")
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence, Union

from repro.config import MachineConfig
from repro.cpu.machine import Machine
from repro.debugger.session import Session
from repro.harness.cache import ResultCache
from repro.harness.experiment import CellSpec, ExperimentSettings
from repro.harness.figures import (ALL_KINDS, COMPARED_BACKENDS, FigureResult,
                                   run_figure)
from repro.harness.runner import Runner
from repro.isa.program import Program
from repro.results import RunResult
from repro.workloads.benchmarks import BENCHMARK_NAMES, resolve_program

ProgramLike = Union[Program, str]
WatchSpec = Union[str, tuple]


def simulate(program: ProgramLike, *,
             config: Optional[MachineConfig] = None,
             max_app_instructions: Optional[int] = None,
             warmup_instructions: int = 0) -> RunResult:
    """Run ``program`` undebugged and measure it.

    With ``warmup_instructions`` the machine first executes a warm-up
    interval (caches, TLBs, predictor warm) and resets statistics
    before the measured interval — the paper's methodology.
    """
    program, name = resolve_program(program)
    machine = Machine(program, config)
    started = time.perf_counter()
    if warmup_instructions:
        machine.run(warmup_instructions)
        machine.reset_stats()
    run = machine.run(max_app_instructions)
    return RunResult(
        name, "simulate", "undebugged", None,
        stats=run.stats,
        halted=run.halted,
        stopped_at_user=run.stopped_at_user,
        wall_time=time.perf_counter() - started,
    )


def debug(program: ProgramLike, *,
          backend: str = "dise",
          watch: Union[WatchSpec, Iterable[WatchSpec]] = (),
          break_at: Union[str, int, Iterable[Union[str, int]]] = (),
          config: Optional[MachineConfig] = None,
          **backend_options) -> Session:
    """Build a debugging session over ``program``.

    ``watch`` entries are expressions (``"hot"``) or
    ``(expression, condition)`` pairs; ``break_at`` entries are labels
    or absolute PCs.  Further keyword options go to the backend (e.g.
    ``multi_strategy="bloom-bit"`` for DISE).  Returns the session;
    call :meth:`~repro.debugger.session.Session.run` to execute.
    """
    program, _ = resolve_program(program)
    session = Session(program, backend=backend, config=config,
                      **backend_options)
    if isinstance(watch, str) or (
            isinstance(watch, tuple) and len(watch) == 2
            and isinstance(watch[0], str)):
        watch = [watch]
    for entry in watch:
        if isinstance(entry, str):
            session.watch(entry)
        else:
            expression, condition = entry
            session.watch(expression, condition=condition)
    if isinstance(break_at, (str, int)):
        break_at = [break_at]
    for location in break_at:
        session.break_at(location)
    return session


def timeline(program: ProgramLike, *,
             backend: str = "dise",
             watch: Union[WatchSpec, Iterable[WatchSpec]] = (),
             break_at: Union[str, int, Iterable[Union[str, int]]] = (),
             config: Optional[MachineConfig] = None,
             max_app_instructions: Optional[int] = None,
             checkpoint_interval: int = 10_000,
             checkpoint_capacity: int = 64,
             **backend_options):
    """Record a run of ``program`` and return its time-travel query API.

    Builds the same debugging session as :func:`debug`, wraps it in the
    checkpointing :class:`~repro.replay.ReverseController`, runs the
    program forward (straight through watchpoint/breakpoint stops)
    until it halts or ``max_app_instructions`` is reached, and returns
    a :class:`~repro.timetravel.TimelineQuery` bound to the recorded
    history.  The returned query object answers ``last_write``,
    ``first_write``, ``seek_transition``, ``seek_until`` and
    ``value_at`` by re-executing bounded checkpoint windows; its
    ``.controller`` exposes the live session for further forward or
    reverse navigation.
    """
    session = debug(program, backend=backend, watch=watch,
                    break_at=break_at, config=config, **backend_options)
    controller = session.start_interactive(
        checkpoint_interval=checkpoint_interval,
        checkpoint_capacity=checkpoint_capacity)
    while not controller.machine.halted:
        run = controller.resume(max_app_instructions)
        if run.halted or not run.stopped_at_user:
            break
    from repro.timetravel import TimelineQuery

    return TimelineQuery(controller)


def experiment(*,
               benchmarks: Sequence[str] = BENCHMARK_NAMES,
               kinds: Sequence[str] = ALL_KINDS,
               backends: Sequence[str] = COMPARED_BACKENDS,
               conditional: bool = False,
               specs: Optional[Sequence[CellSpec]] = None,
               corpus=None,
               corpus_size: int = 32,
               corpus_seed: int = 0,
               settings: Optional[ExperimentSettings] = None,
               scale: Optional[float] = None,
               workers: int = 0,
               cache: Optional[ResultCache] = None,
               progress: bool = False,
               runner: Optional[Runner] = None) -> FigureResult:
    """Run an experiment grid through the parallel engine.

    By default the grid is the cross product ``benchmarks x kinds x
    backends`` (pass ``specs`` for an explicit cell list instead).
    ``corpus`` sweeps a program corpus as the workload axis instead:
    anything :func:`~repro.workloads.corpus.resolve_corpus` accepts —
    a named corpus (``"programs"``, ``"benchmarks"``, ``"generated"``,
    ``"full"``), a :class:`~repro.workloads.corpus.Corpus`, a single
    entry or workload name, or an iterable of them; ``corpus_size``
    and ``corpus_seed`` parameterize the generated leg.  Each entry
    runs on every backend with a watchpoint on its default target, and
    whole-program entries carry their own instruction budgets into the
    cell identity.  ``workers`` selects parallelism (0 = serial
    in-process), ``cache`` overrides the default on-disk result cache,
    and ``progress`` streams a telemetry line to stderr; pass a
    pre-built ``runner`` to control everything at once.  The returned
    :class:`~repro.harness.figures.FigureResult` carries the engine's
    :class:`~repro.harness.runner.RunReport` as ``.report``.
    """
    description = None
    if specs is None and corpus is not None:
        from repro.workloads.corpus import corpus_specs, resolve_corpus

        resolved = resolve_corpus(corpus, size=corpus_size,
                                  seed=corpus_seed)
        specs = corpus_specs(resolved, backends)
        description = (f"{len(specs)}-cell sweep over corpus "
                       f"'{resolved.name}' ({len(resolved)} workloads)")
    elif specs is None:
        specs = [
            CellSpec.make(bench, kind, backend, conditional=conditional)
            for bench in benchmarks
            for kind in kinds
            for backend in backends
        ]
    if settings is None:
        settings = ExperimentSettings.scaled(scale)
    runner = runner or Runner(workers=workers, cache=cache,
                              progress=progress)
    return run_figure(
        "experiment",
        description
        or f"{len(specs)}-cell grid via the parallel experiment engine",
        specs, settings, runner=runner)
