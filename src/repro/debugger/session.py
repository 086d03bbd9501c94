"""The user-facing debugging session.

:class:`Session` plays the role of the interactive debugger: the user
sets (conditional) watchpoints and breakpoints against a loaded
program, picks an implementation backend, and runs.  The session
reports execution time, the transition breakdown, and the overhead
versus an undebugged baseline — all packaged in the unified
:class:`repro.results.RunResult` record.

The supported way to obtain a session is :func:`repro.api.debug`;
constructing :class:`Session` directly is equivalent.

Example::

    from repro.api import debug

    session = debug("bzip2", backend="dise")
    session.watch("hot")                          # unconditional
    session.watch("warm1", condition="warm1 == 12345")  # conditional
    result = session.run(max_app_instructions=100_000, run_baseline=True)
    print(result.summary())
"""

from __future__ import annotations

import time
from typing import Optional, Union

from repro.config import MachineConfig
from repro.cpu.machine import MachineRun
from repro.debugger.backends import backend_class
from repro.debugger.watchpoint import Breakpoint, Watchpoint
from repro.isa.program import Program
from repro.results import RunResult


class Session:
    """Collects watchpoints/breakpoints; runs them under a backend."""

    def __init__(self, program: Program, backend: str = "dise",
                 config: Optional[MachineConfig] = None, **backend_options):
        self.program = program
        self.backend_name = backend
        self.config = config
        self.backend_options = backend_options
        self.watchpoints: list[Watchpoint] = []
        self.breakpoints: list[Breakpoint] = []
        self._next_number = 1

    # -- user commands -----------------------------------------------------

    def watch(self, expression: str,
              condition: Optional[str] = None) -> Watchpoint:
        """Set a watchpoint on ``expression`` (optionally conditional)."""
        wp = Watchpoint.parse(expression, condition,
                              number=self._next_number)
        self._next_number += 1
        self.watchpoints.append(wp)
        return wp

    def break_at(self, location: Union[str, int],
                 condition: Optional[str] = None) -> Breakpoint:
        """Set a breakpoint at a label or absolute PC."""
        bp = Breakpoint.parse(location, condition, number=self._next_number)
        self._next_number += 1
        self.breakpoints.append(bp)
        return bp

    def delete(self, point: Union[Watchpoint, Breakpoint]) -> None:
        """Remove a previously set watchpoint or breakpoint."""
        if isinstance(point, Watchpoint):
            self.watchpoints.remove(point)
        else:
            self.breakpoints.remove(point)

    # -- execution ---------------------------------------------------------

    def build_backend(self):
        """Instantiate the backend (installs the mechanism)."""
        cls = backend_class(self.backend_name)
        return cls(self.program, self.watchpoints, self.breakpoints,
                   self.config, **self.backend_options)

    def start_interactive(self, checkpoint_interval: int = 10_000,
                          checkpoint_capacity: int = 64,
                          record_fingerprints: bool = False):
        """Build the backend wrapped in a reverse-execution controller.

        The controller runs the program stop-to-stop (``resume``),
        auto-checkpoints every ``checkpoint_interval`` application
        instructions, and supports ``reverse_continue``/``reverse_step``
        via restore + deterministic re-execution (see
        :class:`repro.replay.ReverseController`).
        """
        from repro.replay import ReverseController

        backend = self.build_backend()
        return ReverseController(
            backend, interval=checkpoint_interval,
            capacity=checkpoint_capacity,
            record_fingerprints=record_fingerprints)

    def run(self, max_app_instructions: Optional[int] = None,
            run_baseline: bool = False) -> RunResult:
        """Run the debugged program.

        With ``run_baseline`` the same program is also run undebugged on
        a fresh machine, filling in :attr:`RunResult.overhead` and
        :attr:`RunResult.baseline_stats`.
        """
        backend = self.build_backend()
        started = time.perf_counter()
        run = backend.run(max_app_instructions)
        baseline = None
        if run_baseline:
            baseline = _undebugged_run(self.program, self.config,
                                       max_app_instructions)
        self.last_backend = backend
        stats = run.stats
        return RunResult(
            self.program.name,
            "session",
            self.backend_name,
            run.overhead_vs(baseline) if baseline is not None else None,
            any(wp.is_conditional for wp in self.watchpoints),
            stats.user_transitions,
            stats.spurious_transitions,
            stats=stats,
            baseline_stats=baseline.stats if baseline is not None else None,
            halted=run.halted,
            stopped_at_user=run.stopped_at_user,
            wall_time=time.perf_counter() - started,
        )


def _undebugged_run(program: Program,
                    config: Optional[MachineConfig] = None,
                    max_app_instructions: Optional[int] = None) -> MachineRun:
    """Run ``program`` with no debugger attached (the baseline)."""
    from repro.cpu.machine import Machine

    machine = Machine(program, config)
    return machine.run(max_app_instructions)
