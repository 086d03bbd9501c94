"""The differential oracle: N backends x 3 interpreters, one verdict.

For one generated :class:`~repro.fuzz.generator.ProgramSpec` the oracle
runs the program undebugged on the dispatch-table, legacy, and compiled
interpreters, and under each of the five debugger backends on all three
interpreters, and checks:

* **undebugged, table vs legacy and table vs compiled**: identical
  final registers, memory, and full
  :class:`~repro.cpu.stats.SimStats`;
* **each backend, table vs legacy and table vs compiled**: identical
  canonical stop sequence and full SimStats — interpreter choice must
  be invisible;
* **production-toggle leg** (DISE backend, when the spec carries
  points): productions are deactivated right after install, a third of
  the budget runs "undebugged", then they are reactivated for the
  remainder — table vs compiled must agree on stops and stats, which
  is exactly what a compiled tier with broken block invalidation
  cannot do (see the ``compiled-skip-invalidation`` injection);
* **across backends** (and vs undebugged where applicable): identical
  final architectural state (compared registers, every program
  variable, the scratch array, the stack slots, the checksum) and
  identical canonical stop sequences.  Spurious-transition counts are
  explicitly *not* compared across backends: they are the mechanism
  cost the paper measures, and legitimately differ.

The tier x backend part is :func:`run_matrix`, which corpus
conformance (:mod:`repro.workloads.conformance`) runs too, and every
debugged run — in the matrix, in conformance and in each leg — is
built by one helper, ``_debugged``.

Raw stop PCs are **not** comparable across backends — binary rewriting
shifts text addresses, single-stepping stops at the statement after a
store, and DISE traps from inside an expansion.  The canonical
:class:`Stop` record therefore contains only backend-independent facts:
which breakpoint *numbers* were hit (resolved through each backend's
own program image) and which watched variables changed to which values
(diffed against a recorder-private shadow copy).  Data addresses are
identical everywhere (the data segment base is fixed and transforms
only append), so watched-variable reads need no translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.config import DEFAULT_CONFIG, INTERPRETERS, MachineConfig
from repro.cpu.machine import Machine, TrapEvent
from repro.cpu.stats import TransitionKind
from repro.debugger.backends import backend_class
from repro.debugger.watchpoint import Breakpoint, Watchpoint
from repro.fuzz.generator import (ProgramSpec, SCRATCH_QUADS, STACK_SLOTS,
                                  build_program, dynamic_budget)
from repro.isa.program import STACK_TOP

BACKENDS = ("single_step", "virtual_memory", "hardware", "binary_rewrite",
            "dise")
#: Registers whose final values must agree across backends.  r26-r29
#: (ra/gp and the rewriter's scavenged pair) belong to the mechanism,
#: not the program, and are excluded; r30 is the stack pointer.
COMPARE_REGS = tuple(range(1, 26)) + (30,)
QUAD = 8


@dataclass(frozen=True)
class Stop:
    """One canonical user-visible stop.

    ``breakpoints`` holds the numbers of the breakpoints hit (almost
    always one); ``changes`` holds ``(variable, new_value)`` for every
    watched variable whose value differs from the previous stop.  A
    breakpoint number of ``-1`` marks a user stop at a PC that maps to
    no breakpoint — itself a divergence, surfaced by comparison.
    """

    breakpoints: tuple[int, ...] = ()
    changes: tuple[tuple[str, int], ...] = ()

    def describe(self) -> str:
        """Compact rendering, e.g. ``stop(bp#1, v0=0x14)``."""
        parts = [f"bp#{n}" for n in self.breakpoints]
        parts += [f"{name}={value:#x}" for name, value in self.changes]
        return "stop(" + ", ".join(parts) + ")"


class StopRecorder:
    """Interpose on a backend's trap handler; record canonical stops.

    The recorder re-points ``machine.trap_handler`` at itself and
    forwards every event to the backend's own handler, so backend
    classification is untouched.  On a USER classification it computes
    the canonical :class:`Stop` from the backend's *own* program image
    and memory — at that moment the triggering store has committed in
    every mechanism (stores commit before trap delivery; single-step
    traps at the following statement).
    """

    def __init__(self, backend):
        self.stops: list[Stop] = []
        memory = backend.machine.memory
        resolver = backend.resolver
        self._memory = memory
        self._watch_addrs: dict[str, int] = {}
        for wp in backend.watchpoints:
            name = str(wp.expression)
            self._watch_addrs[name] = resolver.resolve(name)[0]
        self._shadow = {name: memory.read_int(addr, QUAD)
                        for name, addr in self._watch_addrs.items()}
        self._bp_numbers = {bp.resolve_pc(backend.program): bp.number
                            for bp in backend.breakpoints}
        self._inner = backend.machine.trap_handler
        backend.machine.trap_handler = self

    def __call__(self, event: TrapEvent) -> TransitionKind:
        kind = self._inner(event)
        if kind is TransitionKind.USER:
            changes = []
            for name, addr in self._watch_addrs.items():
                value = self._memory.read_int(addr, QUAD)
                if value != self._shadow[name]:
                    self._shadow[name] = value
                    changes.append((name, value))
            breakpoints: tuple[int, ...] = ()
            if self._bp_numbers:
                number = self._bp_numbers.get(event.pc, -1)
                breakpoints = (number,)
            self.stops.append(Stop(breakpoints, tuple(sorted(changes))))
        return kind


@dataclass
class RunOutcome:
    """Final observable state of one run of the differential matrix."""

    name: str  # e.g. "dise/table" or "undebugged/legacy"
    halted: bool = False
    stops: tuple[Stop, ...] = ()
    regs: tuple[int, ...] = ()  # values of COMPARE_REGS, in order
    state: tuple[tuple[str, int], ...] = ()  # named memory words
    stats: Optional[dict] = None  # SimStats.to_dict()
    error: Optional[str] = None
    fingerprint: str = ""  # Machine.state_fingerprint (checkpoint legs)


@dataclass
class Divergence:
    """One observed disagreement between two runs."""

    kind: str  # "error" | "termination" | "stops" | "state" | "stats"
    runs: tuple[str, str]
    detail: str

    def describe(self) -> str:
        """One-line rendering used in summaries and failure artifacts."""
        return f"[{self.kind}] {self.runs[0]} vs {self.runs[1]}: {self.detail}"


@dataclass
class OracleReport:
    """Everything :func:`run_differential` observed for one spec."""

    seed: int
    divergences: list[Divergence] = field(default_factory=list)
    stop_count: int = 0
    spurious: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        """JSON-ready form, embedded in failure artifacts."""
        return {
            "seed": self.seed,
            "ok": self.ok,
            "stop_count": self.stop_count,
            "spurious": self.spurious,
            "divergences": [
                {"kind": d.kind, "runs": list(d.runs), "detail": d.detail}
                for d in self.divergences
            ],
        }


def _interp_config(base: Optional[MachineConfig], interp: str
                   ) -> MachineConfig:
    config = base or DEFAULT_CONFIG
    if config.interpreter != interp:
        config = replace(config, interpreter=interp)
    if interp == "compiled" and config.compiled_hot_threshold != 1:
        # Generated programs are tiny; compile every block on first
        # visit so shrunk reproducers stay small and invalidation bugs
        # cannot hide behind warm-up heuristics.
        config = replace(config, compiled_hot_threshold=1)
    return config


def _final_state(spec: ProgramSpec, program, memory) -> tuple:
    """Named memory words every run must agree on."""
    out = []
    for name in spec.var_init:
        out.append((name, memory.read_int(program.address_of(name), QUAD)))
    if spec.epilogue:
        out.append(("checksum",
                    memory.read_int(program.address_of("checksum"), QUAD)))
    scratch = program.address_of("fuzz_scratch")
    for i in range(SCRATCH_QUADS):
        out.append((f"scratch[{i}]",
                    memory.read_int(scratch + i * QUAD, QUAD)))
    for slot in range(STACK_SLOTS):
        out.append((f"stack[{slot}]",
                    memory.read_int(STACK_TOP + slot * QUAD, QUAD)))
    return tuple(out)


def _debugged(backend_name: str, program, watchpoints, breakpoints,
              config: Optional[MachineConfig], interp: str, **options):
    """Build one debugged run: ``program`` under ``backend_name`` on tier
    ``interp`` in functional mode, its stops recorded.

    Every debugged run of the matrix, of corpus conformance and of the
    toggle, checkpoint, interrupt and timeline legs starts here.
    Returns ``(backend, recorder)``.
    """
    backend = backend_class(backend_name)(
        program, watchpoints, breakpoints, _interp_config(config, interp),
        detailed_timing=False, **options)
    return backend, StopRecorder(backend)


def _outcome(name: str, run, machine, state: tuple,
             recorder: Optional[StopRecorder] = None,
             **fields) -> RunOutcome:
    """The observable result of ``run``, a finished run of ``machine``."""
    return RunOutcome(
        name=name, halted=run.halted,
        stops=tuple(recorder.stops) if recorder else (),
        regs=tuple(machine.regs[r] for r in COMPARE_REGS),
        state=state, stats=run.stats.to_dict(), **fields)


def _build_points(spec: ProgramSpec) -> tuple[list[Watchpoint],
                                              list[Breakpoint]]:
    watchpoints, breakpoints = [], []
    for number, point in enumerate(spec.points, start=1):
        if point.kind == "watch":
            watchpoints.append(Watchpoint.parse(point.target,
                                                point.condition, number))
        else:
            breakpoints.append(Breakpoint.parse(point.target,
                                                point.condition, number))
    return watchpoints, breakpoints


def _run_backend(spec: ProgramSpec, backend_name: Optional[str],
                 config: Optional[MachineConfig],
                 interp: str = "table") -> RunOutcome:
    """One cell of the matrix: ``spec`` on tier ``interp`` under
    ``backend_name``, or undebugged when it is None."""
    from repro.fuzz.inject import applied_injection

    name = f"{backend_name or 'undebugged'}/{interp}"
    try:
        with applied_injection(spec.inject, backend_name):
            program = build_program(spec)
            if backend_name is None:
                machine = Machine(program, _interp_config(config, interp),
                                  detailed_timing=False)
                recorder = None
            else:
                backend, recorder = _debugged(
                    backend_name, program, *_build_points(spec), config,
                    interp)
                machine = backend.machine
            run = machine.run(dynamic_budget(spec))
        return _outcome(name, run, machine,
                        _final_state(spec, program, machine.memory),
                        recorder)
    except Exception as exc:  # noqa: BLE001 - a crash IS the finding
        return RunOutcome(name=name, error=f"{type(exc).__name__}: {exc}")


def _run_undebugged(spec: ProgramSpec, config: Optional[MachineConfig],
                    interp: str = "table") -> RunOutcome:
    return _run_backend(spec, None, config, interp)


def _diff_stats(a: dict, b: dict) -> str:
    keys = sorted(set(a) | set(b))
    diffs = [f"{k}: {a.get(k)} != {b.get(k)}" for k in keys
             if a.get(k) != b.get(k)]
    return "; ".join(diffs)


def _diff_state(a: RunOutcome, b: RunOutcome) -> str:
    parts = []
    if a.halted != b.halted:
        parts.append(f"halted {a.halted} != {b.halted}")
    for reg, va, vb in zip(COMPARE_REGS, a.regs, b.regs):
        if va != vb:
            parts.append(f"r{reg} {va:#x} != {vb:#x}")
    for (name, va), (_, vb) in zip(a.state, b.state):
        if va != vb:
            parts.append(f"{name} {va:#x} != {vb:#x}")
    if a.fingerprint and b.fingerprint and a.fingerprint != b.fingerprint:
        parts.append("state fingerprint differs")
    return "; ".join(parts)


def _diff_stops(a: RunOutcome, b: RunOutcome) -> str:
    if len(a.stops) != len(b.stops):
        return (f"{len(a.stops)} stops != {len(b.stops)} stops; first={_first_stop_diff(a, b)}")
    return _first_stop_diff(a, b)


def _first_stop_diff(a: RunOutcome, b: RunOutcome) -> str:
    for i, (sa, sb) in enumerate(zip(a.stops, b.stops)):
        if sa != sb:
            return f"stop {i}: {sa.describe()} != {sb.describe()}"
    return "tail differs"


def _compare(report: OracleReport, a: RunOutcome, b: RunOutcome, *,
             stats: bool, stops: bool) -> None:
    """Append divergences between two runs to ``report``."""
    runs = (a.name, b.name)
    if a.error or b.error:
        if a.error != b.error:
            report.divergences.append(Divergence(
                "error", runs, f"{a.error!r} != {b.error!r}"))
        return
    if not a.halted or not b.halted:
        if a.halted != b.halted:
            report.divergences.append(Divergence(
                "termination", runs,
                f"halted {a.halted} != {b.halted}"))
    if stops and a.stops != b.stops:
        report.divergences.append(Divergence("stops", runs,
                                             _diff_stops(a, b)))
    state_diff = _diff_state(a, b)
    if state_diff:
        report.divergences.append(Divergence("state", runs, state_diff))
    if stats:
        stats_diff = _diff_stats(a.stats, b.stats)
        if stats_diff:
            report.divergences.append(Divergence("stats", runs, stats_diff))


def production_toggle_leg(spec: ProgramSpec,
                          config: Optional[MachineConfig] = None
                          ) -> list[Divergence]:
    """Toggle DISE productions mid-run; table and compiled must agree.

    The DISE backend's productions are deactivated immediately after
    install, a third of the budget runs with them inactive, then they
    are reactivated (at their original priorities) and the run
    finishes.  Both interpreters see the exact same toggle points
    (limits count application instructions), so stop sequences, final
    state, and SimStats must match bit for bit.

    This leg exists to police compiled-block invalidation: a block
    compiled during the inactive window inlines plain stores straight
    through what later become expansion trigger sites.  If
    reactivation fails to flush the block cache (the
    ``compiled-skip-invalidation`` injection), the compiled run misses
    every post-reactivation watchpoint expansion those blocks cover —
    a stops divergence against the identically toggled table run.
    """
    from repro.fuzz.inject import applied_injection

    if not spec.points:
        return []
    budget = dynamic_budget(spec)
    # Size the inactive window from the run's *actual* length, not the
    # budget: generated programs typically halt far below the budget,
    # and a window past the halt point would never exercise
    # reactivation at all.
    probe = _run_undebugged(spec, config, "table")
    if probe.error or not probe.halted:
        return []  # the main matrix reports this failure
    third = max(probe.stats["app_instructions"] // 3, 1)
    outcomes = []
    for interp in ("table", "compiled"):
        name = f"dise-toggle/{interp}"
        try:
            with applied_injection(spec.inject, "dise"):
                program = build_program(spec)
                backend, recorder = _debugged(
                    "dise", program, *_build_points(spec), config, interp)
                controller = backend.machine.dise_controller
                productions = controller.installed_productions
                for production in productions:
                    controller.deactivate(production)
                backend.run(third)
                for production in productions:
                    controller.activate(production)
                run = backend.run(budget)
            outcomes.append(_outcome(
                name, run, backend.machine,
                _final_state(spec, program, backend.machine.memory),
                recorder))
        except Exception as exc:  # noqa: BLE001 - a crash IS the finding
            outcomes.append(RunOutcome(name=name,
                                       error=f"{type(exc).__name__}: {exc}"))
    report = OracleReport(seed=spec.seed)
    _compare(report, outcomes[0], outcomes[1], stats=True, stops=True)
    return report.divergences


def checkpoint_leg(spec: ProgramSpec, backend_name: str,
                   config: Optional[MachineConfig] = None,
                   interp: str = "table") -> list[Divergence]:
    """Exercise snapshot/restore mid-program under one backend.

    Three runs of the same debugged program:

    * an uninterrupted reference run to the budget;
    * a run interrupted at half the budget to take a snapshot, then
      finished ("ckpt-finish");
    * the same machine restored from that snapshot and finished again
      ("ckpt-replay").

    All three must agree bit-for-bit on the canonical stop sequence,
    final architectural state, full SimStats, *and* the machine's
    ``state_fingerprint`` — taking a checkpoint must be invisible, and
    restoring one must deterministically reproduce the suffix.  The
    recorder's shadow state lives outside the machine, so it is saved
    and restored alongside the snapshot.
    """
    from repro.fuzz.inject import applied_injection

    budget = dynamic_budget(spec)
    half = max(budget // 2, 1)

    def launch():
        return _debugged(backend_name, build_program(spec),
                         *_build_points(spec), config, interp)

    def outcome(leg, backend, recorder, run) -> RunOutcome:
        return _outcome(
            f"{backend_name}/{interp}/{leg}", run, backend.machine,
            _final_state(spec, backend.program, backend.machine.memory),
            recorder, fingerprint=backend.state_fingerprint())

    try:
        with applied_injection(spec.inject, backend_name):
            reference, ref_recorder = launch()
            ref = outcome("ckpt-ref", reference, ref_recorder,
                          reference.run(budget))

            backend, recorder = launch()
            backend.run(half)
            blob = backend.snapshot()
            saved_stops = list(recorder.stops)
            saved_shadow = dict(recorder._shadow)
            finish = outcome("ckpt-finish", backend, recorder,
                             backend.run(budget))
            backend.restore(blob)
            recorder.stops[:] = saved_stops
            recorder._shadow = dict(saved_shadow)
            replay = outcome("ckpt-replay", backend, recorder,
                             backend.run(budget))
    except Exception as exc:  # noqa: BLE001 - a crash IS the finding
        return [Divergence(
            "error", (f"{backend_name}/{interp}/ckpt",) * 2,
            f"{type(exc).__name__}: {exc}")]

    report = OracleReport(seed=spec.seed)
    _compare(report, ref, finish, stats=True, stops=True)
    _compare(report, finish, replay, stats=True, stops=True)
    return report.divergences


def interrupt_leg(spec: ProgramSpec, backend_name: str = "dise",
                  config: Optional[MachineConfig] = None
                  ) -> list[Divergence]:
    """Multi-process interrupt determinism: table vs compiled.

    The spec's program runs debugged as pid 1 with an undebugged copy
    of *itself* spawned as a co-resident process, under the round-robin
    kernel with a pinned preemption quantum sized so each process is
    preempted several times.  Timer interrupts land at application-
    instruction boundaries on every interpreter tier, so the two legs
    must agree bit for bit on:

    * the canonical stop sequence (all stops come from pid 1 — the
      debug mechanism lives in its process context only);
    * pid 1's final architectural state, which must also match a *solo*
      debugged table run — preemption must be invisible to the
      debugged program;
    * the whole-machine ``state_fingerprint`` (covers every process)
      and the kernel's context-switch/preemption/syscall counters.
    """
    from repro.fuzz.inject import applied_injection

    probe = _run_undebugged(spec, config, "table")
    if probe.error or not probe.halted:
        return []  # the main matrix reports this failure
    # Several preemptions per process, pinned across interpreters.
    quantum = max(probe.stats["app_instructions"] // 8, 20)
    budget = 2 * dynamic_budget(spec)

    outcomes = []
    for interp in ("table", "compiled"):
        name = f"{backend_name}-mp/{interp}"
        try:
            with applied_injection(spec.inject, backend_name):
                program = build_program(spec)
                backend, recorder = _debugged(
                    backend_name, program, *_build_points(spec), config,
                    interp, processes=[build_program(spec)],
                    quantum=quantum)
                run = backend.run(budget)
            kernel = backend.kernel
            target = kernel.process_state(1)
            outcomes.append(RunOutcome(
                name=name, halted=run.halted, stops=tuple(recorder.stops),
                regs=tuple(target.regs[r] for r in COMPARE_REGS),
                state=_final_state(spec, program, target.memory),
                stats={"context_switches": kernel.context_switches,
                       "preemptions": kernel.preemptions,
                       "syscalls": kernel.syscalls},
                fingerprint=backend.state_fingerprint()))
        except Exception as exc:  # noqa: BLE001 - a crash IS the finding
            outcomes.append(RunOutcome(name=name,
                                       error=f"{type(exc).__name__}: {exc}"))
    report = OracleReport(seed=spec.seed)
    _compare(report, outcomes[0], outcomes[1], stats=True, stops=True)
    # Preemption must not perturb the debugged process: pid 1's stops
    # and final state match a solo debugged run (stats legitimately
    # differ -- the neighbour's instructions are on the same machine).
    solo = _run_backend(spec, backend_name, config, "table")
    _compare(report, solo, outcomes[0], stats=False, stops=True)
    return report.divergences


def timeline_leg(spec: ProgramSpec, backend_name: str,
                 config: Optional[MachineConfig] = None,
                 interp: str = "table", *,
                 interval: int = 256,
                 max_targets: int = 3) -> list[Divergence]:
    """Cross-check time-travel ``last-write`` answers for one spec.

    The debugged program runs forward under a checkpointing
    :class:`~repro.replay.ReverseController` with a ground-truth
    :class:`~repro.timetravel.StoreLogRecorder` attached for the whole
    run — the recorder-private shadow store log, same trick as
    :class:`StopRecorder`'s shadow copies.  For sampled watched
    addresses the bisected :meth:`~repro.timetravel.TimelineQuery.
    last_write` answer must then agree with

    * the newest ground-truth store event overlapping the address
      (ordinal, pc, address, size, value, old value), and
    * the naive rerun-from-genesis landing (``last_write_linear``),
      including the re-landed ``state_fingerprint`` bit for bit.
    """
    from repro.fuzz.inject import applied_injection
    from repro.replay.reverse import ReverseController
    from repro.timetravel import StoreLogRecorder, TimelineQuery

    budget = dynamic_budget(spec)
    name = f"{backend_name}/{interp}/timeline"
    divergences: list[Divergence] = []
    try:
        with applied_injection(spec.inject, backend_name):
            backend, _ = _debugged(backend_name, build_program(spec),
                                   *_build_points(spec), config, interp)
            controller = ReverseController(backend, interval=interval)
            truth = StoreLogRecorder(backend.machine)
            backend.machine.store_observer = truth
            try:
                while True:
                    run = controller.resume(budget)
                    if run.halted or not run.stopped_at_user:
                        break
            finally:
                backend.machine.store_observer = None

            query = TimelineQuery(controller)
            targets = sorted({str(wp.expression)
                              for wp in backend.watchpoints})
            if not targets:
                targets = sorted(spec.var_init)
            for target in targets[:max_targets]:
                address, size = query._resolve_target(target)
                matches = [e for e in truth.events
                           if e.overlaps(address, size)]
                expected = matches[-1] if matches else None
                answer = query.last_write(target)
                if (expected is None) != (not answer.found):
                    divergences.append(Divergence(
                        "stops", (name, name),
                        f"last-write {target}: found={answer.found}, "
                        f"shadow log has {len(matches)} matches"))
                    continue
                if expected is None:
                    continue
                got = (answer.app_instructions, answer.pc, answer.address,
                       answer.size, answer.value, answer.old_value)
                want = (expected.app_instructions, expected.pc,
                        expected.address, expected.size, expected.value,
                        expected.old_value)
                if got != want:
                    divergences.append(Divergence(
                        "stops", (name, name),
                        f"last-write {target}: bisected {got} != "
                        f"shadow-log {want}"))
                linear = query.last_write_linear(target)
                if ((answer.app_instructions, answer.pc,
                     answer.state_fingerprint)
                        != (linear.app_instructions, linear.pc,
                            linear.state_fingerprint)):
                    divergences.append(Divergence(
                        "state", (name, name),
                        f"last-write {target}: bisected landing "
                        f"(app={answer.app_instructions}, "
                        f"pc={answer.pc:#x}) does not re-land the "
                        f"linear genesis replay bit-identically"))
    except Exception as exc:  # noqa: BLE001 - a crash IS the finding
        return [Divergence("error", (name, name),
                           f"{type(exc).__name__}: {exc}")]
    return divergences


#: ``run(backend_name, interp)``: one cell of the matrix (``backend_name``
#: is None for an undebugged run); ``check(backend_name, outcome)``.
CellRunner = Callable[[Optional[str], str], RunOutcome]
OutcomeCheck = Callable[[Optional[str], RunOutcome], None]


def run_matrix(report, run: CellRunner,
               backends: Sequence[str] = BACKENDS,
               interpreters: Sequence[str] = INTERPRETERS, *,
               compare_stops: bool = True, must_halt: bool = True,
               check: Optional[OutcomeCheck] = None) -> bool:
    """Run the tier x backend matrix; append its divergences to ``report``
    (an :class:`OracleReport` or anything with ``divergences`` and
    ``stop_count``).

    ``run(backend_name, interp)`` performs one cell (``backend_name`` is
    None for the undebugged runs); the first of ``interpreters`` is the
    reference tier.  The matrix checks that

    * interpreter choice is invisible: every other tier matches the
      reference tier in final state and full SimStats, undebugged and
      under each backend (and in stops, when ``compare_stops``);
    * debugging does not perturb the application: each backend's
      reference-tier run reproduces the undebugged final state;
    * every backend presents the first backend's stop sequence (when
      ``compare_stops``), whose length becomes ``report.stop_count``.

    A crash is a divergence, and so is a run that does not halt when
    ``must_halt``.  ``check(backend_name, outcome)`` sees the undebugged
    outcome and each backend's reference-tier outcome as it completes;
    only the outcomes still to be compared are kept.  Returns False when
    the undebugged reference failed, which ends the matrix after one run.
    """
    reference_tier, *other_tiers = interpreters
    base = run(None, reference_tier)
    if base.error:
        report.divergences.append(Divergence(
            "error", (base.name, base.name), base.error))
        return False
    if must_halt and not base.halted:
        report.divergences.append(Divergence(
            "termination", (base.name, base.name),
            "undebugged run did not halt within budget"))
        return False
    if check is not None:
        check(None, base)
    for interp in other_tiers:
        _compare(report, base, run(None, interp), stats=True, stops=False)

    first: Optional[RunOutcome] = None
    for backend_name in backends:
        outcome = run(backend_name, reference_tier)
        # Interpreter choice must be invisible per backend.
        for interp in other_tiers:
            _compare(report, outcome, run(backend_name, interp),
                     stats=True, stops=compare_stops)
        if outcome.error:
            report.divergences.append(Divergence(
                "error", (outcome.name, outcome.name), outcome.error))
            continue
        if must_halt and not outcome.halted:
            report.divergences.append(Divergence(
                "termination", (outcome.name, outcome.name),
                "debugged run did not halt within budget"))
        if check is not None:
            check(backend_name, outcome)
        # Debugging must not perturb the application's final state.
        _compare(report, base, outcome, stats=False, stops=False)
        # All backends must present the same user-visible stop sequence.
        if first is None:
            first = outcome
            report.stop_count = len(outcome.stops)
        else:
            _compare(report, first, outcome, stats=False, stops=compare_stops)
    return True


def run_differential(spec: ProgramSpec,
                     config: Optional[MachineConfig] = None,
                     backends: tuple[str, ...] = BACKENDS,
                     checkpoint_backend: Optional[str] = None,
                     interrupt_backend: Optional[str] = None
                     ) -> OracleReport:
    """Run the full differential matrix for one spec.

    Returns an :class:`OracleReport`; ``report.ok`` is the verdict.
    A non-halting run (budget exhausted), a crash, a final-state
    mismatch, or a stop-sequence mismatch all surface as divergences.

    ``checkpoint_backend`` additionally runs the snapshot/restore
    :func:`checkpoint_leg` under the named backend on both
    interpreters; ``interrupt_backend`` runs the multi-process
    :func:`interrupt_leg` under the named backend.  Both fold their
    divergences into the report.
    """
    report = OracleReport(seed=spec.seed)

    def run(backend_name: Optional[str], interp: str) -> RunOutcome:
        return _run_backend(spec, backend_name, config, interp)

    def count_spurious(backend_name: Optional[str],
                       outcome: RunOutcome) -> None:
        if backend_name is not None:
            transitions = outcome.stats.get("transitions", {})
            report.spurious[backend_name] = sum(
                count for key, count in transitions.items()
                if key.startswith("spurious"))

    if not run_matrix(report, run, backends, check=count_spurious):
        return report
    if "dise" in backends:
        report.divergences.extend(production_toggle_leg(spec, config))
    if checkpoint_backend is not None:
        for interp in INTERPRETERS:
            report.divergences.extend(
                checkpoint_leg(spec, checkpoint_backend, config,
                               interp=interp))
    if interrupt_backend is not None:
        report.divergences.extend(
            interrupt_leg(spec, interrupt_backend, config))
    return report
