"""Backend base class.

A backend realizes a set of watchpoints/breakpoints with a concrete
mechanism.  It owns the :class:`~repro.cpu.machine.Machine` for the run
(binary rewriting must transform the program before the machine loads
it) and acts as the machine's trap handler — i.e. it *is* the debugger
process: every trap the machine delivers crosses into it, and its job
is to classify the crossing as a user transition or one of the spurious
kinds (which the timing model then charges).
"""

from __future__ import annotations

from typing import Any, Container, NamedTuple, Optional, Sequence

from repro.config import MachineConfig, DEFAULT_CONFIG
from repro.cpu.machine import Machine, TrapEvent, WeakBoundMethod
from repro.cpu.stats import TransitionKind
from repro.debugger.expressions import ProgramResolver
from repro.debugger.transitions import WatchpointMonitor
from repro.debugger.watchpoint import Breakpoint, Watchpoint
from repro.isa.program import Program


class Option(NamedTuple):
    """A backend option a caller may set: the type its JSON value must
    have, its default, and the values it may take (every value of the
    type when empty).  A ``tuple`` option's value is an array of ints."""

    type: type
    default: Any = None
    choices: Container = ()

    def accepts(self, value: Any) -> bool:
        """Does ``value``, as decoded from JSON, mean what it says?"""
        if self.type is tuple:
            if (type(value) not in (list, tuple)
                    or any(type(item) is not int for item in value)):
                return False
            value = tuple(value)
        elif type(value) is not self.type:
            return False
        return not self.choices or value in self.choices


#: The values of a count option (``quantum``, ``num_registers``).
COUNTS = range(2 ** 63)


class DebuggerBackend:
    """Base class for all watchpoint implementations."""

    name = "abstract"
    #: Every option the backend reads (through :meth:`option`); the
    #: wire refuses any other (see ``check_backend_options``).
    OPTIONS: dict[str, Option] = {
        "detailed_timing": Option(bool, True),
        "quantum": Option(int, None, COUNTS),
    }
    #: Backends that statically transform the program set this so the
    #: session knows the original binary is left untouched or not.
    transforms_program = False
    #: Most backends realize breakpoints with the hardware breakpoint
    #: registers (trap at fetch); DISE uses productions and
    #: single-stepping checks statement addresses itself.
    uses_breakpoint_registers = True

    def __init__(
        self,
        program: Program,
        watchpoints: Sequence[Watchpoint] = (),
        breakpoints: Sequence[Breakpoint] = (),
        config: Optional[MachineConfig] = None,
        **options,
    ):
        self.original_program = program
        self.watchpoints = list(watchpoints)
        self.breakpoints = list(breakpoints)
        self.config = config or DEFAULT_CONFIG
        # In-process only: a checkpoint blob and neighbour programs.
        warm_checkpoint = options.pop("warm_checkpoint", None)
        processes = options.pop("processes", ())
        self.options = options
        detailed_timing = self.option("detailed_timing")
        quantum = self.option("quantum")

        # Each backend instance models one debugged *process*: it works
        # on a private image of the binary, so the on-disk program stays
        # pristine and sessions can be relaunched.  The DISE backend
        # only ever appends to its image; the rewriter transforms it.
        self.program = self.transform_program(program.copy())
        # The machine holds this backend weakly, so dropping the backend
        # frees both without waiting for the cycle collector.
        self.machine = Machine(self.program, self.config,
                               trap_handler=WeakBoundMethod(self.handle_trap),
                               detailed_timing=detailed_timing)
        # A warm-start checkpoint (from an *undebugged* run of the same
        # program/config — see repro.harness.experiment) restores before
        # the monitor captures initial values and before prepare()
        # installs the mechanism, so debugger state lands on top of the
        # warmed machine exactly as if the debugger attached here.
        self.warm_started = warm_checkpoint is not None
        if warm_checkpoint is not None:
            if self.transforms_program:
                raise ValueError(
                    f"backend {self.name!r} transforms the program; a "
                    f"checkpoint of the original binary cannot be "
                    f"restored into it")
            self.machine.restore(warm_checkpoint)
        self.resolver = ProgramResolver(self.program)
        self.monitor = WatchpointMonitor(self.watchpoints, self.resolver,
                                         self.machine.memory)
        self._breakpoint_pcs = {
            bp.resolve_pc(self.program): bp for bp in self.breakpoints}
        if self.breakpoints and self.uses_breakpoint_registers:
            self.machine.breakpoint_registers.update(self._breakpoint_pcs)
        self.prepare()
        # Multi-process sessions: co-resident programs share the core
        # under a round-robin kernel (see repro.kernel).  The debugged
        # target stays pid 1 — the mechanism prepare() just installed
        # lives in its process context only, so neighbours run
        # undebugged.  Attached *after* prepare() so every backend's
        # setup path is identical with or without neighbours.
        self.kernel = None
        if processes or quantum is not None:
            from repro.kernel import DEFAULT_QUANTUM, Kernel
            self.kernel = Kernel(
                self.machine,
                quantum=DEFAULT_QUANTUM if quantum is None else quantum)
            for neighbour in processes:
                self.kernel.spawn(neighbour)

    def option(self, name: str) -> Any:
        """The caller's value of a declared option, or its default."""
        return self.options.get(name, self.OPTIONS[name].default)

    @property
    def current_process(self) -> str:
        """Name of the process scheduled on the machine (for stop
        reporting: every backend tells the user *which process* the
        debugger stopped in)."""
        return self.machine.current_process

    # -- extension points ------------------------------------------------------

    def transform_program(self, program: Program) -> Program:
        """Return the program the machine should load.

        ``program`` is already a private copy of the session's binary;
        the default keeps it unchanged.
        """
        return program

    def prepare(self) -> None:
        """Install the mechanism (protections, registers, productions)."""

    def handle_trap(self, event: TrapEvent) -> TransitionKind:
        """Classify a debugger transition."""
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------------

    def classify_breakpoint(self, pc: int) -> TransitionKind:
        """Classify a breakpoint hit at ``pc`` (evaluating its condition)."""
        bp = self._breakpoint_pcs.get(pc)
        if bp is None or not bp.enabled:
            return TransitionKind.SPURIOUS_ADDRESS
        if bp.condition is None:
            return TransitionKind.USER
        if bp.condition.evaluate(self.resolver, self.machine.memory):
            return TransitionKind.USER
        return TransitionKind.SPURIOUS_PREDICATE

    def classify_store_hit(self, hits: Sequence[Watchpoint]) -> TransitionKind:
        """Classify a store that overlapped watched data.

        Evaluates each hit watchpoint's expression; a value change with a
        true (or absent) predicate is a user transition.
        """
        if not hits:
            return TransitionKind.SPURIOUS_ADDRESS
        best = TransitionKind.SPURIOUS_VALUE
        for wp in hits:
            changed, predicate = self.monitor.check(wp)
            if not changed:
                continue
            if predicate is None or predicate:
                return TransitionKind.USER
            best = TransitionKind.SPURIOUS_PREDICATE
        return best

    # -- snapshots ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Capture machine + debugger bookkeeping as an opaque blob.

        Covers the machine (which includes the armed substrate:
        breakpoint registers, watch ranges, protections, productions),
        the monitor's previous-value mirror, per-point enabled flags,
        and backend-specific counters via :meth:`_snapshot_extra`.
        """
        return {
            "machine": self.machine.snapshot(),
            "monitor": self.monitor.snapshot(),
            "wp_enabled": tuple(wp.enabled for wp in self.watchpoints),
            "bp_enabled": tuple(bp.enabled for bp in self.breakpoints),
            "extra": self._snapshot_extra(),
        }

    def restore(self, blob: dict) -> None:
        """Rewind backend + machine to a previous :meth:`snapshot`."""
        self.machine.restore(blob["machine"])
        self.monitor.restore(blob["monitor"])
        for wp, enabled in zip(self.watchpoints, blob["wp_enabled"]):
            wp.enabled = enabled
        for bp, enabled in zip(self.breakpoints, blob["bp_enabled"]):
            bp.enabled = enabled
        self._restore_extra(blob["extra"])

    def state_fingerprint(self) -> str:
        """Architectural digest (delegates to the machine)."""
        return self.machine.state_fingerprint()

    def _snapshot_extra(self):
        """Backend-specific mutable state (counters); None by default."""
        return None

    def _restore_extra(self, extra) -> None:
        """Restore what :meth:`_snapshot_extra` captured."""

    # -- run ------------------------------------------------------------------------

    def run(self, max_app_instructions: Optional[int] = None):
        """Run the debugged machine (delegates to :meth:`Machine.run`)."""
        return self.machine.run(max_app_instructions)
