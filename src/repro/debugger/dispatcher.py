"""Transport-agnostic debugger command dispatch.

:class:`CommandDispatcher` is the single implementation of the debugger
verb set (``watch``, ``break``, ``run``, ``reverse-continue``,
``last-write``, ...).  The verb table itself lives in
:mod:`repro.debugger.verbs` — a declarative registry this dispatcher,
the REPL's help, and the server's wire protocol all consume, so the
three can never drift.  Every verb returns a :class:`CommandResult`
carrying both a structured, JSON-able ``data`` payload and the
human-readable ``text`` rendering — the terminal REPL
(:class:`repro.debugger.repl.DebuggerShell`) prints the text, while the
session server (:mod:`repro.server`) ships the data over the wire.
Failures raise :class:`CommandError`, which carries a stable
machine-readable ``code`` so remote callers get structured error
replies instead of a dead connection.

The dispatcher owns one :class:`~repro.debugger.session.Session` and,
once running, one :class:`~repro.replay.ReverseController` plus one
:class:`~repro.timetravel.TimelineQuery`; it is the unit of state the
server pins to a worker process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.config import MachineConfig
from repro.debugger.backends import BACKENDS
from repro.debugger.expressions import parse_expression
from repro.debugger.session import Session, _undebugged_run
from repro.debugger.verbs import REGISTRY, parse_count, spec_for
from repro.errors import ReproError
from repro.isa.program import Program

DEFAULT_STEP = 1_000_000
#: Most quads one ``x`` dumps: a 4 KiB page, whose reply fits one wire
#: frame at any 64-bit address.
MAX_DUMP_QUADS = 512
#: Bytes the 64-bit machine can address; ``x`` dumps only inside them.
ADDRESS_SPACE = 1 << 64

#: Stable machine-readable failure codes (the server's wire contract).
BAD_REQUEST = "bad-request"
UNKNOWN_VERB = "unknown-verb"
COMMAND_FAILED = "command-failed"
REPLAY_DIVERGENCE = "replay-divergence"
#: A history verb (rewind/reverse-continue/timeline queries) issued
#: before the program ever ran — there is no checkpoint to rewind to.
NO_CHECKPOINT = "no-checkpoint"


class CommandError(ReproError):
    """A structured command failure (bad syntax, unknown name, ...)."""

    def __init__(self, message: str, code: str = BAD_REQUEST):
        super().__init__(message)
        self.code = code


@dataclass
class CommandResult:
    """One verb's outcome: structured payload + human rendering."""

    verb: str
    data: dict = field(default_factory=dict)
    text: str = ""


class CommandDispatcher:
    """Execute debugger verbs against one session; return structure."""

    def __init__(self, program: Program, backend: str = "dise",
                 config: Optional[MachineConfig] = None, *,
                 record_fingerprints: bool = False,
                 default_step: int = DEFAULT_STEP,
                 **backend_options):
        self.session = Session(program, backend=backend,
                               config=config, **backend_options)
        self.program = program
        self.record_fingerprints = record_fingerprints
        self.default_step = default_step
        self._backend_obj = None
        self._controller = None  # ReverseController once running
        self._timeline = None  # TimelineQuery once a query runs
        self._instructions_run = 0

    # -- dispatch ----------------------------------------------------------

    @classmethod
    def verbs(cls) -> tuple[str, ...]:
        """Every verb this dispatcher understands (registry order)."""
        return tuple(spec.name for spec in REGISTRY)

    def dispatch(self, verb: str, args: list[str]) -> CommandResult:
        """Run one verb; raise :class:`CommandError` on any failure."""
        spec = spec_for(verb)
        if spec is None:
            raise CommandError(f"Undefined command: {verb!r}. Try 'help'.",
                               code=UNKNOWN_VERB)
        if spec.needs_history:
            self._require_history(verb)
        handler: Callable[[list[str]], CommandResult] = \
            getattr(self, spec.method)
        try:
            return handler(list(args))
        except CommandError:
            raise
        except ReproError as exc:
            raise CommandError(f"error: {exc}", code=COMMAND_FAILED) from exc

    # -- breakpoint/watchpoint management ----------------------------------

    @staticmethod
    def _split_condition(args: list[str]) -> tuple[str, Optional[str]]:
        if "if" in args:
            split = args.index("if")
            return " ".join(args[:split]), " ".join(args[split + 1:])
        return " ".join(args), None

    def cmd_watch(self, args: list[str]) -> CommandResult:
        """watch EXPR [if COND] — set a (conditional) watchpoint."""
        if not args:
            raise CommandError("usage: watch EXPR [if COND]")
        expression, condition = self._split_condition(args)
        wp = self.session.watch(expression, condition=condition)
        self._invalidate()
        return CommandResult(
            "watch",
            {"number": wp.number, "kind": "watchpoint",
             "describe": wp.describe()},
            f"Watchpoint {wp.number}: {wp.describe()}")

    def cmd_break(self, args: list[str]) -> CommandResult:
        """break LOCATION [if COND] — set a (conditional) breakpoint."""
        if not args:
            raise CommandError("usage: break LOCATION [if COND]")
        location, condition = self._split_condition(args)
        target: object = location
        if location.startswith("0x") or location.isdigit():
            try:
                target = int(location, 0)
            except ValueError:
                raise CommandError(
                    f"bad location {location!r}; usage: break "
                    f"LOCATION [if COND]") from None
        bp = self.session.break_at(target, condition=condition)
        self._invalidate()
        return CommandResult(
            "break",
            {"number": bp.number, "kind": "breakpoint",
             "describe": bp.describe()},
            f"Breakpoint {bp.number}: {bp.describe()}")

    def cmd_delete(self, args: list[str]) -> CommandResult:
        """delete N — remove watchpoint/breakpoint number N."""
        number = parse_count(args[0]) if len(args) == 1 else None
        if number is None:
            raise CommandError("usage: delete N")
        for point in self.session.watchpoints + self.session.breakpoints:
            if point.number == number:
                self.session.delete(point)
                self._invalidate()
                return CommandResult("delete", {"number": number},
                                     f"Deleted {number}")
        raise CommandError(f"no watchpoint or breakpoint number {number}")

    def cmd_info(self, args: list[str]) -> CommandResult:
        """info watchpoints|breakpoints|stats|backend|checkpoints"""
        topic = args[0] if args else "watchpoints"
        if topic.startswith("watch"):
            points = [{"number": wp.number, "describe": wp.describe(),
                       "enabled": wp.enabled}
                      for wp in self.session.watchpoints]
            if not points:
                return CommandResult("info", {"topic": "watchpoints",
                                              "watchpoints": []},
                                     "No watchpoints.")
            text = "\n".join(
                f"{p['number']}: {p['describe']}"
                f"{'' if p['enabled'] else ' (disabled)'}" for p in points)
            return CommandResult("info", {"topic": "watchpoints",
                                          "watchpoints": points}, text)
        if topic.startswith("break"):
            points = [{"number": bp.number, "describe": bp.describe(),
                       "enabled": bp.enabled}
                      for bp in self.session.breakpoints]
            if not points:
                return CommandResult("info", {"topic": "breakpoints",
                                              "breakpoints": []},
                                     "No breakpoints.")
            text = "\n".join(f"{p['number']}: {p['describe']}"
                             for p in points)
            return CommandResult("info", {"topic": "breakpoints",
                                          "breakpoints": points}, text)
        if topic == "stats":
            if self._backend_obj is None:
                return CommandResult("info", {"topic": "stats",
                                              "stats": None},
                                     "The program is not being run.")
            stats = self._backend_obj.machine.stats
            return CommandResult("info", {"topic": "stats",
                                          "stats": stats.to_dict()},
                                 stats.summary())
        if topic == "backend":
            return CommandResult(
                "info",
                {"topic": "backend", "backend": self.session.backend_name,
                 "options": dict(self.session.backend_options)},
                f"backend: {self.session.backend_name} "
                f"options: {self.session.backend_options}")
        if topic.startswith("checkpoint"):
            if self._controller is None or not len(self._controller.store):
                return CommandResult("info", {"topic": "checkpoints",
                                              "checkpoints": []},
                                     "No checkpoints.")
            checkpoints = [
                {"index": i, "app_instructions": cp.app_instructions,
                 "stops_seen": cp.meta.get("stops_seen")}
                for i, cp in enumerate(self._controller.store)]
            text = "\n".join(
                f"{c['index']}: at {c['app_instructions']:,} instructions "
                f"(stops seen: "
                f"{'?' if c['stops_seen'] is None else c['stops_seen']})"
                for c in checkpoints)
            return CommandResult("info", {"topic": "checkpoints",
                                          "checkpoints": checkpoints}, text)
        raise CommandError(f"unknown info topic {topic!r}")

    def cmd_backend(self, args: list[str]) -> CommandResult:
        """backend NAME [key=value ...] — choose the implementation."""
        if not args:
            raise CommandError("usage: backend NAME [key=value ...]")
        options = {}
        for pair in args[1:]:
            if "=" not in pair:
                raise CommandError(f"bad option {pair!r}; use key=value")
            key, value = pair.split("=", 1)
            options[key] = parse_option_value(value)
        check_backend_options(args[0], options)
        self.session.backend_name = args[0]
        self.session.backend_options = options
        self._invalidate()
        return CommandResult("backend",
                             {"backend": args[0], "options": options},
                             f"backend set to {args[0]}")

    # -- execution ---------------------------------------------------------

    def _invalidate(self) -> None:
        self._backend_obj = None
        self._controller = None
        self._timeline = None
        self._instructions_run = 0

    def _ensure_backend(self):
        if self._backend_obj is None:
            self._controller = self.session.start_interactive(
                record_fingerprints=self.record_fingerprints)
            self._backend_obj = self._controller.backend
        return self._backend_obj

    def _require_history(self, verb: str) -> None:
        """History verbs need at least the genesis checkpoint.

        Issued before the program ever ran (or right after a plan edit
        invalidated the backend) there is nothing to rewind into — a
        structured ``no-checkpoint`` error, not ``command-failed``.
        """
        if self._controller is None or not len(self._controller.store):
            raise CommandError(
                f"{verb}: no checkpoints yet — run the program first.",
                code=NO_CHECKPOINT)

    def _timeline_query(self):
        """The lazily-built query engine over the current controller."""
        if self._timeline is None:
            from repro.timetravel import TimelineQuery

            self._timeline = TimelineQuery(self._controller)
        return self._timeline

    def cmd_run(self, args: list[str]) -> CommandResult:
        """run [N] — (re)start and run up to N application instructions."""
        budget = self._budget(args)  # a bad count keeps the active run
        self._invalidate()
        return CommandResult("run", **self._continue(budget))

    def cmd_continue(self, args: list[str]) -> CommandResult:
        """continue [N] — resume until the next hit, halt, or N instrs."""
        return CommandResult("continue", **self._continue(self._budget(args)))

    def _budget(self, args: list[str]) -> int:
        budget = parse_count(args[0]) if args else self.default_step
        if budget is None:
            raise CommandError("usage: continue [N]")
        return budget

    def _continue(self, budget: int) -> dict:
        backend = self._ensure_backend()
        machine = backend.machine
        target = machine.stats.app_instructions + budget
        result = self._controller.resume(max_app_instructions=target)
        self._instructions_run = machine.stats.app_instructions
        data = {
            "stopped_at_user": result.stopped_at_user,
            "halted": result.halted,
            "app_instructions": self._instructions_run,
            "pc": machine.pc,
        }
        if result.stopped_at_user:
            data["stop"] = self._stop_payload()
            data["watch_values"] = self._watch_values(backend)
            return {"data": data, "text": self._describe_stop(backend)}
        if result.halted:
            return {"data": data,
                    "text": (f"Program exited normally after "
                             f"{self._instructions_run:,} instructions.")}
        return {"data": data,
                "text": (f"Ran {budget:,} instructions without a hit "
                         f"(total {self._instructions_run:,}).")}

    def cmd_checkpoint(self, args: list[str]) -> CommandResult:
        """checkpoint — snapshot the current state for later rewinds."""
        self._ensure_backend()
        checkpoint = self._controller.checkpoint_now(note="user")
        held = len(self._controller.store)
        return CommandResult(
            "checkpoint",
            {"app_instructions": checkpoint.app_instructions, "held": held},
            f"Checkpoint at {checkpoint.app_instructions:,} "
            f"instructions ({held} held).")

    def cmd_rewind(self, args: list[str]) -> CommandResult:
        """rewind [N] (reverse-step) — step back N app instructions."""
        instructions = parse_count(args[0]) if args else 1
        if instructions is None:
            raise CommandError("usage: rewind [N]")
        backend = self._ensure_backend()
        self._controller.reverse_step(instructions)
        self._instructions_run = backend.machine.stats.app_instructions
        return CommandResult(
            "rewind",
            {"app_instructions": self._instructions_run,
             "pc": backend.machine.pc},
            f"Rewound to {self._instructions_run:,} instructions "
            f"(pc={backend.machine.pc:#x}).")

    def cmd_reverse_continue(self, args: list[str]) -> CommandResult:
        """reverse-continue (rc) — run back to the previous stop."""
        backend = self._ensure_backend()
        if not self._controller.stops:
            return CommandResult(
                "reverse-continue", {"stop": None, "relanded": False},
                "No stops recorded; nothing to reverse to.")
        record = self._controller.reverse_continue()
        self._instructions_run = backend.machine.stats.app_instructions
        if record is None:
            return CommandResult(
                "reverse-continue",
                {"stop": None, "relanded": False,
                 "app_instructions": self._instructions_run},
                f"No earlier stop; rewound to the start of history "
                f"({self._instructions_run:,} instructions).")
        data = {"stop": self._stop_payload(), "relanded": True,
                "app_instructions": self._instructions_run,
                "pc": backend.machine.pc,
                "watch_values": self._watch_values(backend)}
        return CommandResult("reverse-continue", data,
                             self._describe_stop(backend))

    # -- time-travel queries -------------------------------------------------

    def cmd_last_write(self, args: list[str]) -> CommandResult:
        """last-write ADDR|SYMBOL — find the newest store to an address."""
        if len(args) != 1:
            raise CommandError("usage: last-write ADDR|SYMBOL")
        result = self._timeline_query().last_write(args[0])
        return CommandResult("last-write", result.to_dict(),
                             result.describe())

    def cmd_first_write(self, args: list[str]) -> CommandResult:
        """first-write ADDR|SYMBOL — find the oldest store to an address."""
        if len(args) != 1:
            raise CommandError("usage: first-write ADDR|SYMBOL")
        result = self._timeline_query().first_write(args[0])
        return CommandResult("first-write", result.to_dict(),
                             result.describe())

    def cmd_seek_transition(self, args: list[str]) -> CommandResult:
        """seek-transition EXPR N — move to the Nth change of EXPR."""
        n = parse_count(args[-1]) if len(args) >= 2 else None
        if n is None:
            raise CommandError("usage: seek-transition EXPR N")
        expression = " ".join(args[:-1])
        result = self._timeline_query().seek_transition(expression, n)
        self._instructions_run = \
            self._backend_obj.machine.stats.app_instructions
        return CommandResult("seek-transition", result.to_dict(),
                             result.describe())

    def cmd_seek_until(self, args: list[str]) -> CommandResult:
        """seek-until EXPR CMP VALUE — move to where EXPR CMP VALUE
        first holds."""
        from repro.timetravel.engine import _COMPARATORS
        cmp_at = next((i for i, a in enumerate(args)
                       if a in _COMPARATORS), -1)
        if cmp_at < 1 or cmp_at != len(args) - 2:
            raise CommandError("usage: seek-until EXPR CMP VALUE "
                               f"(CMP: {', '.join(sorted(_COMPARATORS))})")
        expression = " ".join(args[:cmp_at])
        try:
            value = int(args[-1], 0)
        except ValueError:
            raise CommandError(f"bad value {args[-1]!r}; expected an "
                               f"integer") from None
        result = self._timeline_query().seek_until(expression, args[cmp_at],
                                                   value)
        self._instructions_run = \
            self._backend_obj.machine.stats.app_instructions
        return CommandResult("seek-until", result.to_dict(),
                             result.describe())

    def cmd_value_at(self, args: list[str]) -> CommandResult:
        """value-at EXPR ORDINAL — evaluate EXPR as of an instruction
        count."""
        ordinal = parse_count(args[-1]) if len(args) >= 2 else None
        if ordinal is None:
            raise CommandError("usage: value-at EXPR ORDINAL")
        expression = " ".join(args[:-1])
        result = self._timeline_query().value_at(expression, ordinal)
        return CommandResult("value-at", result.to_dict(),
                             result.describe())

    def _stop_payload(self) -> Optional[dict]:
        """The current stop as wire data (ordinal/pc/fingerprint)."""
        record = self._controller.current_stop
        if record is None:
            return None
        fingerprint = record.fingerprint
        if not fingerprint and self._backend_obj is not None:
            # Fingerprints cost one digest per stop; compute on demand
            # when the controller was not recording them.
            fingerprint = self._backend_obj.state_fingerprint()
        payload = {
            "ordinal": record.ordinal,
            "app_instructions": record.app_instructions,
            "pc": record.pc,
            "state_fingerprint": fingerprint,
        }
        # Multi-process sessions report which process the stop landed
        # in; absent on single-process sessions so recorded golden wire
        # transcripts predating the kernel are unchanged.
        if record.process:
            payload["process"] = record.process
        return payload

    def _watch_values(self, backend) -> list[dict]:
        values = []
        for wp in self.session.watchpoints:
            try:
                value = wp.expression.evaluate(backend.resolver,
                                               backend.machine.memory)
            except ReproError:
                continue
            rendered = (value if not isinstance(value, bytes)
                        else f"<{len(value)} bytes>")
            values.append({"number": wp.number, "describe": wp.describe(),
                           "value": rendered})
        return values

    def _describe_stop(self, backend) -> str:
        machine = backend.machine
        where = (f" in {machine.current_process}"
                 if machine._kernel is not None else "")
        lines = [f"Stopped after {self._instructions_run:,} instructions "
                 f"(pc={machine.pc:#x}){where}."]
        for entry in self._watch_values(backend):
            lines.append(f"  {entry['describe']}  value = {entry['value']}")
        return "\n".join(lines)

    # -- inspection --------------------------------------------------------

    def cmd_print(self, args: list[str]) -> CommandResult:
        """print EXPR — evaluate an expression in the debuggee."""
        if not args:
            raise CommandError("usage: print EXPR")
        backend = self._ensure_backend()
        expr = parse_expression(" ".join(args))
        value = expr.evaluate(backend.resolver, backend.machine.memory)
        if isinstance(value, bytes):
            return CommandResult("print", {"value": value.hex(" "),
                                           "bytes": True}, value.hex(" "))
        return CommandResult("print", {"value": value, "bytes": False},
                             str(value))

    def cmd_x(self, args: list[str]) -> CommandResult:
        """x ADDR|SYMBOL [QUADS] — dump memory."""
        usage = (f"usage: x ADDR|SYMBOL [QUADS] (QUADS: 0 to "
                 f"{MAX_DUMP_QUADS}, inside the 64-bit address space)")
        count = parse_count(args[1]) if len(args) > 1 else 4
        if not args or count is None or count > MAX_DUMP_QUADS:
            raise CommandError(usage)
        backend = self._ensure_backend()
        try:
            address = int(args[0], 0)
        except ValueError:
            address = backend.program.address_of(args[0])
        if not 0 <= address < ADDRESS_SPACE \
                or address + 8 * count > ADDRESS_SPACE:
            raise CommandError(usage)
        memory = backend.machine.memory
        words = []
        lines = []
        for i in range(count):
            addr = address + 8 * i
            value = memory.read_int(addr, 8)
            words.append({"address": addr, "value": value})
            lines.append(f"{addr:#010x}: {value:#018x}")
        return CommandResult("x", {"words": words}, "\n".join(lines))

    def cmd_overhead(self, args: list[str]) -> CommandResult:
        """overhead — debugged vs undebugged cost so far."""
        if self._backend_obj is None or not self._instructions_run:
            return CommandResult("overhead", {"ratio": None},
                                 "The program is not being run.")
        baseline = _undebugged_run(
            self.program, self.session.config,
            max_app_instructions=self._instructions_run)
        debugged_cycles = self._backend_obj.machine.stats.cycles or \
            self._backend_obj.machine.timing.total_cycles
        ratio = debugged_cycles / baseline.stats.cycles
        spurious = self._backend_obj.machine.stats.spurious_transitions
        return CommandResult(
            "overhead",
            {"ratio": ratio, "app_instructions": self._instructions_run,
             "spurious_transitions": spurious},
            f"{ratio:.3f}x baseline over "
            f"{self._instructions_run:,} instructions "
            f"({spurious} spurious transitions)")


def check_backend_options(backend: Any, options: dict) -> None:
    """Refuse a backend name or options that came from outside the
    process (the wire's ``open-session`` and ``experiment``, the
    ``backend`` verb) and cannot mean what they say: the backend must
    exist, and each option must be one it declares
    (:attr:`DebuggerBackend.OPTIONS`), with a value of the declared
    type and range.  Raises :class:`CommandError` (``bad-request``)
    before anything is built.
    """
    if not isinstance(backend, str) or backend not in BACKENDS:
        raise CommandError(f"unknown backend {backend!r}; choose from "
                           f"{', '.join(sorted(BACKENDS))}")
    declared = BACKENDS[backend].OPTIONS
    for key, value in options.items():
        if key not in declared:
            raise CommandError(f"backend {backend!r} has no option {key!r}")
        if not declared[key].accepts(value):
            raise CommandError(f"backend option {key!r} cannot be "
                               f"{value!r}")


def parse_option_value(text: str) -> Any:
    """Parse a ``key=value`` right-hand side (bool, int, or string)."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text, 0)
    except ValueError:
        return text
