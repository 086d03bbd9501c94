"""Time-travel queries over the checkpoint store.

:class:`TimelineQuery` answers *omniscient* debugging questions —
"when was this address last written?", "find the Nth transition of
this expression" — without an always-on trace.  The trick (Transition
Watchpoints, and the LLDB live-reverse-debugging work) is the same one
``reverse_continue`` uses: recorded history is a checkpoint store plus
a deterministic machine, so any past interval can be *re-executed on
demand*.  A query

1. splits recorded history into windows bounded by checkpoints,
2. re-executes only the windows that can contain the answer (newest
   first for ``last-write``, oldest first for ``first-write``), with a
   recorder-private shadow store log attached
   (:class:`~repro.timetravel.store_log.StoreLogRecorder` — the fuzz
   oracle's shadow-recorder trick), and
3. re-lands on the answering event bit-identically — restore the
   nearest earlier checkpoint, ``run(event.app_instructions)``, and
   fingerprint — exactly the way ``reverse_continue`` re-lands stops.

Queries are side-effect-free unless documented otherwise: the engine
snapshots the live backend, detaches the controller's checkpoint store
for the duration (window replays must not feed the history that
defines them), and restores everything on exit.  The two seeks,
:meth:`TimelineQuery.seek_transition` and
:meth:`TimelineQuery.seek_until`, move the session — that is their
purpose — and they do so through
:meth:`repro.replay.ReverseController.seek`, so stops passed through
are re-recorded just as ``reverse_step`` would.

A window replay that halts or stops before reaching its recorded end
raises :class:`~repro.replay.ReplayDivergenceError`: recorded history
no longer reproduces, and no timeline answer derived from it would be
trustworthy.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

from repro.debugger.expressions import QUAD, parse_expression
from repro.errors import ReproError
from repro.replay.reverse import ReplayDivergenceError, ReverseController
from repro.timetravel.store_log import (PendingStoreReader, StoreEvent,
                                        StoreLogRecorder)

__all__ = ["TimelineQuery", "QueryResult", "TransitionEvent",
           "TimelineError"]


class TimelineError(ReproError):
    """A query that cannot be answered (bad target, out of range, ...)."""


@dataclass(frozen=True)
class TransitionEvent:
    """One value change of a watched expression during replay."""

    app_instructions: int
    pc: int
    old_value: object
    new_value: object


@dataclass
class QueryResult:
    """One timeline query's answer (JSON-able, wire-ready)."""

    query: str
    target: str
    found: bool
    #: Application-instruction ordinal of the answer (None if not found).
    app_instructions: Optional[int] = None
    #: PC of the answering instruction (from the recorded event — the
    #: re-landed machine has already advanced past it).
    pc: Optional[int] = None
    #: Landing ordinal; equals ``app_instructions`` (kept explicit so
    #: the re-land contract mirrors ``reverse-continue`` stop records).
    ordinal: Optional[int] = None
    #: For seek-transition: which transition (1-based) was landed on.
    transition: Optional[int] = None
    address: Optional[int] = None
    size: Optional[int] = None
    value: object = None
    old_value: object = None
    #: Architectural digest of the re-landed state.
    state_fingerprint: str = ""
    windows_scanned: int = 0
    instructions_replayed: int = 0
    #: Always False: every answer is re-derived by replay.  The key
    #: stays because every history-verb reply on the wire carries it.
    from_cache: bool = False

    def to_dict(self) -> dict:
        """A JSON-serializable rendering (the wire format)."""
        return asdict(self)

    def describe(self) -> str:
        """The REPL's one-line rendering of the answer."""
        if self.query in ("last-write", "first-write"):
            which = "Last" if self.query == "last-write" else "First"
            if not self.found:
                return f"No recorded write to {self.target}."
            return (f"{which} write to {self.target} "
                    f"[{self.address:#x}]: {self.old_value} -> {self.value} "
                    f"at instruction {self.app_instructions:,} "
                    f"(pc={self.pc:#x}).")
        if self.query == "seek-transition":
            return (f"Transition #{self.transition} of {self.target}: "
                    f"{self.old_value} -> {self.value} at "
                    f"instruction {self.app_instructions:,} "
                    f"(pc={self.pc:#x}).")
        if self.query == "value-at":
            return (f"{self.target} = {self.value} at instruction "
                    f"{self.app_instructions:,}.")
        if self.query == "seek-until":
            return (f"Condition {self.target} first holds at instruction "
                    f"{self.app_instructions:,} "
                    f"(value = {self.value}, pc={self.pc:#x}).")
        return f"{self.query}: {self.to_dict()}"


class TimelineQuery:
    """First-class query API over one session's recorded history.

    Bind it to a running :class:`~repro.replay.ReverseController`
    (``repro.api.timeline(...)`` builds the whole stack); every method
    returns a :class:`QueryResult`.  Window store logs and transition
    scans are memoized per (start, end) extent — deterministic replay
    makes them immutable for the controller's lifetime.  A query keeps
    only the entries ending at a checkpoint or at its own position, so
    the memo holds the windows of the recorded history, not one tail
    per position the session queried from.
    """

    def __init__(self, controller: ReverseController):
        self.controller = controller
        self.backend = controller.backend
        self.machine = controller.machine
        self._window_events: dict[tuple[int, int], list[StoreEvent]] = {}
        self._window_transitions: dict[tuple[int, int, str],
                                       list[TransitionEvent]] = {}
        self._replayed = 0  # instructions re-executed (bench accounting)

    # -- queries -------------------------------------------------------------

    def last_write(self, target: str) -> QueryResult:
        """The newest store touching ``target`` (symbol or address).

        Scans windows newest-first and stops at the first window with a
        match, so on long traces only a suffix of history is replayed.
        Side-effect-free: the session is exactly where it was.
        """
        return self._write_query("last-write", target, newest_first=True)

    def first_write(self, target: str) -> QueryResult:
        """The oldest store touching ``target`` in recorded history."""
        return self._write_query("first-write", target, newest_first=False)

    def last_write_linear(self, target: str) -> QueryResult:
        """Ground-truth/naive ``last-write``: one unmemoized replay of
        the *entire* recorded trace from genesis, then a second full
        replay from genesis to land.  This is the rerun-from-genesis
        baseline the bisected path is benchmarked (and parity-tested)
        against; it never reads or feeds the window memos.
        """
        address, size = self._resolve_target(target)
        replayed_before = self._replayed
        with self._query_context() as end:
            genesis = self.controller.store.oldest
            events = self._scan(genesis, end, memoize=False)
            matches = [e for e in events if e.overlaps(address, size)]
            event = matches[-1] if matches else None
            fingerprint = ""
            if event is not None:
                self._replay(genesis, event.app_instructions)
                fingerprint = self.backend.state_fingerprint()
        return self._write_result("last-write", target, address, size,
                                  event, fingerprint, windows_scanned=1,
                                  replayed=self._replayed - replayed_before)

    def seek_transition(self, expression: str, n: int) -> QueryResult:
        """Move the session to just after the Nth (1-based) transition
        of a static scalar ``expression``.

        After the bisected scan finds the transition, the controller
        seeks to its ordinal (re-recording stops passed through, exactly
        like ``rewind``).  Raises :class:`TimelineError` when fewer than
        N transitions exist.
        """
        expr = self._transition_expression(expression)
        if n < 1:
            raise TimelineError("transition ordinal is 1-based")
        replayed_before = self._replayed
        seen = 0
        with self._query_context() as end:
            for event, windows_scanned in self._each_transition(
                    expression, expr, end):
                seen += 1
                if seen == n:
                    break
            else:
                raise TimelineError(
                    f"only {seen} transition(s) of {expression!r} in "
                    f"recorded history")
        return self._land(
            "seek-transition", expression, event, pc=event.pc, transition=n,
            windows_scanned=windows_scanned,
            instructions_replayed=self._replayed - replayed_before)

    def seek_until(self, expression: str, cmp: str,
                   value: int) -> QueryResult:
        """Move the session to the first point in recorded history
        where ``expression CMP value`` holds.

        A predicate-directed seek over the same oldest-first scan as
        :meth:`seek_transition`: the scan stops at the first transition
        whose new value satisfies the predicate, so on long traces only
        a prefix of history is replayed.  If the predicate already
        holds at the start of recorded history the session seeks there
        (``windows_scanned`` 0, no old value); if it never holds,
        :class:`TimelineError`.
        """
        expr = self._transition_expression(expression)
        predicate = _COMPARATORS.get(cmp)
        if predicate is None:
            raise TimelineError(
                f"unknown comparator {cmp!r}; expected one of "
                f"{', '.join(sorted(_COMPARATORS))}")
        target = f"{expression} {cmp} {value}"
        replayed_before = self._replayed
        with self._query_context() as end:
            genesis = self.controller.store.oldest
            self._replay(genesis, genesis.app_instructions)
            start = TransitionEvent(
                genesis.app_instructions, self.machine.pc, None,
                expr.evaluate(self.backend.resolver, self.machine.memory))
            if predicate(start.new_value, value):
                hit, windows_scanned = start, 0
            else:
                hit, windows_scanned = next(
                    ((event, windows) for event, windows
                     in self._each_transition(expression, expr, end)
                     if predicate(event.new_value, value)), (None, 0))
            if hit is None:
                raise TimelineError(
                    f"{target} never holds in recorded history")
        return self._land(
            "seek-until", target, hit, windows_scanned=windows_scanned,
            instructions_replayed=self._replayed - replayed_before)

    def transitions(self, expression: str) -> list[TransitionEvent]:
        """Every transition of ``expression`` in recorded history
        (bisected scan; side-effect-free)."""
        expr = self._transition_expression(expression)
        with self._query_context() as end:
            return [event for event, _ in
                    self._each_transition(expression, expr, end)]

    def transitions_linear(self, expression: str) -> list[TransitionEvent]:
        """Ground-truth transition list: one unmemoized replay of the
        whole trace from genesis (parity reference for tests)."""
        expr = self._transition_expression(expression)
        with self._query_context() as end:
            return self._scan_transitions(self.controller.store.oldest,
                                          end, expr)

    def value_at(self, expression: str, ordinal: int) -> QueryResult:
        """Evaluate ``expression`` as of application-instruction
        ``ordinal`` (bisect to the nearest checkpoint, replay the
        remainder).  Dynamic (indirect) expressions are allowed — the
        machine is fully materialized at the ordinal.  Side-effect-free.
        """
        try:
            expr = parse_expression(expression)
        except ReproError as exc:
            raise TimelineError(str(exc)) from exc
        genesis_app = self.controller.store.oldest.app_instructions
        now = self.machine.stats.app_instructions
        if not genesis_app <= ordinal <= now:
            raise TimelineError(
                f"ordinal {ordinal:,} is outside recorded history "
                f"[{genesis_app:,}, {now:,}]")
        replayed_before = self._replayed
        with self._query_context():
            checkpoint = self.controller.store.nearest_at_or_before(ordinal)
            if checkpoint is None:
                checkpoint = self.controller.store.oldest
            self._replay(checkpoint, ordinal)
            value = expr.evaluate(self.backend.resolver, self.machine.memory)
            fingerprint = self.backend.state_fingerprint()
            pc = self.machine.pc
        return QueryResult(
            "value-at", expression, True, app_instructions=ordinal, pc=pc,
            ordinal=ordinal, value=_jsonable(value),
            state_fingerprint=fingerprint, windows_scanned=1,
            instructions_replayed=self._replayed - replayed_before)

    # -- write-query machinery ------------------------------------------------

    def _write_query(self, query: str, target: str, *,
                     newest_first: bool) -> QueryResult:
        address, size = self._resolve_target(target)
        replayed_before = self._replayed
        event = None
        fingerprint = ""
        windows_scanned = 0
        with self._query_context() as end:
            windows = self._windows(end)
            if newest_first:
                windows.reverse()
            for checkpoint, upper in windows:
                events = self._scan(checkpoint, upper)
                windows_scanned += 1
                matches = [e for e in events if e.overlaps(address, size)]
                if matches:
                    event = matches[-1] if newest_first else matches[0]
                    break
            if event is not None:
                landing = self.controller.store.nearest_at_or_before(
                    event.app_instructions - 1)
                if landing is None:
                    landing = self.controller.store.oldest
                self._replay(landing, event.app_instructions)
                fingerprint = self.backend.state_fingerprint()
        return self._write_result(
            query, target, address, size, event, fingerprint,
            windows_scanned=windows_scanned,
            replayed=self._replayed - replayed_before)

    def _write_result(self, query: str, target: str, address: int,
                      size: int, event: Optional[StoreEvent],
                      fingerprint: str, *, windows_scanned: int,
                      replayed: int) -> QueryResult:
        if event is None:
            return QueryResult(query, target, False, address=address,
                               size=size, windows_scanned=windows_scanned,
                               instructions_replayed=replayed)
        return QueryResult(
            query, target, True, app_instructions=event.app_instructions,
            pc=event.pc, ordinal=event.app_instructions,
            address=event.address, size=event.size, value=event.value,
            old_value=event.old_value, state_fingerprint=fingerprint,
            windows_scanned=windows_scanned, instructions_replayed=replayed)

    # -- seek machinery -------------------------------------------------------

    def _each_transition(self, expression: str, expr, end: int):
        """Yield ``(transition, windows scanned so far)`` for every
        transition of ``expr`` in recorded history, oldest first,
        replaying (or reading from the memo) one window at a time."""
        for scanned, (checkpoint, upper) in enumerate(self._windows(end), 1):
            for event in self._transitions_in(checkpoint, upper,
                                              expression, expr):
                yield event, scanned

    def _land(self, query: str, target: str, event: TransitionEvent, *,
              pc: Optional[int] = None, **fields) -> QueryResult:
        """Relocate the session onto ``event`` and report the landing.

        The answering store has committed at ``event.app_instructions``
        (see store_log's timing notes).  ``pc`` defaults to the landed
        machine's PC.
        """
        ordinal = event.app_instructions
        self.controller.seek(ordinal)
        return QueryResult(
            query, target, True, app_instructions=ordinal,
            pc=self.machine.pc if pc is None else pc, ordinal=ordinal,
            value=_jsonable(event.new_value),
            old_value=_jsonable(event.old_value),
            state_fingerprint=self.backend.state_fingerprint(), **fields)

    # -- bounded re-execution ---------------------------------------------

    @contextmanager
    def _query_context(self):
        """Snapshot the live session; replay freely; restore exactly.

        The machine's checkpoint store is detached for the duration so
        window replays can never feed (or violate the monotonicity of)
        the history that defines them.
        """
        machine = self.machine
        end = machine.stats.app_instructions
        self._drop_stale_tails(end)
        saved = self.backend.snapshot()
        saved_store = machine.checkpoint_store
        saved_observer = machine.store_observer
        try:
            machine.checkpoint_store = None
            yield end
        finally:
            machine.store_observer = saved_observer
            self.backend.restore(saved)
            machine.checkpoint_store = saved_store

    def _drop_stale_tails(self, end: int) -> None:
        """Forget memoized windows that end where no query will look.

        A window ends at the next checkpoint or, for the newest one, at
        the live position a query entered at.  An entry ending anywhere
        else is the tail of a position the session has left; a later
        query reads it only if the session returns there, so keeping it
        would grow the memo with every move.
        """
        ends = {checkpoint.app_instructions
                for checkpoint in self.controller.store}
        ends.add(end)
        for memo in (self._window_events, self._window_transitions):
            for key in [key for key in memo if key[1] not in ends]:
                del memo[key]

    def _windows(self, end: int) -> list[tuple[object, int]]:
        """(checkpoint, end_app) extents covering recorded history up to
        ``end``, the live position when the query began."""
        checkpoints = list(self.controller.store)
        windows = []
        for i, checkpoint in enumerate(checkpoints):
            upper = (checkpoints[i + 1].app_instructions
                     if i + 1 < len(checkpoints) else end)
            if upper > checkpoint.app_instructions:
                windows.append((checkpoint, upper))
        return windows

    def _replay(self, checkpoint, target: int, *, observer=None,
                after_restore=None) -> None:
        """Restore ``checkpoint`` and run (non-stopping) to ``target``.

        Must be called inside :meth:`_query_context`.  ``stop_on_user``
        is cleared so the replay runs straight through user transitions
        (stop classification still happens; fingerprints exclude stats,
        so straight-through replay is bit-comparable to the original
        stop-and-resume execution).
        """
        machine = self.machine
        self.backend.restore(checkpoint.blob)
        machine.checkpoint_store = None
        machine.stop_on_user = False
        if after_restore is not None:
            after_restore()
        machine.store_observer = observer
        try:
            if target > machine.stats.app_instructions:
                self.backend.run(target)
        finally:
            machine.store_observer = None
        self._replayed += (machine.stats.app_instructions
                           - checkpoint.app_instructions)
        if machine.stats.app_instructions < target:
            state = "halted" if machine.halted else "stopped"
            raise ReplayDivergenceError(
                f"window replay from {checkpoint.app_instructions:,} "
                f"{state} at {machine.stats.app_instructions:,} before "
                f"reaching {target:,} — the recorded history no longer "
                f"reproduces (non-deterministic handler?)")

    def _scan(self, checkpoint, end: int, *,
              memoize: bool = True) -> list[StoreEvent]:
        """The window's shadow store log (memoized per extent)."""
        key = (checkpoint.app_instructions, end)
        if memoize:
            cached = self._window_events.get(key)
            if cached is not None:
                return cached
        recorder = StoreLogRecorder(self.machine)
        self._replay(checkpoint, end, observer=recorder)
        if memoize:
            self._window_events[key] = recorder.events
        return recorder.events

    def _transitions_in(self, checkpoint, end: int, expression: str,
                        expr) -> list[TransitionEvent]:
        key = (checkpoint.app_instructions, end, expression)
        cached = self._window_transitions.get(key)
        if cached is not None:
            return cached
        transitions = self._scan_transitions(checkpoint, end, expr)
        self._window_transitions[key] = transitions
        return transitions

    def _scan_transitions(self, checkpoint, end: int,
                          expr) -> list[TransitionEvent]:
        """Replay one window, recording changes of ``expr``'s value.

        The store observer fires before memory commits, so the
        post-store value is computed through a
        :class:`PendingStoreReader` overlay — evaluating the expression
        "as of" the store without touching machine state.
        """
        machine = self.machine
        resolver = self.backend.resolver
        extents = expr.addresses(resolver, None)
        transitions: list[TransitionEvent] = []
        current: list[object] = [None]

        def baseline():
            current[0] = expr.evaluate(resolver, machine.memory)

        def observer(address, size, value, old_value):
            if not any(address < a + s and a < address + size
                       for a, s in extents):
                return
            new_value = expr.evaluate(resolver, PendingStoreReader(
                machine.memory, address, size, value))
            if new_value != current[0]:
                transitions.append(TransitionEvent(
                    machine.stats.app_instructions, machine.pc,
                    current[0], new_value))
                current[0] = new_value

        self._replay(checkpoint, end, observer=observer,
                     after_restore=baseline)
        return transitions

    # -- target/expression resolution --------------------------------------

    def _resolve_target(self, target: str) -> tuple[int, int]:
        """A write-query target: a symbol name or a literal address."""
        try:
            return int(target, 0), QUAD
        except ValueError:
            pass
        try:
            address, size = self.backend.resolver.resolve(target)
        except ReproError as exc:
            raise TimelineError(str(exc)) from exc
        return address, min(size, QUAD) if size else QUAD

    def _transition_expression(self, expression: str):
        try:
            expr = parse_expression(expression)
        except ReproError as exc:
            raise TimelineError(str(exc)) from exc
        if not expr.is_static:
            raise TimelineError(
                f"{expression!r} is indirect; transition queries need a "
                f"statically-determinable address set (the paper's "
                f"virtual-memory/hardware restriction)")
        if expr.is_range:
            raise TimelineError(
                f"{expression!r} is a byte range; transition queries "
                f"watch scalar expressions")
        return expr


#: Comparators accepted by :meth:`TimelineQuery.seek_until`.
_COMPARATORS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _jsonable(value):
    """Render an expression value wire-safe."""
    if isinstance(value, bytes):
        return value.hex(" ")
    return value
