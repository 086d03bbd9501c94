"""Debugger-transition classification shared by all backends.

When control reaches the debugger (via any mechanism — single-step
trap, page fault, hardware watchpoint register, explicit trap), the
debugger decides whether the user must be invoked.  The outcome
classifies the transition (paper Section 2):

* no watched datum was actually written          -> spurious *address*
* written, but no watched expression changed     -> spurious *value*
* changed, but the condition evaluates false     -> spurious *predicate*
* otherwise                                      -> a *user* transition

:class:`WatchpointMonitor` implements the debugger-side bookkeeping all
of the non-DISE backends need: it remembers each watchpoint's previous
value (in debugger memory, i.e. ordinary Python state), re-evaluates on
demand, and produces the classification.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.cpu.stats import (SPURIOUS_ADDRESS, SPURIOUS_PREDICATE,
                             SPURIOUS_VALUE, USER, TransitionKind)
from repro.debugger.expressions import SymbolResolver
from repro.debugger.watchpoint import Watchpoint


def classify(address_hit: bool, value_changed: bool,
             predicate_true: Optional[bool]) -> TransitionKind:
    """Map the three tests onto a transition kind.

    ``predicate_true`` is None for unconditional watchpoints.
    """
    if not address_hit:
        return SPURIOUS_ADDRESS
    if not value_changed:
        return SPURIOUS_VALUE
    if predicate_true is False:
        return SPURIOUS_PREDICATE
    return USER


class WatchpointMonitor:
    """Debugger-side expression state for a set of watchpoints."""

    def __init__(self, watchpoints: Iterable[Watchpoint],
                 resolver: SymbolResolver, memory):
        self.watchpoints = list(watchpoints)
        self.resolver = resolver
        self.memory = memory
        self._previous: dict[int, object] = {}
        self.capture_all()

    def capture_all(self) -> None:
        """Snapshot every watched expression's current value."""
        for wp in self.watchpoints:
            self._previous[id(wp)] = wp.expression.evaluate(
                self.resolver, self.memory)

    def previous_value(self, wp: Watchpoint):
        """The last value captured for ``wp``."""
        return self._previous[id(wp)]

    def snapshot(self) -> dict[int, object]:
        """Capture the previous-value mirror (keys are live watchpoint
        identities, so blobs are same-process only)."""
        return dict(self._previous)

    def restore(self, blob: dict[int, object]) -> None:
        """Reset the mirror to a previous :meth:`snapshot`."""
        self._previous = dict(blob)

    def check(self, wp: Watchpoint) -> tuple[bool, Optional[bool]]:
        """Re-evaluate one watchpoint.

        Returns ``(value_changed, predicate_true)`` and refreshes the
        stored previous value when it changed.  ``predicate_true`` is
        None for unconditional watchpoints (and is only evaluated when
        the value changed — exactly when a real debugger would bother).
        """
        current = wp.expression.evaluate(self.resolver, self.memory)
        changed = current != self._previous[id(wp)]
        predicate: Optional[bool] = None
        if changed:
            self._previous[id(wp)] = current
            if wp.condition is not None:
                predicate = wp.condition.evaluate(self.resolver, self.memory)
        return changed, predicate

    def check_all(self) -> TransitionKind:
        """Re-evaluate every watchpoint and classify the transition.

        Used by backends whose trap granularity is coarser than a single
        watchpoint (single-stepping checks everything every statement).
        The address test is implicit: reaching here at all means the
        mechanism fired; if nothing changed, the transition was spurious
        on the address (single-step) or value (store-based) axis — the
        caller picks which via ``classify``.
        """
        any_changed = False
        any_predicate_true = False
        any_unconditional_change = False
        for wp in self.watchpoints:
            if not wp.enabled:
                continue
            changed, predicate = self.check(wp)
            if changed:
                any_changed = True
                if predicate is None:
                    any_unconditional_change = True
                elif predicate:
                    any_predicate_true = True
        if not any_changed:
            return SPURIOUS_ADDRESS
        if any_unconditional_change or any_predicate_true:
            return USER
        return SPURIOUS_PREDICATE
