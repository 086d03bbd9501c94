"""The declarative debugger verb registry.

One table describes every debugger verb — its name, aliases, help
line, instruction-budget class, and whether it needs recorded
execution history — and three consumers are generated from it so they
can never drift:

* :class:`repro.debugger.dispatcher.CommandDispatcher` dispatches
  through :data:`REGISTRY` (``spec.method`` names the handler);
* :func:`repro.debugger.repl.help_text` renders ``spec.usage`` and the
  shell's abbreviation map comes from ``spec.aliases``;
* :mod:`repro.server.protocol` derives its wire verb set
  (``COMMAND_VERBS``) and the budget-capped subset (``BUDGET_VERBS``)
  from the same table, so the server's ``unknown-verb`` replies and the
  golden wire transcripts track this file automatically.

The module is deliberately dependency-free (dataclasses only): the wire
protocol imports it without dragging in the machine stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["VerbSpec", "REGISTRY", "spec_for", "command_verbs",
           "budget_verbs", "alias_map", "help_lines", "parse_count"]


@dataclass(frozen=True)
class VerbSpec:
    """Everything the three consumers need to know about one verb."""

    #: Canonical verb name (what travels on the wire).
    name: str
    #: ``CommandDispatcher`` handler method name.
    method: str
    #: Full help line shown by the REPL's ``help``.
    usage: str
    #: Shell abbreviations that expand to this verb (never on the wire).
    aliases: tuple[str, ...] = ()
    #: Index of the argument that is an application-instruction budget
    #: (the server caps it per command), or None when unbudgeted.
    budget_arg: Optional[int] = None
    #: True when the verb needs recorded history (at least the genesis
    #: checkpoint): issuing it before the program ever ran is the
    #: structured ``no-checkpoint`` error, not ``command-failed``.
    needs_history: bool = False


REGISTRY: tuple[VerbSpec, ...] = (
    VerbSpec("watch", "cmd_watch",
             "watch EXPR [if COND] — set a (conditional) watchpoint.",
             aliases=("w",)),
    VerbSpec("break", "cmd_break",
             "break LOCATION [if COND] — set a (conditional) breakpoint.",
             aliases=("b",)),
    VerbSpec("delete", "cmd_delete",
             "delete N — remove watchpoint/breakpoint number N."),
    VerbSpec("info", "cmd_info",
             "info watchpoints|breakpoints|stats|backend|checkpoints"),
    VerbSpec("backend", "cmd_backend",
             "backend NAME [key=value ...] — choose the implementation."),
    VerbSpec("run", "cmd_run",
             "run [N] — (re)start and run up to N application instructions.",
             aliases=("r",), budget_arg=0),
    VerbSpec("continue", "cmd_continue",
             "continue [N] — resume until the next hit, halt, or N instrs.",
             aliases=("c",), budget_arg=0),
    VerbSpec("checkpoint", "cmd_checkpoint",
             "checkpoint — snapshot the current state for later rewinds."),
    VerbSpec("rewind", "cmd_rewind",
             "rewind [N] (reverse-step) — step back N app instructions.",
             aliases=("rs", "reverse-step"), budget_arg=0,
             needs_history=True),
    VerbSpec("reverse-continue", "cmd_reverse_continue",
             "reverse-continue (rc) — run back to the previous stop.",
             aliases=("rc",), needs_history=True),
    VerbSpec("last-write", "cmd_last_write",
             "last-write ADDR|SYMBOL — find the newest store to an address.",
             needs_history=True),
    VerbSpec("first-write", "cmd_first_write",
             "first-write ADDR|SYMBOL — find the oldest store to an address.",
             needs_history=True),
    VerbSpec("seek-transition", "cmd_seek_transition",
             "seek-transition EXPR N — move to the Nth change of EXPR.",
             needs_history=True),
    VerbSpec("seek-until", "cmd_seek_until",
             "seek-until EXPR CMP VALUE — move to where EXPR CMP VALUE "
             "first holds.",
             needs_history=True),
    VerbSpec("value-at", "cmd_value_at",
             "value-at EXPR ORDINAL — evaluate EXPR as of an instruction "
             "count.",
             budget_arg=1, needs_history=True),
    VerbSpec("print", "cmd_print",
             "print EXPR — evaluate an expression in the debuggee.",
             aliases=("p",)),
    VerbSpec("x", "cmd_x", "x ADDR|SYMBOL [QUADS] — dump memory."),
    VerbSpec("overhead", "cmd_overhead",
             "overhead — debugged vs undebugged cost so far."),
)

_BY_NAME: dict[str, VerbSpec] = {spec.name: spec for spec in REGISTRY}


def spec_for(verb: str) -> Optional[VerbSpec]:
    """The :class:`VerbSpec` for a canonical verb name (None if unknown)."""
    return _BY_NAME.get(verb)


def command_verbs() -> frozenset[str]:
    """Every canonical verb name (the wire protocol's command set)."""
    return frozenset(_BY_NAME)


def budget_verbs() -> frozenset[str]:
    """Verbs carrying an instruction budget the server must cap."""
    return frozenset(spec.name for spec in REGISTRY
                     if spec.budget_arg is not None)


def alias_map() -> dict[str, str]:
    """Abbreviation -> canonical verb (the shell's expansion table)."""
    return {alias: spec.name for spec in REGISTRY for alias in spec.aliases}


def help_lines() -> list[str]:
    """One usage line per verb, in registry order."""
    return [spec.usage for spec in REGISTRY]


def parse_count(text: str) -> Optional[int]:
    """A count argument (budget, ordinal, number) as a non-negative
    decimal integer, or None when it is not one.  ``str.isdecimal``
    rather than ``isdigit``: ``"²"`` is a digit that ``int`` refuses."""
    try:
        return int(text) if text.isdecimal() else None
    except ValueError:  # more digits than int() converts
        return None
