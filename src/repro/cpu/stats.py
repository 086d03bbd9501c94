"""Run statistics.

:class:`SimStats` aggregates everything a run produces: instruction
counts (split by origin: application, DISE-inserted, debugger-generated
function), memory events, pipeline events, and — centrally for this
paper — *debugger transitions* split by kind.

The paper's taxonomy (Section 2): a debugger transition is *spurious*
when it is not masked by a user transition.  Spurious **address**
transitions fire although no watched datum was written; spurious
**value** transitions fire when a watched variable is written but the
watched expression's value is unchanged (e.g. silent stores); spurious
**predicate** transitions fire when a conditional's predicate is false.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum, unique


@unique
class TransitionKind(Enum):
    """Classification of a debugger transition."""

    USER = "user"  # masked by user interaction: modeled as free
    SPURIOUS_ADDRESS = "spurious_address"
    SPURIOUS_VALUE = "spurious_value"
    SPURIOUS_PREDICATE = "spurious_predicate"
    NONE = "none"  # trap handled without a debugger transition

    # Members are singletons compared by identity, so they hash by
    # identity too: every trap counts itself in ``SimStats.transitions``,
    # and ``Enum.__hash__`` is a Python-level function in 3.11.
    __hash__ = object.__hash__


# The members as module globals, for code that runs on every trap
# (DESIGN.md §5: a global costs ~5 ns, ``TransitionKind.USER`` ~75 ns).
USER = TransitionKind.USER
SPURIOUS_ADDRESS = TransitionKind.SPURIOUS_ADDRESS
SPURIOUS_VALUE = TransitionKind.SPURIOUS_VALUE
SPURIOUS_PREDICATE = TransitionKind.SPURIOUS_PREDICATE
NONE = TransitionKind.NONE


@dataclass
class SimStats:
    """Counters for one simulation run."""

    # Instructions committed, by origin.
    app_instructions: int = 0
    dise_instructions: int = 0  # inserted by replacement sequences
    function_instructions: int = 0  # inside DISE-called functions
    nops_elided: int = 0

    # Memory events.
    loads: int = 0
    stores: int = 0

    # Control events.
    branches: int = 0
    taken_branches: int = 0
    mispredictions: int = 0

    # DISE events.
    dise_expansions: int = 0
    dise_branch_flushes: int = 0
    dise_call_flushes: int = 0

    # Debugger interaction.
    traps: int = 0
    page_fault_traps: int = 0
    transitions: dict[TransitionKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in TransitionKind})

    # Timing summary (filled in from the timing model at run end).
    cycles: int = 0

    @property
    def total_instructions(self) -> int:
        return (self.app_instructions + self.dise_instructions +
                self.function_instructions)

    @property
    def ipc(self) -> float:
        return self.total_instructions / self.cycles if self.cycles else 0.0

    @property
    def store_density(self) -> float:
        """Stores as a fraction of committed application instructions."""
        if not self.app_instructions:
            return 0.0
        return self.stores / self.app_instructions

    @property
    def spurious_transitions(self) -> int:
        t = self.transitions
        return (t[TransitionKind.SPURIOUS_ADDRESS]
                + t[TransitionKind.SPURIOUS_VALUE]
                + t[TransitionKind.SPURIOUS_PREDICATE])

    @property
    def user_transitions(self) -> int:
        return self.transitions[TransitionKind.USER]

    def record_transition(self, kind: TransitionKind) -> None:
        """Count one debugger transition of the given kind."""
        self.transitions[kind] += 1

    def to_dict(self) -> dict:
        """JSON-ready rendering (transition keys become their values)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "transitions"}
        data["transitions"] = {kind.value: count
                               for kind, count in self.transitions.items()}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        """Rebuild stats from :meth:`to_dict` output.

        Unknown keys are ignored so that records written by a newer
        code version load (the result cache rejects those earlier via
        its code-version check; this guard is for hand-edited files).
        """
        known = {f.name for f in fields(cls)}
        stats = cls(**{key: value for key, value in data.items()
                       if key in known and key != "transitions"})
        for name, count in (data.get("transitions") or {}).items():
            stats.transitions[TransitionKind(name)] = int(count)
        return stats

    def summary(self) -> str:
        """Multi-line text rendering of the run's counters."""
        lines = [
            f"cycles               {self.cycles:>14,}",
            f"instructions (app)   {self.app_instructions:>14,}",
            f"instructions (DISE)  {self.dise_instructions:>14,}",
            f"instructions (func)  {self.function_instructions:>14,}",
            f"IPC                  {self.ipc:>14.3f}",
            f"loads / stores       {self.loads:,} / {self.stores:,}",
            f"branches (mispred)   {self.branches:,} ({self.mispredictions:,})",
            f"DISE expansions      {self.dise_expansions:,}",
            f"traps                {self.traps:,}",
        ]
        for kind in TransitionKind:
            count = self.transitions[kind]
            if count:
                lines.append(f"transitions[{kind.value}] {count:,}")
        return "\n".join(lines)
