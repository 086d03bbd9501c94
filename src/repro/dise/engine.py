"""The DISE expansion engine.

The engine sits between fetch and execute: "the DISE engine takes an
unmodified application instruction stream produced by the fetch unit,
inspects and potentially rewrites each instruction, and feeds the
execution engine a new instruction stream enhanced with ACF
functionality" (paper Section 3).

The engine holds no production table of its own: the
:class:`~repro.dise.controller.DiseController` decides which
productions are *resident* (active, and aimed at the running process)
and hands that tuple to :meth:`DiseEngine.load` after every change, in
install order, which is also match priority.  The engine only matches
and expands, so nothing in it needs a snapshot.

:meth:`DiseEngine.expand` is called by the machine for every fetched
instruction that some resident pattern could match (the interpreter
loops pre-filter on the buckets below); it returns the instantiated
replacement sequence of the most specific matching production, or
``None`` when no pattern matches (the instruction passes through
unexpanded).  The buckets key patterns by PC, codeword, and opclass so
the common case (an instruction that cannot match anything) is a
couple of dict probes.

Expansion is a translation: for a fixed resident set the sequence
depends only on the trigger instruction and its PC, so the engine
builds it once per trigger PC and keeps it, as an immutable tuple (or
the no-match answer), with the trigger it was built from.  An entry
answers only while the instruction fetched at its PC is that same
object.  The memo belongs to the resident set: :meth:`load` empties it
when the set changes, and :meth:`flush` empties it on each text change.

The engine itself knows nothing about DISEPC control flow — branch,
call, and return semantics of replacement sequences are interpreted by
the machine (:mod:`repro.cpu.machine`), just as the hardware engine only
emits instructions while the pipeline executes them.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.dise.production import Production

Expansion = tuple[Instruction, ...]


class DiseEngine:
    """Pattern matching + parameterized replacement."""

    def __init__(self):
        # The resident productions and their buckets.  load() refills
        # these in place: the interpreter loops bind them once per run.
        self._productions: list[Production] = []
        self._by_pc: dict[int, list[Production]] = {}
        self._by_codeword: dict[int, list[Production]] = {}
        self._by_opclass: dict[OpClass, list[Production]] = {}
        self._generic: list[Production] = []
        self._resident: tuple[Production, ...] = ()
        # Trigger PC -> (trigger, sequence or None); see expand().
        self._memo: dict[int, tuple[Instruction, Optional[Expansion]]] = {}

    @property
    def productions(self) -> tuple[Production, ...]:
        """The resident productions, highest match priority first."""
        return self._resident

    def load(self, productions: Iterable[Production]) -> None:
        """Make ``productions`` (in match-priority order) the resident
        set.  Loading the set already resident changes nothing."""
        productions = tuple(productions)
        if productions == self._resident:
            return
        self._resident = productions
        self._productions[:] = productions
        self._by_pc.clear()
        self._by_codeword.clear()
        self._by_opclass.clear()
        self._generic.clear()
        for production in productions:
            pattern = production.pattern
            if pattern.pc is not None:
                bucket, key = self._by_pc, pattern.pc
            elif pattern.codeword is not None:
                bucket, key = self._by_codeword, pattern.codeword
            elif pattern.opclass is not None:
                bucket, key = self._by_opclass, pattern.opclass
            else:
                self._generic.append(production)
                continue
            bucket.setdefault(key, []).append(production)
        self._memo.clear()

    def flush(self) -> None:
        """Forget every built sequence (the text changed)."""
        self._memo.clear()

    # -- expansion -------------------------------------------------------------

    def expand(self, inst: Instruction, pc: int) -> Optional[Expansion]:
        """Return the replacement sequence for ``inst``, or None.

        Chooses the most specific matching pattern; ties break toward the
        earliest-installed production (deterministic, like table order in
        the hardware).  The answer for a trigger PC is built once and
        reused while the instruction at that PC is the same object.
        """
        memo = self._memo
        entry = memo.get(pc)
        if entry is None or entry[0] is not inst:
            entry = memo[pc] = (inst, self._build(inst, pc))
        return entry[1]

    def _build(self, inst: Instruction, pc: int) -> Optional[Expansion]:
        best, best_score = None, -1
        for production in self._resident:  # install order: ties keep the first
            score = production.pattern.specificity
            if score > best_score and production.pattern.matches(inst, pc):
                best, best_score = production, score
        return None if best is None else tuple(best.expand(inst, pc))
