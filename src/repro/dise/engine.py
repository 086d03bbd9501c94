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
the no-match answer), with the trigger it was built from and, when the
engine was given a ``translate`` function, the host code of the
sequence's DISE-inserted tail (see
:func:`repro.cpu.compiled.translate_tail`).  An entry answers only
while the instruction fetched at its PC is that same object.  The memo
belongs to the resident set: :meth:`load` empties it when the set
changes, and :meth:`flush` empties it on each text change, dropping
sequences and tails together.

The engine itself knows nothing about DISEPC control flow — branch,
call, and return semantics of replacement sequences are interpreted by
the machine (:mod:`repro.cpu.machine`), just as the hardware engine only
emits instructions while the pipeline executes them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.dise.production import Production

Expansion = tuple[Instruction, ...]
#: Runs a sequence's tail on the machine it is given (see expand()).
Tail = Callable[[object], None]


class DiseEngine:
    """Pattern matching + parameterized replacement.

    ``translate(production, sequence)`` returns the translated tail of
    a freshly built sequence, or None; without it no tail is built.
    """

    def __init__(self, translate: Optional[
            Callable[[Production, Expansion], Optional[Tail]]] = None):
        self._translate = translate
        # The resident productions and their buckets.  load() refills
        # these in place: the interpreter loops bind them once per run.
        self._productions: list[Production] = []
        self._by_pc: dict[int, list[Production]] = {}
        self._by_codeword: dict[int, list[Production]] = {}
        self._by_opclass: dict[OpClass, list[Production]] = {}
        self._generic: list[Production] = []
        self._resident: tuple[Production, ...] = ()
        # Trigger PC -> (trigger, sequence or None, tail or None); see
        # expand().
        self._memo: dict[int, tuple[Instruction, Optional[Expansion],
                                    Optional[Tail]]] = {}

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
        reused while the instruction at that PC is the same object; the
        memo entry also holds the sequence's translated tail, which the
        machine runs once the trigger has committed.
        """
        memo = self._memo
        entry = memo.get(pc)
        if entry is None or entry[0] is not inst:
            entry = memo[pc] = self._build(inst, pc)
        return entry[1]

    def _build(self, inst: Instruction, pc: int):
        best, best_score = None, -1
        for production in self._resident:  # install order: ties keep the first
            score = production.pattern.specificity
            if score > best_score and production.pattern.matches(inst, pc):
                best, best_score = production, score
        if best is None:
            return (inst, None, None)
        sequence = tuple(best.expand(inst, pc))
        translate = self._translate
        return (inst, sequence,
                None if translate is None else translate(best, sequence))
