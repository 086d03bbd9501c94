"""The DISE expansion engine.

The engine sits between fetch and execute: "the DISE engine takes an
unmodified application instruction stream produced by the fetch unit,
inspects and potentially rewrites each instruction, and feeds the
execution engine a new instruction stream enhanced with ACF
functionality" (paper Section 3).

:meth:`DiseEngine.expand` is called by the machine for every fetched
instruction that some installed pattern could match (the interpreter
loops pre-filter on the buckets below); it returns the instantiated
replacement sequence of the most specific matching production, or
``None`` when no pattern matches (the instruction passes through
unexpanded).  Matching is accelerated by bucketing patterns by PC,
codeword, and opclass so the common case (an instruction that cannot
match anything) is a couple of dict probes.

Expansion is a translation: for a fixed production set the sequence
depends only on the trigger instruction and its PC, so the engine
builds it once per trigger PC and keeps it, as an immutable tuple (or
the no-match answer), with the trigger it was built from.  An entry
answers only while the instruction fetched at its PC is that same
object; any production change and any text change (the machine calls
:meth:`DiseEngine.flush`) drops every entry.

The engine itself knows nothing about DISEPC control flow — branch,
call, and return semantics of replacement sequences are interpreted by
the machine (:mod:`repro.cpu.machine`), just as the hardware engine only
emits instructions while the pipeline executes them.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, OpClass
from repro.dise.production import Production

Expansion = tuple[Instruction, ...]


class DiseEngine:
    """Pattern matching + parameterized replacement."""

    def __init__(self):
        self._productions: list[Production] = []
        self._by_pc: dict[int, list[Production]] = {}
        self._by_codeword: dict[int, list[Production]] = {}
        self._by_opclass: dict[OpClass, list[Production]] = {}
        self._generic: list[Production] = []
        # Install order per production (id -> sequence number): the
        # documented tie-break.  Preserved across deactivate/activate
        # round-trips by passing the removed production's order back to
        # :meth:`add`.
        self._order: dict[int, int] = {}
        self._next_order = 0
        # Trigger PC -> (trigger, its sequence or None): see expand().
        self._memo: dict[int, tuple[Instruction, Optional[Expansion]]] = {}
        self.enabled = True
        self.expansions = 0
        self.instructions_inserted = 0

    # -- production management (driven by the controller) -------------------

    @property
    def productions(self) -> tuple[Production, ...]:
        return tuple(self._productions)

    def add(self, production: Production, order: int | None = None) -> int:
        """Install a production into the matching buckets.

        ``order`` re-installs at a previously assigned priority (as
        returned by :meth:`remove`); by default the production gets the
        next (lowest) priority.  Returns the order assigned.
        """
        if order is None:
            order = self._next_order
            self._next_order += 1
        else:
            self._next_order = max(self._next_order, order + 1)
        self._order[id(production)] = order
        self._insert_ordered(self._productions, production, order)
        bucket, key = self._bucket(production)
        plist = self._generic if bucket is None else bucket.setdefault(key, [])
        self._insert_ordered(plist, production, order)
        self._memo.clear()
        return order

    def _bucket(self, production: Production) -> tuple[Optional[dict], object]:
        """The bucket dict and key a production is filed under, or
        ``(None, None)`` for the generic list."""
        pattern = production.pattern
        if pattern.pc is not None:
            return self._by_pc, pattern.pc
        if pattern.codeword is not None:
            return self._by_codeword, pattern.codeword
        if pattern.opclass is not None:
            return self._by_opclass, pattern.opclass
        return None, None

    def _insert_ordered(self, plist: list[Production], production: Production,
                        order: int) -> None:
        orders = self._order
        i = len(plist)
        while i > 0 and orders[id(plist[i - 1])] > order:
            i -= 1
        plist.insert(i, production)

    def remove(self, production: Production) -> int:
        """Withdraw a production from its bucket; returns its install
        order so a later :meth:`add` can restore its match priority.

        A bucket left empty is dropped, so the instructions it keyed
        stop being candidates for the interpreter loops' pre-filter.
        """
        self._productions.remove(production)
        bucket, key = self._bucket(production)
        if bucket is None:
            self._generic.remove(production)
        else:
            plist = bucket[key]
            plist.remove(production)
            if not plist:
                del bucket[key]
        self._memo.clear()
        return self._order.pop(id(production))

    def clear(self) -> None:
        """Remove every production."""
        self._productions.clear()
        self._by_pc.clear()
        self._by_codeword.clear()
        self._by_opclass.clear()
        self._generic.clear()
        self._order.clear()
        self._memo.clear()

    def flush(self) -> None:
        """Forget every built sequence: the text they were built from
        changed (the machine calls this on each text mutation)."""
        self._memo.clear()

    @property
    def has_productions(self) -> bool:
        return bool(self._productions)

    # -- expansion -------------------------------------------------------------

    def expand(self, inst: Instruction, pc: int) -> Optional[Expansion]:
        """Return the replacement sequence for ``inst``, or None.

        Chooses the most specific matching pattern; ties break toward the
        earliest-installed production (deterministic, like table order in
        the hardware).  The answer for a trigger PC is built once and
        reused while the instruction at that PC is the same object.
        """
        if not self.enabled or not self._productions:
            return None
        entry = self._memo.get(pc)
        if entry is not None and entry[0] is inst:
            expansion = entry[1]
        else:
            expansion = self._build(inst, pc)
            self._memo[pc] = (inst, expansion)
        if expansion is not None:
            self.expansions += 1
            self.instructions_inserted += len(expansion) - 1
        return expansion

    def _build(self, inst: Instruction, pc: int) -> Optional[Expansion]:
        state = (None, -1, 0)  # (best, best_score, best_order)
        candidates = self._by_pc.get(pc)
        if candidates:
            state = self._best_match(candidates, inst, pc, state)
        if inst.opcode is Opcode.CODEWORD:
            candidates = self._by_codeword.get(inst.imm)
            if candidates:
                state = self._best_match(candidates, inst, pc, state)
        candidates = self._by_opclass.get(inst.info.opclass)
        if candidates:
            state = self._best_match(candidates, inst, pc, state)
        if self._generic:
            state = self._best_match(self._generic, inst, pc, state)
        best = state[0]
        if best is None:
            return None
        return tuple(best.expand(inst, pc))

    def _best_match(self, candidates, inst, pc, state):
        best, best_score, best_order = state
        orders = self._order
        for production in candidates:
            score = production.pattern.specificity
            if score < best_score:
                continue
            order = orders[id(production)]
            if score == best_score and order >= best_order:
                continue
            if production.pattern.matches(inst, pc):
                best = production
                best_score = score
                best_order = order
        return best, best_score, best_order

    def reset_stats(self) -> None:
        """Zero the expansion counters."""
        self.expansions = 0
        self.instructions_inserted = 0

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> tuple:
        """Capture installed productions (with priorities) and counters.

        Productions are immutable pattern/template pairs, so the blob
        references them directly; only the installed set and match
        priorities are reconstructed on :meth:`restore`.
        """
        return (self._installed(), self._next_order, self.enabled,
                self.expansions, self.instructions_inserted)

    def _installed(self) -> tuple:
        return tuple((production, self._order[id(production)])
                     for production in self._productions)

    def restore(self, blob: tuple) -> None:
        """Reset the engine to a previous :meth:`snapshot`.

        A snapshot of the production set the engine already holds (same
        productions, orders and next order) keeps the buckets and the
        built sequences, which depend on nothing else.
        """
        (installed, next_order, self.enabled,
         self.expansions, self.instructions_inserted) = blob
        if (next_order == self._next_order
                and installed == self._installed()):
            return
        self.clear()
        for production, order in installed:
            self.add(production, order)
        self._next_order = next_order
