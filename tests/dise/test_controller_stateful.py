"""Stateful property test: the controller's table has one owner.

Random interleavings of install (for either of two processes),
deactivate/activate, context switches and snapshot/restore must keep
three invariants: (1) the engine holds exactly the resident set — the
active productions aimed at the running process, in install order,
(2) table accounting matches the installed set, and (3) capacity is
never exceeded.
"""

from hypothesis import strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.config import DiseConfig
from repro.dise.controller import DiseController
from repro.dise.engine import DiseEngine
from repro.dise.pattern import Pattern
from repro.dise.production import Production
from repro.dise.template import original, template
from repro.errors import DiseCapacityError
from repro.isa.opcodes import Opcode


PROCESSES = ("app", "neighbour")


def _production(length: int, tag: int) -> Production:
    slots = [original()] + [template(Opcode.NOP)] * (length - 1)
    return Production(Pattern.stores(), slots, name=f"p{tag}-{length}")


class ControllerMachine(RuleBasedStateMachine):
    """Model-checks DiseController against a simple reference."""

    productions = Bundle("productions")

    def __init__(self):
        super().__init__()
        self.engine = DiseEngine()
        self.controller = DiseController(
            self.engine,
            DiseConfig(pattern_table_entries=6,
                       replacement_table_instructions=20),
            process_name=PROCESSES[0])
        # id -> [production, target process, active], in install order.
        self.model: dict[int, list] = {}
        self.current = PROCESSES[0]
        self.saved = None
        self.counter = 0

    @rule(target=productions, length=st.integers(min_value=1, max_value=6),
          process=st.sampled_from((None,) + PROCESSES))
    def install(self, length, process):
        """Install may succeed or hit capacity; the model mirrors it."""
        self.counter += 1
        production = _production(length, self.counter)
        used_entries = len(self.model)
        used_slots = sum(len(p) for p, _, _ in self.model.values())
        should_fit = (used_entries + 1 <= 6 and used_slots + length <= 20)
        try:
            self.controller.install(production, target_process=process)
        except DiseCapacityError:
            assert not should_fit
            return production  # bundle needs a value; mark as absent
        assert should_fit
        self.model[id(production)] = [production, process or self.current,
                                      True]
        return production

    @rule(production=productions)
    def deactivate(self, production):
        if id(production) not in self.model:
            return
        self.controller.deactivate(production)
        self.model[id(production)][2] = False

    @rule(production=productions)
    def activate(self, production):
        if id(production) not in self.model:
            return
        self.controller.activate(production)
        self.model[id(production)][2] = True

    @rule(process=st.sampled_from(PROCESSES))
    def context_switch(self, process):
        self.controller.context_switch(process)
        self.current = process

    @rule()
    def snapshot(self):
        self.saved = (self.controller.snapshot(), self.current,
                      {key: list(entry) for key, entry in self.model.items()})

    @precondition(lambda self: self.saved is not None)
    @rule()
    def restore(self):
        blob, self.current, model = self.saved
        self.controller.restore(blob)
        self.model = {key: list(entry) for key, entry in model.items()}

    @invariant()
    def engine_holds_the_resident_set(self):
        resident = tuple(production
                         for production, target, active in self.model.values()
                         if active and target == self.current)
        assert self.engine.productions == resident

    @invariant()
    def accounting_matches_model(self):
        assert self.controller.pattern_entries_used == len(self.model)
        assert self.controller.replacement_slots_used == \
            sum(len(p) for p, _, _ in self.model.values())

    @invariant()
    def capacity_never_exceeded(self):
        assert self.controller.pattern_entries_used <= 6
        assert self.controller.replacement_slots_used <= 20


TestControllerStateful = ControllerMachine.TestCase
