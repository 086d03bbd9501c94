"""Controller: capacity limits, access policy, activation."""

import pytest

from repro.config import DiseConfig
from repro.dise.controller import DiseController
from repro.dise.engine import DiseEngine
from repro.dise.pattern import Pattern
from repro.dise.production import Production
from repro.dise.template import original, template
from repro.errors import DiseCapacityError, DisePermissionError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode


def _controller(pattern_entries=4, slots=16):
    engine = DiseEngine()
    config = DiseConfig(pattern_table_entries=pattern_entries,
                        replacement_table_instructions=slots)
    return DiseController(engine, config, process_name="app"), engine


def _production(length=2, name="p"):
    slots = [original()] + [template(Opcode.NOP)] * (length - 1)
    return Production(Pattern.stores(), slots, name=name)


def test_install_activates():
    controller, engine = _controller()
    production = _production()
    controller.install(production)
    assert production in engine.productions
    assert controller.pattern_entries_used == 1
    assert controller.replacement_slots_used == 2


def test_pattern_table_capacity():
    controller, _ = _controller(pattern_entries=2)
    controller.install(_production(name="a"))
    controller.install(_production(name="b"))
    with pytest.raises(DiseCapacityError):
        controller.install(_production(name="c"))


def test_replacement_table_capacity():
    controller, _ = _controller(slots=5)
    controller.install(_production(length=3, name="a"))
    with pytest.raises(DiseCapacityError):
        controller.install(_production(length=3, name="b"))


def test_deactivate_keeps_table_space():
    controller, engine = _controller(pattern_entries=1)
    production = _production()
    controller.install(production)
    controller.deactivate(production)
    assert engine.productions == ()
    assert controller.pattern_entries_used == 1  # still reserved
    controller.activate(production)
    assert engine.productions


def test_deactivate_is_idempotent():
    controller, _ = _controller()
    production = _production()
    controller.install(production)
    controller.deactivate(production)
    controller.deactivate(production)
    controller.activate(production)
    controller.activate(production)


def test_own_process_unrestricted():
    controller, _ = _controller()
    controller.install(_production(), principal="app", target_process="app")


def test_untrusted_cross_process_rejected():
    controller, _ = _controller()
    with pytest.raises(DisePermissionError):
        controller.install(_production(), principal="rogue",
                           target_process="app")


def test_trusted_principals_may_cross():
    controller, _ = _controller()
    controller.install(_production(), principal="debugger")
    controller.install(_production(name="q"), principal="os")


def test_unknown_production_raises():
    controller, _ = _controller()
    with pytest.raises(KeyError):
        controller.deactivate(_production())


def test_install_all_atomic_on_replacement_capacity_error():
    """A capacity error mid-batch must leave the engine unchanged."""
    controller, engine = _controller(slots=5)
    batch = [_production(length=2, name="a"),
             _production(length=2, name="b"),
             _production(length=2, name="c")]  # needs 6 of 5 slots
    with pytest.raises(DiseCapacityError):
        controller.install_all(batch)
    assert engine.productions == ()
    assert controller.pattern_entries_used == 0
    assert controller.replacement_slots_used == 0


def test_install_all_atomic_on_pattern_capacity_error():
    controller, engine = _controller(pattern_entries=2)
    with pytest.raises(DiseCapacityError):
        controller.install_all([_production(name=name) for name in "abc"])
    assert engine.productions == ()
    assert controller.pattern_entries_used == 0


def test_install_all_forwards_target_process():
    controller, engine = _controller()
    with pytest.raises(DisePermissionError):
        controller.install_all([_production()], principal="rogue",
                               target_process="app")
    assert engine.productions == ()
    controller.install_all([_production()], principal="app",
                           target_process="app")
    assert controller.pattern_entries_used == 1


def test_activate_preserves_match_priority():
    """A deactivate/activate round-trip must not demote the production
    behind an equally specific later install (tie-break is documented
    as earliest-installed)."""
    controller, engine = _controller()
    store = Instruction(Opcode.STQ, rd=1, rs1=5, imm=0)
    first = Production(Pattern.stores(), [original(), template(Opcode.TRAP)],
                       name="first")
    second = Production(Pattern.stores(), [original(), template(Opcode.NOP)],
                        name="second")
    controller.install(first)
    controller.install(second)
    assert engine.expand(store, 0x1000)[1].opcode is Opcode.TRAP
    controller.deactivate(first)
    assert engine.expand(store, 0x1000)[1].opcode is Opcode.NOP
    controller.activate(first)
    assert engine.expand(store, 0x1000)[1].opcode is Opcode.TRAP
