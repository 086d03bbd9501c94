"""Edge cases across backends."""

import pytest

from repro.cpu.stats import TransitionKind
from repro.debugger import Session
from repro.debugger.backends.base import DebuggerBackend
from repro.errors import DiseCapacityError
from repro.isa import assemble
from tests.conftest import make_watch_loop


def test_base_backend_requires_handler():
    backend = DebuggerBackend(make_watch_loop(2))
    with pytest.raises(NotImplementedError):
        backend.handle_trap(None)


def test_no_watchpoints_is_free_for_dise():
    session = Session(make_watch_loop(10), backend="dise")
    backend = session.build_backend()
    result = backend.run()
    assert result.stats.dise_expansions == 0
    assert backend.machine.dise_engine.productions == ()


def test_watching_same_variable_twice():
    session = Session(make_watch_loop(10), backend="dise")
    session.watch("hot")
    session.watch("hot")
    result = session.build_backend().run()
    # Both watchpoints observe the single change.
    assert result.stats.user_transitions >= 1
    assert result.stats.spurious_transitions == 0


def test_mixed_expression_kinds_in_one_dise_session():
    session = Session(make_watch_loop(10), backend="dise")
    session.watch("hot")
    session.watch("*hot_ptr")
    session.watch("arr[0:]")
    session.watch("hot + other")
    result = session.build_backend().run()
    assert result.stats.spurious_transitions == 0
    assert result.stats.user_transitions > 0


def test_too_many_watchpoints_hit_capacity():
    """Serial matching of very many addresses overflows the
    replacement table, surfacing the controller's capacity limit."""
    source_vars = "\n".join(f"v{i}: .quad {i}" for i in range(300))
    program = assemble(f".data\n{source_vars}\n.text\nmain:\n"
                       "    stq r1, 0(sp)\n    halt")
    session = Session(program, backend="dise",
                           multi_strategy="serial")
    for i in range(300):
        session.watch(f"v{i}")
    with pytest.raises(DiseCapacityError):
        session.build_backend()


def test_bloom_scales_where_serial_cannot():
    source_vars = "\n".join(f"v{i}: .quad {i}" for i in range(300))
    program = assemble(f".data\n{source_vars}\n.text\nmain:\n"
                       "    stq r1, 0(sp)\n    halt")
    session = Session(program, backend="dise",
                           multi_strategy="bloom-byte")
    for i in range(300):
        session.watch(f"v{i}")
    backend = session.build_backend()  # constant-length sequence: fits
    result = backend.run()
    assert result.halted


def test_vm_watch_of_two_variables_on_one_page():
    program = assemble("""
    .data
    a: .quad 0
    b: .quad 0
    .text
    main:
        lda r1, a
        lda r2, 1
        stq r2, 0(r1)    ; changes a
        stq r2, 8(r1)    ; changes b
        halt
    """)
    session = Session(program, backend="virtual_memory")
    session.watch("a")
    session.watch("b")
    result = session.build_backend().run()
    assert result.stats.user_transitions == 2
    assert result.stats.spurious_transitions == 0


def test_hardware_silent_store_to_one_of_two_watches():
    program = assemble("""
    .data
    a: .quad 5
    b: .quad 6
    pad: .space 4080
    .text
    main:
        lda r1, a
        lda r2, 5
        stq r2, 0(r1)    ; silent store to a
        lda r2, 9
        stq r2, 8(r1)    ; real change to b
        halt
    """)
    session = Session(program, backend="hardware")
    session.watch("a")
    session.watch("b")
    result = session.build_backend().run()
    stats = result.stats
    assert stats.transitions[TransitionKind.SPURIOUS_VALUE] == 1
    assert stats.user_transitions == 1
