"""The time-travel query engine: correctness and invariants.

WATCH_LOOP is the adversarial debuggee here: ``hot`` is stored every
iteration with the *same* value (silent stores) and changes exactly
once right before the halt — a pure value-diff bisection over
checkpoints would misattribute every one of those writes.  The shadow
store log must not.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.debugger.session import Session
from repro.timetravel import (PendingStoreReader, StoreEvent, TimelineError,
                              TimelineQuery)
from tests.conftest import make_watch_loop

INTERVAL = 100  # checkpoint every 100 app instructions -> real bisection


def _query(backend="dise", iters=60, interval=INTERVAL, program=None):
    session = Session(program or make_watch_loop(iters), backend=backend)
    controller = session.start_interactive(checkpoint_interval=interval)
    while True:
        run = controller.resume()
        if run.halted or not run.stopped_at_user:
            break
    return TimelineQuery(controller)


@pytest.fixture(scope="module")
def query():
    return _query()


# -- store events ------------------------------------------------------------


def test_store_event_overlap_and_roundtrip():
    event = StoreEvent(10, 0x1000, 0x100, 8, 7, 6)
    assert event.overlaps(0x100, 8)
    assert event.overlaps(0x107, 1)
    assert event.overlaps(0xF9, 8)
    assert not event.overlaps(0x108, 8)
    assert not event.overlaps(0xF8, 8)
    assert StoreEvent(**asdict(event)) == event  # plain data throughout


def test_pending_store_reader_patches_the_write():
    class FakeMemory:
        @staticmethod
        def read_bytes(address, length):
            return bytes(length)

    reader = PendingStoreReader(FakeMemory(), 0x100, 8, 0x0102030405060708)
    assert reader.read_int(0x100, 8) == 0x0102030405060708
    assert reader.read_int(0x100, 1) == 0x08  # little-endian low byte
    assert reader.read_int(0x0F8, 8) == 0  # below the store
    # Straddling read: low half memory, high half pending bytes.
    assert reader.read_bytes(0xFC, 8) == bytes(4) + bytes.fromhex("08070605")


# -- last-write / first-write ------------------------------------------------


def test_last_write_sees_through_silent_stores(query):
    result = query.last_write("hot")
    assert result.found
    # The only value change is the epilogue store; the newest *write*
    # is also that store, and old/new expose the silent-store history.
    assert (result.old_value, result.value) == (100, 101)
    assert result.ordinal == result.app_instructions
    assert result.state_fingerprint
    assert result.windows_scanned >= 1


def test_first_write_is_the_first_silent_store(query):
    result = query.first_write("hot")
    assert result.found
    assert (result.old_value, result.value) == (100, 100)  # silent
    assert result.app_instructions < query.last_write("hot").app_instructions


def test_last_write_scans_fewer_windows_than_history(query):
    # Newest-first scan stops at the first matching window: `other` is
    # stored every iteration, so exactly one window is scanned.
    assert query.last_write("other").windows_scanned == 1
    total = len(query._windows(query.machine.stats.app_instructions))
    assert total >= 3  # the run is long enough to be worth bisecting
    assert query.first_write("hot").windows_scanned <= total


def test_write_query_accepts_literal_addresses(query):
    symbolic = query.last_write("hot")
    address = query.controller.backend.resolver.resolve("hot")[0]
    literal = query.last_write(hex(address))
    assert literal.app_instructions == symbolic.app_instructions
    assert literal.pc == symbolic.pc


def test_no_recorded_write_is_found_false(query):
    # hot_ptr is written once in the preamble... use an address beyond
    # every data item instead: inside the page, never stored to.
    result = query.last_write("0x7ff00000")
    assert not result.found
    assert "No recorded write" in result.describe()


def test_unknown_target_raises_timeline_error(query):
    with pytest.raises(TimelineError):
        query.last_write("nosuchsymbol")


def test_queries_are_side_effect_free(query):
    machine = query.machine
    before = (machine.stats.app_instructions,
              query.backend.state_fingerprint(),
              len(query.controller.store))
    query.last_write("hot")
    query.first_write("other")
    query.value_at("hot", before[0] // 2)
    query.transitions("other")
    after = (machine.stats.app_instructions,
             query.backend.state_fingerprint(),
             len(query.controller.store))
    assert after == before


# -- value-at ----------------------------------------------------------------


def test_value_at_reconstructs_intermediate_state():
    query = _query(iters=40)
    first = query.first_write("other")
    # Right at the first store to `other`, its value is 1; one
    # instruction earlier it is still 0.
    assert query.value_at("other", first.app_instructions).value == 1
    assert query.value_at("other", first.app_instructions - 1).value == 0


def test_value_at_bounds_check(query):
    now = query.machine.stats.app_instructions
    with pytest.raises(TimelineError):
        query.value_at("hot", now + 1)
    with pytest.raises(TimelineError):
        query.value_at("hot", -1)
    assert query.value_at("hot", now).value == 101


def test_value_at_supports_indirect_expressions(query):
    # hot_ptr holds &hot; *hot_ptr is a dynamic (indirect) expression,
    # fine for value-at because the machine is fully materialized.
    now = query.machine.stats.app_instructions
    assert query.value_at("*hot_ptr", now).value == 101


# -- transitions / seek-transition -------------------------------------------


def test_transitions_ignore_silent_stores(query):
    events = query.transitions("hot")
    assert len(events) == 1  # dozens of stores, one value change
    assert (events[0].old_value, events[0].new_value) == (100, 101)


def test_seek_transition_lands_and_moves_the_session():
    query = _query(iters=30)
    end = query.machine.stats.app_instructions
    result = query.seek_transition("other", 5)
    assert result.transition == 5
    assert (result.old_value, result.value) == (4, 5)
    # The session relocated to the transition's ordinal.
    assert query.machine.stats.app_instructions == result.app_instructions
    assert query.machine.stats.app_instructions < end
    # And the live value agrees with the landed answer.
    assert query.value_at("other",
                          result.app_instructions).value == 5


def test_seek_transition_out_of_range(query):
    with pytest.raises(TimelineError):
        query.seek_transition("hot", 2)  # hot changes exactly once
    with pytest.raises(TimelineError):
        query.seek_transition("hot", 0)  # 1-based


def test_transition_queries_reject_indirect_and_range_expressions(query):
    with pytest.raises(TimelineError):
        query.seek_transition("*hot_ptr", 1)
    with pytest.raises(TimelineError):
        query.transitions("arr[0:8]")


# -- result surface ----------------------------------------------------------


def test_describe_renderings(query):
    assert "Last write to hot" in query.last_write("hot").describe()
    assert "First write to hot" in query.first_write("hot").describe()
    now = query.machine.stats.app_instructions
    assert f"{now:,}" in query.value_at("hot", now).describe()


def test_result_roundtrips_through_dict(query):
    result = query.last_write("hot")
    from repro.timetravel import QueryResult

    clone = QueryResult(**result.to_dict())
    assert clone == result
