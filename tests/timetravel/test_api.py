"""The ``repro.api.timeline`` facade."""

from __future__ import annotations

import repro
from repro.api import timeline
from repro.timetravel import TimelineQuery
from tests.conftest import make_watch_loop


def test_timeline_is_a_facade_entry_point():
    assert repro.timeline is timeline
    assert "timeline" in repro.__all__


def test_timeline_records_a_full_run():
    query = timeline(make_watch_loop(40), checkpoint_interval=100)
    assert isinstance(query, TimelineQuery)
    assert query.machine.halted
    assert len(query.controller.store) >= 2  # genesis + auto checkpoints
    assert query.last_write("hot").found


def test_timeline_accepts_benchmark_names_and_budget():
    query = timeline("bzip2", max_app_instructions=5_000,
                     checkpoint_interval=1_000)
    assert query.machine.stats.app_instructions == 5_000
    assert not query.machine.halted
    assert query.last_write("hot").found


def test_timeline_runs_through_watchpoint_stops():
    # Watchpoint stops must not truncate the recorded history: the
    # facade resumes through them to the end of the run.
    query = timeline(make_watch_loop(30), watch=["other"],
                     checkpoint_interval=50)
    assert query.machine.halted
    assert len(query.controller.stops) >= 2


def test_program_content_digest_is_stable_and_sensitive():
    a = make_watch_loop(30)
    assert a.content_digest() == make_watch_loop(30).content_digest()
    assert a.content_digest() != make_watch_loop(31).content_digest()


def test_fresh_engine_rederives_the_same_answer():
    # Answers are never stored: a second engine over the same recorded
    # history replays its own windows and reaches the same answer.
    query = timeline(make_watch_loop(40), checkpoint_interval=100)
    first = query.last_write("hot")
    second = TimelineQuery(query.controller).last_write("hot")
    assert not first.from_cache and not second.from_cache
    assert second == first
