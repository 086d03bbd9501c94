"""Bisected answers must re-land bit-identically on every backend.

Two layers of parity:

* **bisected vs linear** — for each of the five backends, the
  checkpoint-bisected ``last_write``/``transitions`` answers must equal
  the naive rerun-from-genesis ground truth, including the re-landed
  ``state_fingerprint``, and ``seek_until`` must land on the first
  ground-truth transition that satisfies its predicate;
* **fuzz-oracle leg** — on pinned golden seeds, the bisected answers
  must agree with the forward run's own shadow store log
  (:func:`repro.fuzz.oracle.timeline_leg`), across backends and on both
  the table and compiled interpreter tiers.
"""

from __future__ import annotations

import operator

import pytest

from repro.debugger.session import Session
from repro.fuzz.golden import GOLDEN_SEEDS
from repro.fuzz.generator import generate_spec
from repro.fuzz.oracle import BACKENDS, timeline_leg
from repro.timetravel import TimelineError, TimelineQuery
from tests.conftest import make_watch_loop


def _query(backend: str, iters: int = 60) -> TimelineQuery:
    session = Session(make_watch_loop(iters), backend=backend)
    controller = session.start_interactive(checkpoint_interval=100)
    while True:
        run = controller.resume()
        if run.halted or not run.stopped_at_user:
            break
    return TimelineQuery(controller)


@pytest.mark.parametrize("backend", BACKENDS)
def test_last_write_matches_linear_replay_bit_for_bit(backend):
    query = _query(backend)
    for target in ("hot", "other"):
        bisected = query.last_write(target)
        linear = query.last_write_linear(target)
        assert bisected.found and linear.found
        assert (bisected.app_instructions, bisected.ordinal, bisected.pc,
                bisected.state_fingerprint) == \
               (linear.app_instructions, linear.ordinal, linear.pc,
                linear.state_fingerprint)
        assert (bisected.address, bisected.size, bisected.value,
                bisected.old_value) == \
               (linear.address, linear.size, linear.value,
                linear.old_value)


@pytest.mark.parametrize("backend", BACKENDS)
def test_transitions_match_linear_replay(backend):
    query = _query(backend)
    for expression in ("hot", "other"):
        assert query.transitions(expression) == \
            query.transitions_linear(expression)


def test_seek_transition_relands_with_the_recorded_fingerprint():
    # Landing via controller.seek must produce exactly the fingerprint
    # the query reported — on every backend.
    for backend in BACKENDS:
        query = _query(backend, iters=30)
        result = query.seek_transition("other", 7)
        assert query.backend.state_fingerprint() == \
            result.state_fingerprint


#: seek-until predicates that first hold after the start of history:
#: ``other`` counts 1..30, ``hot`` is 100 until it becomes 101 at the end.
_LATER_PREDICATES = (("other", ">=", 7), ("other", "==", 12),
                     ("other", "!=", 0), ("hot", ">", 100))
_COMPARE = {">=": operator.ge, "==": operator.eq, "!=": operator.ne,
            ">": operator.gt}


@pytest.mark.parametrize("backend", BACKENDS)
def test_seek_until_lands_on_the_first_satisfying_transition(backend):
    query = _query(backend, iters=30)
    end = query.machine.stats.app_instructions
    for expression, cmp, value in _LATER_PREDICATES:
        expected = next(t for t in query.transitions_linear(expression)
                        if _COMPARE[cmp](t.new_value, value))
        result = query.seek_until(expression, cmp, value)
        assert result.found and result.target == \
            f"{expression} {cmp} {value}"
        assert (result.app_instructions, result.ordinal) == \
            (expected.app_instructions, expected.app_instructions)
        assert (result.value, result.old_value) == \
            (expected.new_value, expected.old_value)
        assert result.windows_scanned >= 1
        # The session sits on the answer, as reported.
        assert query.machine.stats.app_instructions == \
            expected.app_instructions
        assert result.pc == query.machine.pc
        assert query.backend.state_fingerprint() == \
            result.state_fingerprint
        query.controller.seek(end)


@pytest.mark.parametrize("backend", BACKENDS)
def test_seek_until_already_true_at_genesis_lands_there(backend):
    query = _query(backend, iters=30)
    genesis = query.controller.store.oldest.app_instructions
    for expression, cmp, value in (("other", "<", 5), ("hot", "==", 100)):
        result = query.seek_until(expression, cmp, value)
        assert (result.app_instructions, result.ordinal) == \
            (genesis, genesis)
        assert result.windows_scanned == 0
        assert result.old_value is None
        assert query.machine.stats.app_instructions == genesis
        assert query.backend.state_fingerprint() == \
            result.state_fingerprint
    assert query.seek_until("other", "<", 5).value == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_seek_until_that_cannot_land_leaves_the_session(backend):
    query = _query(backend, iters=30)
    end = query.machine.stats.app_instructions
    fingerprint = query.backend.state_fingerprint()
    for cmp, value in ((">", 30), ("=~", 1)):  # never holds; unknown
        with pytest.raises(TimelineError):
            query.seek_until("other", cmp, value)
        assert query.machine.stats.app_instructions == end
        assert query.backend.state_fingerprint() == fingerprint


# -- fuzz-oracle leg ---------------------------------------------------------

#: >= 2 backends x (table, compiled): the satellite contract.
_FUZZ_MATRIX = [(backend, interp)
                for backend in ("virtual_memory", "dise")
                for interp in ("table", "compiled")]


@pytest.mark.parametrize("backend,interp", _FUZZ_MATRIX)
def test_fuzz_last_write_agrees_with_shadow_store_log(backend, interp):
    for seed in GOLDEN_SEEDS[:3]:
        divergences = timeline_leg(generate_spec(seed), backend,
                                   interp=interp)
        assert not divergences, "; ".join(
            d.describe() for d in divergences)


def test_fuzz_timeline_leg_rotates_all_golden_seeds():
    # The remaining pinned seeds get one leg each (reference backend,
    # table tier) so generator drift cannot hide in the sampled prefix.
    for seed in GOLDEN_SEEDS[3:]:
        divergences = timeline_leg(generate_spec(seed), "virtual_memory")
        assert not divergences, "; ".join(
            d.describe() for d in divergences)
