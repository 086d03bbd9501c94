"""The timing model charges exactly what its reference charges.

``timing_reference.py`` keeps the plain form of the timing model, the
branch predictor and the tag arrays.  Hypothesis feeds one random event
stream to both, including a snapshot and restore in mid-stream, and
after every event both must agree on cycles (to the bit), flushes,
every cache and TLB counter, the predictor's counters and every answer
an event returns.
"""

from hypothesis import given, settings, strategies as st

from repro.config import MachineConfig
from repro.cpu.timing import TimingModel
from tests.cpu.timing_reference import RefTimingModel

# Small tag arrays and predictor tables, so short streams evict,
# alias and mispredict.
_CONFIG = MachineConfig().with_(branch_predictor_entries=64,
                                btb_entries=16)

# Mostly a few hot lines on two pages, so accesses hit and the port
# limits decide the cycle; sometimes anywhere in 16 MB, so they miss in
# every level and every TLB.
_HOT = st.sampled_from([0x1000, 0x1008, 0x1040, 0x1080, 0x2000, 0x2040])
_ADDRESS = st.one_of(
    _HOT, _HOT, _HOT,
    st.integers(0, 0x3FFF),
    st.integers(0, 1 << 24).map(lambda a: a & ~0x7),
)
_PC = st.integers(0x1000, 0x1FFF).map(lambda a: a & ~0x3)

_LOAD = st.tuples(st.just("load"), _ADDRESS)
_STORE = st.tuples(st.just("store"), _ADDRESS)
_EVENT = st.one_of(
    st.tuples(st.just("fetch"), _PC),
    st.tuples(st.just("commit")),
    _LOAD, _LOAD, _LOAD, _STORE, _STORE, _STORE,
    st.tuples(st.just("conditional_branch"), _PC, st.booleans()),
    st.tuples(st.just("call"), _PC, _PC),
    st.tuples(st.just("return_"), _PC, _PC),
    st.tuples(st.just("indirect_jump"), _PC, _PC),
    st.tuples(st.just("direct_jump")),
    st.tuples(st.just("dise_branch_taken")),
    st.tuples(st.just("dise_call")),
    st.tuples(st.just("dise_return")),
    st.tuples(st.just("debugger_transition"), st.booleans()),
    st.tuples(st.just("context_switch")),
    st.tuples(st.just("reset_counters")),
)


def _observe(model) -> tuple:
    units = (model.caches.l1i, model.caches.l1d, model.caches.l2,
             model.itlb, model.dtlb)
    return (model.cycles.hex(), model.total_cycles, model.flushes,
            tuple((unit.hits, unit.misses) for unit in units),
            model.predictor.lookups, model.predictor.mispredictions)


def _check(events, cut, multithreaded=False):
    config = _CONFIG.with_(multithreaded_dise_calls=multithreaded)
    live, ref = TimingModel(config), RefTimingModel(config)
    blobs = None
    for position, (name, *args) in enumerate(events):
        if position == cut:
            blobs = (live.snapshot(), ref.snapshot())
        answer = getattr(live, name)(*args)
        assert answer == getattr(ref, name)(*args), (position, name)
        assert _observe(live) == _observe(ref), (position, name)
    if blobs is not None:
        live.restore(blobs[0])
        ref.restore(blobs[1])
        assert _observe(live) == _observe(ref)
        for name, *args in events[cut:]:
            assert getattr(live, name)(*args) == getattr(ref, name)(*args)
            assert _observe(live) == _observe(ref), name


@settings(max_examples=150, deadline=None)
@given(events=st.lists(_EVENT, min_size=20, max_size=300),
       cut=st.integers(0, 300), multithreaded=st.booleans())
def test_event_stream_matches_the_reference(events, cut, multithreaded):
    _check(events, cut, multithreaded)


# Only hits and commits: the port limits and commit width alone decide
# when a cycle ends.
_PORT_EVENT = st.one_of(st.tuples(st.just("load"), _HOT),
                        st.tuples(st.just("store"), _HOT),
                        st.tuples(st.just("commit")))


@settings(max_examples=100, deadline=None)
@given(events=st.lists(_PORT_EVENT, min_size=20, max_size=200),
       cut=st.integers(0, 200))
def test_port_contention_matches_the_reference(events, cut):
    _check(events, cut)


@settings(max_examples=100, deadline=None)
@given(branches=st.lists(st.tuples(_PC, st.booleans()), min_size=50,
                         max_size=400))
def test_every_prediction_matches_the_reference(branches):
    live, ref = TimingModel(_CONFIG), RefTimingModel(_CONFIG)
    for pc, taken in branches:
        assert (live.predictor.predict_and_update(pc, taken)
                == ref.predictor.predict_and_update(pc, taken))
    assert live.predictor.snapshot() == ref.predictor.snapshot()
