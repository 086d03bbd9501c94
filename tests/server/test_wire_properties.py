"""Property tests over the wire: every frame ends in a coded outcome.

``protocol.decode_request`` either returns a :class:`Request` or raises
:class:`ProtocolError` with one of the protocol's codes, whatever the
bytes.  A random verb with random arguments, handled by a worker on an
open session of each backend, gets ``ok`` or a coded error — never
``internal`` — and a failed command leaves the session's state
fingerprint as it was.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.debugger.backends import BACKENDS
from repro.server import protocol, worker
from repro.server.protocol import ProtocolError, Request
from tests.server.conftest import count_asm

#: Every error code of the wire contract except ``internal``.
CODES = frozenset({
    protocol.BAD_FRAME, protocol.OVERSIZED_FRAME, protocol.BAD_REQUEST,
    protocol.UNKNOWN_VERB, protocol.NO_SESSION, protocol.BUSY,
    protocol.OVER_BUDGET, protocol.COMMAND_FAILED,
    protocol.REPLAY_DIVERGENCE, protocol.NO_CHECKPOINT,
    protocol.SESSION_LOST})


# -- decode_request ------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.floats()
    | st.integers(min_value=-2 ** 70, max_value=2 ** 70)
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=4)),
    max_leaves=8)
frame_keys = st.sampled_from(("id", "verb", "args", "session")) \
    | st.text(max_size=4)
frame_verbs = st.sampled_from(sorted(protocol.VERBS) + ["", "_x", "nope"])


def _check_decoded(line: bytes) -> None:
    try:
        request = protocol.decode_request(line)
    except ProtocolError as exc:
        assert exc.code in CODES, exc.code
        return
    assert isinstance(request, Request)
    assert isinstance(request.verb, str) and request.verb
    assert isinstance(request.args, dict) or all(
        isinstance(arg, str) for arg in request.args)
    assert request.session is None or isinstance(request.session, str)


@settings(max_examples=200)
@given(st.binary(max_size=120))
def test_decode_request_on_arbitrary_bytes(line):
    _check_decoded(line)


@settings(max_examples=200)
@given(st.dictionaries(frame_keys, json_values | frame_verbs, max_size=5))
def test_decode_request_on_arbitrary_objects(payload):
    _check_decoded(json.dumps(payload).encode())


# -- worker.handle on open sessions -----------------------------------------------

#: Words the verbs understand, and some they do not.
WORDS = ("hot", "main", "loop", "&hot", "*hot", "hot[0:2]", "if", "==",
         "!=", "<", "watchpoints", "breakpoints", "stats", "backend",
         "checkpoints", "server", "dise", "hardware", "single_step",
         "scratch_pairs=r9,r10", "check=none", "0x0", "-1", "", "²")
words = (st.sampled_from(WORDS)
         | st.integers(min_value=-3, max_value=600).map(str)
         | st.integers(min_value=0, max_value=2 ** 65).map(hex)
         | st.text(alphabet="abz_&*[]:=<!- ", max_size=6))
commands = st.tuples(
    st.sampled_from(sorted(protocol.COMMAND_VERBS) + ["frobnicate"]),
    st.lists(words, max_size=4))
_session_ids = itertools.count()


def _state(session: str):
    """(state fingerprint, instructions run) of the session's backend,
    or None before the session has built one."""
    backend = worker._DISPATCHERS[session]._backend_obj
    if backend is None:
        return None
    return (backend.state_fingerprint(),
            backend.machine.stats.app_instructions)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=st.lists(commands, min_size=1, max_size=6))
def test_random_commands_end_in_coded_replies(backend, script):
    # ``count_asm`` halts after 1,000 instructions, so no count drawn
    # here can make a command run long.
    session = f"prop-{next(_session_ids)}"
    opened = worker.handle({
        "verb": "open-session", "session": session,
        "args": {"asm": count_asm(200), "backend": backend}})
    assert opened["ok"], opened
    try:
        for verb, args in script:
            before = _state(session)
            reply = worker.handle({"verb": verb, "session": session,
                                   "args": args})
            if reply["ok"]:
                continue
            code = reply["error"]["code"]
            assert code in CODES, (verb, args, reply["error"])
            after = _state(session)
            if before is None and after is not None:
                # An inspection builds the backend at its first
                # instruction before it parses its arguments; it must
                # not run anything.
                assert after[1] == 0, (verb, args, code)
            else:
                assert after == before, (verb, args, code)
    finally:
        worker.drop_sessions([session])
