"""The newline-delimited JSON session protocol.

Grammar (one JSON object per ``\\n``-terminated line, UTF-8, at most
:data:`MAX_FRAME_BYTES` per frame)::

    request  = { "id": int|str|null,        # echoed on the reply
                 "verb": str,               # see VERBS below
                 "args": [str, ...] | {},   # command words / open-session
                 "session": str|null }      # required for session verbs
    reply    = ok | error
    ok       = { "id": ..., "ok": true,  "session": str|null,
                 "verb": str, "result": {...}, "text": str }
    error    = { "id": ..., "ok": false,
                 "error": { "code": str, "message": str,
                            "session": str|null } }

Verbs are the REPL command set — generated from the declarative verb
registry (:data:`repro.debugger.verbs.REGISTRY`), currently ``watch``,
``break``, ``delete``, ``info``, ``backend``, ``run``, ``continue``,
``checkpoint``, ``rewind``, ``reverse-continue``, ``print``, ``x``,
``overhead`` and the time-travel queries ``last-write``,
``first-write``, ``seek-transition``, ``seek-until``, ``value-at`` —
plus the server verbs ``open-session``, ``close-session``, ``ping``,
``info server`` (handled in the event loop) and ``experiment`` (served
cache-first from the session's worker shard).

Error codes are stable: admission rejections are ``busy``, instruction
budgets ``over-budget``, replay nondeterminism ``replay-divergence``,
history verbs before the first checkpoint ``no-checkpoint``, a crashed
worker ``session-lost``; framing problems are ``bad-frame`` (malformed
JSON — the connection survives) or ``oversized-frame``.  An oversized
request closes the connection, since framing can no longer be trusted;
a reply too large for one frame is replaced by an ``oversized-frame``
error carrying the request id, and the connection survives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.debugger.verbs import budget_verbs, command_verbs

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 64 * 1024

# -- error codes (the wire contract; see module docstring) -----------------
BAD_FRAME = "bad-frame"
OVERSIZED_FRAME = "oversized-frame"
BAD_REQUEST = "bad-request"
UNKNOWN_VERB = "unknown-verb"
NO_SESSION = "no-session"
BUSY = "busy"
OVER_BUDGET = "over-budget"
COMMAND_FAILED = "command-failed"
REPLAY_DIVERGENCE = "replay-divergence"
NO_CHECKPOINT = "no-checkpoint"
SESSION_LOST = "session-lost"
INTERNAL = "internal"

#: Verbs the dispatcher executes inside a worker (from the registry —
#: the wire protocol and the REPL can never drift apart).
COMMAND_VERBS = command_verbs()
#: Verbs the server itself understands on top of the command set.
SERVER_VERBS = frozenset({"open-session", "close-session", "experiment",
                          "ping"})
VERBS = COMMAND_VERBS | SERVER_VERBS

#: Command verbs that take an application-instruction budget argument,
#: capped by the server's per-command instruction budget (also from
#: the registry; see ``VerbSpec.budget_arg``).
BUDGET_VERBS = budget_verbs()


class ProtocolError(Exception):
    """A frame that cannot be accepted (carries a wire error code)."""

    def __init__(self, message: str, code: str = BAD_REQUEST):
        super().__init__(message)
        self.code = code


@dataclass
class Request:
    """One decoded request frame."""

    verb: str
    args: Union[list, dict] = field(default_factory=list)
    session: Optional[str] = None
    id: Any = None


def decode_request(line: bytes) -> Request:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` with code ``bad-frame`` for
    undecodable JSON and ``bad-request``/``unknown-verb`` for
    well-formed frames that violate the schema.
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}",
                            code=BAD_FRAME) from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame must be a JSON object", code=BAD_FRAME)
    request_id = payload.get("id")
    if not isinstance(request_id, (str, int, type(None))):
        request_id = None

    def fail(message: str, code: str = BAD_REQUEST) -> None:
        error = ProtocolError(message, code=code)
        error.request_id = request_id  # echoed on the error reply
        raise error

    verb = payload.get("verb")
    if not isinstance(verb, str) or not verb:
        fail("missing or non-string 'verb'")
    if verb not in VERBS and not verb.startswith("_"):
        fail(f"unknown verb {verb!r}", code=UNKNOWN_VERB)
    args = payload.get("args", [])
    if isinstance(args, list):
        if not all(isinstance(a, (str, int, float)) for a in args):
            fail("'args' entries must be scalars")
        args = [str(a) for a in args]
    elif not isinstance(args, dict):
        fail("'args' must be a list or an object")
    session = payload.get("session")
    if session is not None and not isinstance(session, str):
        fail("'session' must be a string or null")
    return Request(verb=verb, args=args, session=session, id=request_id)


def encode_request(verb: str, args: Union[list, dict, None] = None, *,
                   session: Optional[str] = None,
                   request_id: Any = None) -> bytes:
    """Render one request frame (newline-terminated)."""
    payload = {"id": request_id, "verb": verb,
               "args": [] if args is None else args, "session": session}
    return _frame(payload)


def ok_reply(request_id: Any, verb: str, result: dict, *,
             session: Optional[str] = None, text: str = "") -> dict:
    """A success reply object."""
    return {"id": request_id, "ok": True, "session": session,
            "verb": verb, "result": result, "text": text}


def error_reply(request_id: Any, code: str, message: str, *,
                session: Optional[str] = None) -> dict:
    """A failure reply object."""
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message, "session": session}}


def encode_reply(reply: dict) -> bytes:
    """Render one reply object as a frame (newline-terminated)."""
    return _frame(reply)


def decode_reply(line: bytes) -> dict:
    """Parse one reply line (client side)."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable reply: {exc}",
                            code=BAD_FRAME) from exc
    if not isinstance(payload, dict) or "ok" not in payload:
        raise ProtocolError("reply must be a JSON object with 'ok'",
                            code=BAD_FRAME)
    return payload


def _frame(payload: dict) -> bytes:
    data = json.dumps(payload, separators=(",", ":"),
                      default=repr).encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}",
            code=OVERSIZED_FRAME)
    return data
