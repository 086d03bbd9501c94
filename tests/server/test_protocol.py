"""The wire protocol: framing, validation, and golden transcripts.

The golden test drives one scripted session covering *every* verb the
protocol knows and compares the normalized request/reply pairs against
``tests/server/golden/transcript.json``.  Nondeterministic fields
(session ids, pids, timings, cache paths, digests) are normalized to
placeholders; everything else — payload shapes, instruction counts,
stop ordinals, error codes — must match byte for byte.  Regenerate
after an intentional protocol change with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/server/test_protocol.py
"""

from __future__ import annotations

import asyncio
import json
import os
import re
from pathlib import Path

import pytest

from repro.server import protocol
from tests.server.conftest import (connected, count_asm, run_async,
                                   running_server, thread_config)

GOLDEN = Path(__file__).parent / "golden" / "transcript.json"


# -- frame encode/decode ---------------------------------------------------


def test_decode_request_roundtrip():
    line = protocol.encode_request("watch", ["hot", "if", "hot", "==", "3"],
                                   session="s1", request_id=7)
    request = protocol.decode_request(line)
    assert request.verb == "watch"
    assert request.args == ["hot", "if", "hot", "==", "3"]
    assert request.session == "s1"
    assert request.id == 7


def test_decode_request_coerces_scalar_args():
    request = protocol.decode_request(
        b'{"verb": "run", "args": [500, 1.5]}\n')
    assert request.args == ["500", "1.5"]


def test_decode_request_accepts_object_args():
    request = protocol.decode_request(
        b'{"verb": "open-session", "args": {"benchmark": "mcf"}}\n')
    assert request.args == {"benchmark": "mcf"}


@pytest.mark.parametrize("line,code", [
    (b"not json at all\n", protocol.BAD_FRAME),
    (b"[1, 2, 3]\n", protocol.BAD_FRAME),
    (b'{"args": []}\n', protocol.BAD_REQUEST),
    (b'{"verb": 7}\n', protocol.BAD_REQUEST),
    (b'{"verb": "launch-missiles"}\n', protocol.UNKNOWN_VERB),
    (b'{"verb": "run", "args": [[1]]}\n', protocol.BAD_REQUEST),
    (b'{"verb": "run", "args": "500"}\n', protocol.BAD_REQUEST),
    (b'{"verb": "run", "session": 9}\n', protocol.BAD_REQUEST),
])
def test_decode_request_rejections(line, code):
    with pytest.raises(protocol.ProtocolError) as excinfo:
        protocol.decode_request(line)
    assert excinfo.value.code == code


def test_request_id_survives_schema_errors():
    with pytest.raises(protocol.ProtocolError) as excinfo:
        protocol.decode_request(b'{"id": 42, "verb": "bogus-verb"}\n')
    assert excinfo.value.request_id == 42


def test_encode_oversized_frame_raises():
    with pytest.raises(protocol.ProtocolError) as excinfo:
        protocol.encode_request("watch", ["x" * protocol.MAX_FRAME_BYTES])
    assert excinfo.value.code == protocol.OVERSIZED_FRAME


def test_reply_shapes():
    ok = protocol.ok_reply(3, "ping", {"pong": True}, text="pong")
    assert protocol.decode_reply(protocol.encode_reply(ok)) == ok
    err = protocol.error_reply(3, protocol.BUSY, "full", session="s1")
    assert err["error"] == {"code": protocol.BUSY, "message": "full",
                            "session": "s1"}
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_reply(b'{"no": "ok-key"}\n')


# -- framing behaviour against a live server -------------------------------


async def _raw_roundtrip(server, payload: bytes) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    try:
        writer.write(payload)
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()


def test_malformed_frame_keeps_connection_alive(tmp_path):
    async def scenario():
        async with running_server(thread_config(tmp_path)) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False
            assert reply["error"]["code"] == protocol.BAD_FRAME
            # The connection survives a malformed frame.
            writer.write(protocol.encode_request("ping", request_id=1))
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] is True
            assert reply["result"]["pong"] is True
            writer.close()

    run_async(scenario())


def test_oversized_frame_replies_then_closes(tmp_path):
    async def scenario():
        config = thread_config(tmp_path, max_frame_bytes=1024)
        async with running_server(config) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b'{"verb": "ping", "pad": "' + b"x" * 4096
                         + b'"}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["error"]["code"] == protocol.OVERSIZED_FRAME
            # Framing is no longer trustworthy: the server hangs up.
            assert await reader.readline() == b""
            writer.close()

    run_async(scenario())


def test_mid_command_disconnect_preserves_session(tmp_path):
    """A client vanishing mid-command must not kill its session."""
    async def scenario():
        async with running_server(thread_config(tmp_path)) as server:
            async with connected(server) as client:
                sid = await client.open_session(asm=count_asm(50))
                await client.command(sid, "watch", ["hot"])
            # First connection: fire a command and hang up without
            # reading the reply.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(protocol.encode_request("run", [], session=sid,
                                                 request_id=1))
            await writer.drain()
            writer.close()
            # Second connection: the session is intact and the command
            # ran — `hot` has advanced to the first watchpoint hit.
            async with connected(server) as client:
                for _ in range(50):
                    value = (await client.command(
                        sid, "print", ["hot"]))["value"]
                    if value == 1:
                        break
                    await asyncio.sleep(0.05)
                assert value == 1
                hits = await client.command(sid, "info", ["watchpoints"])
                assert len(hits["watchpoints"]) == 1

    run_async(scenario())


# -- golden transcript -----------------------------------------------------

_SID = re.compile(r"s\d{5}-[0-9a-f]{8}")
_DIGITS = re.compile(r"\d[\d,]*(?:\.\d+)?")

_PLACEHOLDER_KEYS = {
    "pid": "<pid>",
    "uptime_s": "<float>",
    "shard_cache": "<path>",
    "state_fingerprint": "<fingerprint>",
    "server": "<metrics>",  # info server: timings, wholesale
}


def _normalize(value, key=None):
    if key in _PLACEHOLDER_KEYS and value is not None:
        return _PLACEHOLDER_KEYS[key]
    if isinstance(value, dict):
        return {k: _normalize(v, k) for k, v in sorted(value.items())}
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    if isinstance(value, float):
        return "<float>"
    if isinstance(value, str):
        text = _SID.sub("<sid>", value)
        if key in ("text", "message"):
            # Human renderings quote counts/ratios (and pad them into
            # columns); the structured payload pins the deterministic
            # ones, so the text only needs to keep its shape.
            text = re.sub(r" {2,}", " ", _DIGITS.sub("#", text))
        return text
    return value


#: The scripted session: every protocol verb in a meaningful order.
#: ``None`` session entries are filled with the live session id.
SCRIPT = [
    ("ping", [], False),
    ("open-session", {"asm": count_asm(50), "name": "golden",
                      "backend": "dise", "options": {}}, False),
    ("watch", ["hot"], True),
    ("break", ["loop"], True),
    ("info", ["watchpoints"], True),
    ("info", ["breakpoints"], True),
    ("delete", ["2"], True),
    ("backend", ["dise"], True),
    # History verbs before the first run: the structured no-checkpoint
    # error is part of the wire contract.
    ("last-write", ["hot"], True),
    ("run", [], True),
    ("continue", [], True),
    ("checkpoint", [], True),
    ("continue", [], True),
    ("info", ["checkpoints"], True),
    # Time-travel queries over the recorded history (the scripted
    # session has stopped at hot's stores at 4, 9, and 14).
    ("last-write", ["hot"], True),
    ("first-write", ["hot"], True),
    ("value-at", ["hot", "5"], True),
    ("seek-transition", ["hot", "2"], True),
    ("seek-until", ["hot", ">=", "3"], True),
    ("rewind", ["1"], True),
    ("reverse-continue", [], True),
    ("print", ["hot"], True),
    ("x", ["hot", "2"], True),
    ("overhead", [], True),
    ("info", ["stats"], True),
    ("info", ["backend"], True),
    ("experiment", {"benchmark": "mcf", "kind": "HOT", "backend": "dise",
                    "measure": 2000, "warmup": 1000}, True),
    ("info", ["server"], True),
    # Error replies are part of the contract too.
    ("delete", ["99"], True),
    ("run", ["zillion"], True),
    # gcc never halts: an unbounded measure would wedge the shard.
    ("experiment", {"benchmark": "gcc", "measure": -1}, True),
    ("experiment", {"benchmark": "mcf", "interpreter": "bogus"}, True),
    ("experiment", {"benchmark": "mcf", "measure": 5_000_000}, True),
    ("print", ["hot"], False),  # no session -> no-session
    ("close-session", [], True),
    ("print", ["hot"], True),   # closed session -> no-session
]


async def _record_transcript(tmp_path) -> list[dict]:
    transcript = []
    config = thread_config(tmp_path, workers=1)
    async with running_server(config) as server:
        async with connected(server) as client:
            sid = None
            for verb, args, with_session in SCRIPT:
                session = sid if with_session else None
                request_id = client._next_id()
                client._writer.write(protocol.encode_request(
                    verb, args, session=session, request_id=request_id))
                await client._writer.drain()
                reply = protocol.decode_reply(
                    await client._reader.readline())
                if verb == "open-session" and reply.get("ok"):
                    sid = reply["result"]["session"]
                transcript.append({
                    "request": _normalize({"verb": verb, "args": args,
                                           "session": session}),
                    "reply": _normalize(
                        {k: v for k, v in reply.items() if k != "id"}),
                })
    return transcript


def test_golden_transcript_covers_every_verb(tmp_path):
    scripted = {verb for verb, _, _ in SCRIPT}
    assert protocol.VERBS <= scripted


def test_golden_transcript(tmp_path):
    transcript = run_async(_record_transcript(tmp_path))
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(transcript, indent=1,
                                     sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN}")
    assert GOLDEN.exists(), \
        f"golden file missing; run REPRO_UPDATE_GOLDEN=1 pytest {__file__}"
    golden = json.loads(GOLDEN.read_text())
    assert len(transcript) == len(golden)
    for got, want in zip(transcript, golden):
        assert got == want, \
            f"transcript diverged at {want['request']['verb']!r}"
