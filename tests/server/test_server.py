"""End-to-end session-server behaviour.

Everything here goes through real sockets.  Thread shards keep the
suite fast; the worker-crash tests build process shards because that is
the failure mode they exercise.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.debugger.dispatcher import (MAX_DUMP_QUADS, CommandDispatcher,
                                       check_backend_options)
from repro.isa import assemble
from repro.server import protocol, worker
from repro.server.client import ServerError
from repro.server.server import DebugServer, ServerConfig
from tests.server.conftest import (connected, count_asm, run_async,
                                   running_server, thread_config)


def test_open_run_inspect_close(server_config):
    async def scenario():
        async with running_server(server_config) as server:
            async with connected(server) as client:
                sid = await client.open_session(asm=count_asm(50))
                await client.command(sid, "watch",
                                     ["hot", "if", "hot", "==", "3"])
                stop = await client.command(sid, "run", [])
                assert stop["stopped_at_user"] is True
                assert stop["watch_values"][0]["value"] == 3
                assert (await client.command(sid, "print",
                                             ["hot"]))["value"] == 3
                done = await client.command(sid, "continue", [])
                assert done["halted"] is True
                await client.close_session(sid)
                with pytest.raises(ServerError) as excinfo:
                    await client.command(sid, "print", ["hot"])
                assert excinfo.value.code == protocol.NO_SESSION

    run_async(scenario())


def test_sessions_on_one_worker_are_isolated(tmp_path):
    """Two sessions pinned to the same worker share nothing."""
    async def scenario():
        config = thread_config(tmp_path, workers=1)
        async with running_server(config) as server:
            async with connected(server) as client:
                a = await client.open_session(asm=count_asm(50), name="a")
                b = await client.open_session(asm=count_asm(50), name="b")
                assert a != b
                await client.command(a, "watch", ["hot"])
                await client.command(a, "run", [])
                await client.command(a, "checkpoint", [])
                # B sees none of A's debug state...
                info = await client.command(b, "info", ["watchpoints"])
                assert info["watchpoints"] == []
                info = await client.command(b, "info", ["checkpoints"])
                assert info["checkpoints"] == []
                # ...nor its machine state: A stopped at hot == 1,
                # B's machine has not run at all.
                assert (await client.command(a, "print",
                                             ["hot"]))["value"] == 1
                assert (await client.command(b, "print",
                                             ["hot"]))["value"] == 0
                # Advancing B leaves A parked at its stop.
                await client.command(b, "run", ["200"])
                assert (await client.command(a, "print",
                                             ["hot"]))["value"] == 1

    run_async(scenario())


def test_admission_busy_and_release(tmp_path):
    async def scenario():
        config = thread_config(tmp_path, max_sessions=1)
        async with running_server(config) as server:
            async with connected(server) as client:
                sid = await client.open_session(asm=count_asm(10))
                with pytest.raises(ServerError) as excinfo:
                    await client.open_session(asm=count_asm(10))
                assert excinfo.value.code == protocol.BUSY
                assert "budget" in str(excinfo.value)
                assert server.metrics.sessions_rejected == 1
                # Closing the session returns its admission token.
                await client.close_session(sid)
                sid2 = await client.open_session(asm=count_asm(10))
                assert sid2 != sid

    run_async(scenario())


def test_failed_open_returns_admission_token(tmp_path):
    async def scenario():
        config = thread_config(tmp_path, max_sessions=1)
        async with running_server(config) as server:
            async with connected(server) as client:
                with pytest.raises(ServerError) as excinfo:
                    await client.open_session(benchmark="no-such-bench")
                assert excinfo.value.code == protocol.BAD_REQUEST
                # The rejected open must not leak the only token.
                sid = await client.open_session(asm=count_asm(10))
                assert sid

    run_async(scenario())


#: Backend options a remote client may not send: (open-session options,
#: or None) and (``backend`` verb arguments, or None).
BAD_OPTIONS = (
    ({"quantum": -1}, None),
    ({"quantum": "5"}, None),
    ({"quantum": True}, None),
    ({"detailed_timing": "no"}, None),
    ({"processes": ["gcc"]}, None),
    ({"warm_checkpoint": 3}, None),
    ({"config": "x"}, None),
    ({"default_step": 5}, None),
    ({"record_fingerprints": True}, None),
    ({"backend": "hardware"}, None),
    (None, ["dise", "quantum=-1"]),
    (None, ["dise", "detailed_timing=no"]),
    (None, ["hardware", "config=x"]),
)


def test_wire_backend_options_are_bad_requests(server_config):
    """Options arriving from outside are checked before any session or
    backend is built: each case is a bad request that leaves the
    worker's session count, and an open session's backend, unchanged."""
    async def scenario():
        async with running_server(server_config) as server:
            async with connected(server) as client:
                sid = await client.open_session(asm=count_asm(10))
                for options, verb_args in BAD_OPTIONS:
                    sessions = worker.session_count()
                    with pytest.raises(ServerError) as excinfo:
                        if options is not None:
                            await client.open_session(asm=count_asm(10),
                                                      options=options)
                        else:
                            await client.command(sid, "backend", verb_args)
                    assert excinfo.value.code == protocol.BAD_REQUEST, \
                        (options, verb_args)
                    assert worker.session_count() == sessions
                info = await client.command(sid, "info", ["backend"])
                assert (info["backend"], info["options"]) == ("dise", {})
                assert (await client.command(sid, "run"))["halted"]

    run_async(scenario())


#: Backend names and options a backend does not declare: (verb, the
#: backend name, its options).
UNDECLARED = (
    ("open-session", "nosuch", {}),
    ("backend", "nosuch", {}),
    ("experiment", "nosuch", {}),
    ("open-session", "hardware", {"num_registers": "x"}),
    ("open-session", "binary_rewrite", {"scratch_registers": "ab"}),
    ("open-session", "binary_rewrite", {"scratch_registers": [27, 27]}),
    ("open-session", "binary_rewrite", {"scratch_registers": [31, 31]}),
    ("open-session", "binary_rewrite", {"scratch_registers": [30, 27]}),
    ("open-session", "dise", {"bogus": 1}),
    ("open-session", "dise", {"multi_strategy": 7}),
    ("open-session", "binary_rewrite", {"spill_mode": "yes"}),
    ("backend", "hardware", {"check": "match-address"}),
    ("experiment", "dise", {"bogus": 1}),
)


@pytest.mark.parametrize("verb, backend, options", UNDECLARED)
def test_undeclared_backends_and_options_are_bad_requests(verb, backend,
                                                          options):
    """Each backend declares the options it reads; anything else from
    the wire is refused before a session or cell is built."""
    sid = "undeclared-options"
    args = {"asm": count_asm(10), "backend": backend, "options": options}
    if verb == "backend":
        assert worker.handle({"verb": "open-session", "session": sid,
                              "args": {"asm": count_asm(10)}})["ok"]
        args = [backend, *(f"{key}={value}"
                           for key, value in options.items())]
    elif verb == "experiment":
        args = {"benchmark": "mcf", "measure": 100, "backend": backend,
                "options": options}
    sessions = worker.session_count()
    try:
        reply = worker.handle({"verb": verb, "session": sid, "args": args})
        assert reply["error"]["code"] == protocol.BAD_REQUEST, reply
        assert worker.session_count() == sessions
    finally:
        worker.handle({"verb": "close-session", "session": sid})


@pytest.mark.parametrize("backend, options", (
    ("binary_rewrite", {"scratch_registers": [9, 28], "spill_mode": True}),
    ("binary_rewrite", {"scratch_registers": [28, 27]}),
    ("dise", {"multi_strategy": "serial", "protect": True}),
    ("hardware", {"num_registers": 2, "quantum": 0})))
def test_declared_options_pass_the_check(backend, options):
    check_backend_options(backend, options)


def test_over_budget_command(server_config):
    async def scenario():
        async with running_server(server_config) as server:
            async with connected(server) as client:
                sid = await client.open_session(asm=count_asm(50))
                limit = server.config.max_command_instructions
                with pytest.raises(ServerError) as excinfo:
                    await client.command(sid, "run", [str(limit * 2)])
                assert excinfo.value.code == protocol.OVER_BUDGET
                assert excinfo.value.session == sid
                # A within-budget command still works afterwards.
                result = await client.command(sid, "run", ["10000"])
                assert result["halted"] is True

    run_async(scenario())


#: ``hot`` counts as in ``count_asm``, beside a 24,000-byte array whose
#: printed bytes cannot fit one frame.
BIG_ASM = count_asm(50).replace(".data\n", ".data\nbig: .space 24000\n", 1)

#: Arguments from the wire and the coded reply each must end in.
#: ``"²"`` is a digit to ``str.isdigit`` that ``int`` refuses, and
#: ``int`` refuses more than 4,300 digits.
BAD_ARGUMENTS = (
    ("x", ["hot", "abc"], protocol.BAD_REQUEST),
    ("x", ["hot", "1e3"], protocol.BAD_REQUEST),
    ("x", ["hot", "²"], protocol.BAD_REQUEST),
    ("x", ["hot", "2000"], protocol.BAD_REQUEST),
    ("x", ["hot", "99999999999999999999999"], protocol.BAD_REQUEST),
    ("break", ["0x"], protocol.BAD_REQUEST),
    ("break", ["0x1g"], protocol.BAD_REQUEST),
    ("break", ["0123"], protocol.BAD_REQUEST),
    ("break", ["²"], protocol.BAD_REQUEST),
    ("delete", ["²"], protocol.BAD_REQUEST),
    ("continue", ["²"], protocol.BAD_REQUEST),
    ("continue", ["9" * 5000], protocol.BAD_REQUEST),
    ("rewind", ["²"], protocol.BAD_REQUEST),
    ("seek-transition", ["hot", "²"], protocol.BAD_REQUEST),
    ("value-at", ["hot", "²"], protocol.BAD_REQUEST),
    ("print", ["big[0:24000]"], protocol.OVERSIZED_FRAME),
)


@pytest.mark.parametrize("verb, args, code", BAD_ARGUMENTS,
                         ids=lambda value: str(value)[:24])
def test_bad_arguments_end_in_coded_replies(tmp_path, verb, args, code):
    """Each case gets an error reply with its code, the request id and
    the session; the call counts as an error, and the same connection
    then serves a full-page ``x`` dump in one frame."""
    async def scenario():
        async with running_server(thread_config(tmp_path)) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port, limit=protocol.MAX_FRAME_BYTES)

            async def request(request_id, verb, args, session=None):
                writer.write(protocol.encode_request(
                    verb, args, session=session, request_id=request_id))
                await writer.drain()
                return protocol.decode_reply(await reader.readline())

            try:
                opened = await request(1, "open-session", {"asm": BIG_ASM})
                sid = opened["result"]["session"]
                assert (await request(2, "run", ["20"], sid))["ok"]
                reply = await request(3, verb, args, sid)
                assert (reply["ok"], reply["id"]) == (False, 3)
                assert (reply["error"]["code"],
                        reply["error"]["session"]) == (code, sid)
                assert server.metrics.verbs[verb].errors == 1
                dump = await request(4, "x", ["hot", str(MAX_DUMP_QUADS)],
                                     sid)
                assert (dump["ok"], dump["id"]) == (True, 4)
                assert len(dump["result"]["words"]) == MAX_DUMP_QUADS
            finally:
                writer.close()

    run_async(scenario())


def test_replay_divergence_is_a_structured_reply(tmp_path):
    async def scenario():
        config = thread_config(tmp_path, enable_test_verbs=True)
        async with running_server(config) as server:
            async with connected(server) as client:
                sid = await client.open_session(asm=count_asm(10))
                with pytest.raises(ServerError) as excinfo:
                    await client.request("_raise", [], session=sid)
                assert excinfo.value.code == protocol.REPLAY_DIVERGENCE
                assert excinfo.value.session == sid
                # The worker and the connection both survive.
                assert (await client.command(sid, "print",
                                             ["hot"]))["value"] == 0

    run_async(scenario())


def test_test_verbs_gated_off_by_default(server_config):
    async def scenario():
        async with running_server(server_config) as server:
            async with connected(server) as client:
                sid = await client.open_session(asm=count_asm(10))
                with pytest.raises(ServerError) as excinfo:
                    await client.request("_raise", [], session=sid)
                # Without the gate the worker treats it as an unknown
                # dispatcher verb, not an injected fault.
                assert excinfo.value.code == protocol.UNKNOWN_VERB

    run_async(scenario())


def test_experiment_is_served_cache_first(server_config):
    async def scenario():
        async with running_server(server_config) as server:
            async with connected(server) as client:
                args = {"benchmark": "mcf", "kind": "HOT",
                        "backend": "dise", "measure": 2000, "warmup": 1000}
                cold = (await client.request("experiment", args))["result"]
                assert cold["from_cache"] is False
                assert "server-shard-" in cold["shard_cache"]
                warm = (await client.request("experiment", args))["result"]
                assert warm["from_cache"] is True
                assert warm["result"] == cold["result"]

    run_async(scenario())


def test_experiment_rejects_malformed_cells(tmp_path):
    """Budgets must be JSON integers, tiers exact names and options
    backend options: nothing is coerced into a cell the client did not
    ask for."""
    async def scenario():
        config = thread_config(tmp_path, max_command_instructions=10_000)
        async with running_server(config) as server:
            async with connected(server) as client:
                for extra, code in (
                        ({"measure": "2000"}, protocol.BAD_REQUEST),
                        ({"warmup": 1.5}, protocol.BAD_REQUEST),
                        ({"measure": True}, protocol.BAD_REQUEST),
                        ({"measure": 0}, protocol.BAD_REQUEST),
                        ({"measure": 100, "interpreter": "Compiled"},
                         protocol.BAD_REQUEST),
                        ({"measure": 100, "interpreter": 42},
                         protocol.BAD_REQUEST),
                        # Backend options are checked as at open-session,
                        # and the cell's own parameters cannot hide in
                        # them.
                        *(({"measure": 100, "options": options},
                           protocol.BAD_REQUEST) for options in (
                            {"quantum": -1}, {"processes": ["gcc"]},
                            {"config": 5}, {"detailed_timing": "no"},
                            {"settings_override": 3}, {"conditional": True},
                            {"interpreter": "compiled"}, {"label": "x"},
                            {"watch_expressions": ["hot"]},
                            {"workload_digest": "0"}, {"kind": "COLD"},
                            {"benchmark": "gcc"}, {"cls": 1})),
                        # The default budgets (10,000 + 5,000) count.
                        ({}, protocol.OVER_BUDGET)):
                    with pytest.raises(ServerError) as excinfo:
                        await client.request("experiment",
                                             {"benchmark": "mcf", **extra})
                    assert excinfo.value.code == code, extra
                # A declared option is accepted.
                reply = await client.request(
                    "experiment", {"benchmark": "mcf", "measure": 100,
                                   "options": {"multi_strategy": "serial"}})
                assert reply["result"]["result"]["backend"] == "dise"

    run_async(scenario())


def test_experiment_shards_honour_cache_dir(tmp_path):
    async def scenario():
        base = tmp_path / "explicit_cache"
        config = thread_config(tmp_path, cache_dir=str(base))
        async with running_server(config) as server:
            async with connected(server) as client:
                args = {"benchmark": "mcf", "kind": "HOT",
                        "backend": "dise", "measure": 2000, "warmup": 1000}
                reply = (await client.request("experiment", args))["result"]
                assert reply["shard_cache"].startswith(str(base))
        assert any(base.glob("server-shard-*/**/*"))

    run_async(scenario())


def test_reverse_continue_matches_local_bit_for_bit(tmp_path):
    """The wire adds nothing: remote reverse-continue re-lands the same
    stop (ordinal, pc, state fingerprint) as the same script run
    locally."""
    asm = count_asm(50)
    script = [("watch", ["hot"]),
              ("run", []), ("continue", []), ("continue", []),
              ("rewind", ["2"]), ("reverse-continue", [])]

    local = CommandDispatcher(assemble(asm, name="local"),
                              record_fingerprints=True)
    local_stops = [local.dispatch(verb, args).data.get("stop")
                   for verb, args in script]

    async def scenario():
        async with running_server(thread_config(tmp_path)) as server:
            async with connected(server) as client:
                sid = await client.open_session(asm=asm, name="remote")
                stops = []
                for verb, args in script:
                    result = await client.command(sid, verb, args)
                    stops.append(result.get("stop"))
                return stops

    remote_stops = run_async(scenario())
    assert remote_stops[-1] is not None
    for local_stop, remote_stop in zip(local_stops, remote_stops):
        assert local_stop == remote_stop
    assert remote_stops[-1]["state_fingerprint"] == \
        local_stops[-1]["state_fingerprint"]


def test_info_server_metrics(server_config):
    async def scenario():
        async with running_server(server_config) as server:
            async with connected(server) as client:
                sid = await client.open_session(asm=count_asm(50))
                await client.command(sid, "watch", ["hot"])
                await client.command(sid, "run", [])
                reply = await client.request("info", ["server"])
                snapshot = reply["result"]["server"]
                assert snapshot["sessions"]["open"] == 1
                assert snapshot["sessions"]["opened"] == 1
                assert snapshot["workers"] == 2
                verbs = snapshot["verbs"]
                for verb in ("open-session", "watch", "run"):
                    assert verbs[verb]["count"] == 1
                    assert verbs[verb]["p99_ms"] >= 0
                assert "open-session" in reply["text"]

    run_async(scenario())


def test_concurrent_clients_multiplex(server_config):
    """Many clients with interleaved commands all make progress."""
    async def one_client(server, index):
        async with connected(server) as client:
            sid = await client.open_session(asm=count_asm(20 + index),
                                            name=f"c{index}")
            await client.command(sid, "watch",
                                 ["hot", "if", "hot", "==", "1"])
            stop = await client.command(sid, "run", [])
            assert stop["watch_values"][0]["value"] == 1
            done = await client.command(sid, "continue", ["100000"])
            assert done["halted"] is True
            value = (await client.command(sid, "print", ["hot"]))["value"]
            assert value == 20 + index
            await client.close_session(sid)

    async def scenario():
        async with running_server(server_config) as server:
            await asyncio.gather(*(one_client(server, i)
                                   for i in range(8)))
            assert server.metrics.sessions_opened == 8
            assert server.metrics.sessions_closed == 8
            assert not server.sessions

    run_async(scenario())


def test_state_file_lifecycle(tmp_path):
    async def scenario():
        config = thread_config(tmp_path)
        server = await DebugServer(config).start()
        state = tmp_path / "repro_server" / "server.json"
        assert state.exists()
        import json
        recorded = json.loads(state.read_text())
        assert recorded["port"] == server.port
        await server.stop()
        assert not state.exists()

    run_async(scenario())


# -- process-mode crash recovery -------------------------------------------


@pytest.mark.slow
def test_worker_crash_recovery_process_mode(tmp_path):
    """A dying worker process loses its sessions but not the server."""
    async def scenario():
        config = ServerConfig(
            use_processes=True, workers=1, enable_test_verbs=True,
            state_dir=str(tmp_path / "repro_server"),
            cache_dir=str(tmp_path / "server_cache"))
        async with running_server(config) as server:
            async with connected(server) as client:
                sid = await client.open_session(asm=count_asm(10))
                with pytest.raises(ServerError) as excinfo:
                    await client.request("_crash", [], session=sid)
                assert excinfo.value.code == protocol.SESSION_LOST
                assert server.metrics.sessions_lost == 1
                # The dead session is gone...
                with pytest.raises(ServerError) as no_session:
                    await client.command(sid, "print", ["hot"])
                assert no_session.value.code == protocol.NO_SESSION
                # ...but the shard was rebuilt and serves new sessions.
                sid2 = await client.open_session(asm=count_asm(10))
                result = await client.command(sid2, "run", ["100"])
                assert result["halted"] is True

    run_async(scenario())


@pytest.mark.slow
def test_experiment_retries_once_after_crash(tmp_path):
    """Stateless verbs follow the harness crash-retry idiom."""
    async def scenario():
        config = ServerConfig(
            use_processes=True, workers=1, enable_test_verbs=True,
            state_dir=str(tmp_path / "repro_server"),
            cache_dir=str(tmp_path / "server_cache"))
        async with running_server(config) as server:
            async with connected(server) as client:
                sid = await client.open_session(asm=count_asm(10))
                with pytest.raises(ServerError):
                    await client.request("_crash", [], session=sid)
                # The very next experiment lands on the rebuilt worker.
                args = {"benchmark": "mcf", "kind": "HOT",
                        "backend": "dise", "measure": 2000,
                        "warmup": 1000}
                reply = (await client.request("experiment",
                                              args))["result"]
                assert reply["result"]["backend"] == "dise"

    run_async(scenario())
