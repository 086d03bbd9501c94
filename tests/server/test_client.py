"""The synchronous client and the ``repro-debug --connect`` passthrough.

A :class:`ServerThread` hosts a live server on a background event loop;
the blocking :class:`DebugClient` and the :class:`RemoteShell` drive it
the way scripts and the remote REPL do.
"""

from __future__ import annotations

import json

import pytest

from repro.debugger.repl import DebuggerShell, RemoteShell, help_text
from repro.errors import ReproError
from repro.server.client import (DebugClient, ServerError, default_address)
from repro.server.server import ServerThread
from repro.workloads.benchmarks import build_benchmark
from tests.server.conftest import count_asm, thread_config


@pytest.fixture
def server(tmp_path):
    with ServerThread(thread_config(tmp_path)) as thread:
        yield thread


def test_sync_client_roundtrip(server):
    with DebugClient("127.0.0.1", server.port) as client:
        assert client.ping()["pong"] is True
        sid = client.open_session(asm=count_asm(50))
        client.command(sid, "watch", ["hot", "if", "hot", "==", "7"])
        stop = client.command(sid, "run", [])
        assert stop["watch_values"][0]["value"] == 7
        client.close_session(sid)


def test_sync_client_server_error_carries_code(server):
    with DebugClient("127.0.0.1", server.port) as client:
        with pytest.raises(ServerError) as excinfo:
            client.command("s99999-deadbeef", "print", ["hot"])
        assert excinfo.value.code == "no-session"
        assert excinfo.value.session == "s99999-deadbeef"


def test_from_address_parses_host_port(server):
    with DebugClient.from_address(f"127.0.0.1:{server.port}") as client:
        assert client.ping()["pong"] is True
    with pytest.raises(ReproError):
        DebugClient.from_address("no-port-here")


def test_default_address_reads_state_file(server, tmp_path):
    host, port = default_address(tmp_path / "repro_server")
    assert (host, port) == ("127.0.0.1", server.port)
    with pytest.raises(ReproError) as excinfo:
        default_address(tmp_path / "nowhere")
    assert "repro-server" in str(excinfo.value)


def test_default_address_refuses_truncated_and_bad_state_files(tmp_path):
    state_file = tmp_path / "server.json"
    valid = json.dumps({"host": "127.0.0.1", "port": 4242, "pid": 7})
    state_file.write_text(valid)
    assert default_address(tmp_path) == ("127.0.0.1", 4242)
    bad = [valid[:cut] for cut in range(len(valid))] + [
        '{"host": "h", "port": 1e999}',  # used to escape as OverflowError
        '{"host": "h", "port": 70000}',  # used to fail later, at connect
        '{"host": "h", "port": -5}',
        '{"host": "h", "port": true}',
        '{"host": "h", "port": 0}',
        '{"host": "h", "port": "4242"}',
        '{"host": 5, "port": 4242}',
        '["h", 4242]']
    for text in bad:
        state_file.write_text(text)
        with pytest.raises(ReproError, match="no running server"):
            default_address(tmp_path)


def test_remote_shell_matches_local_shell(server):
    """The remote REPL prints exactly what the local REPL prints."""
    script = ["watch hot", "b 0x1004", "info watchpoints", "run", "c",
              "rc", "p hot", "x hot 2", "delete 2", "info breakpoints",
              "delete 42", "frobnicate", "help"]
    local = DebuggerShell(build_benchmark("mcf"))
    client = DebugClient("127.0.0.1", server.port)
    try:
        remote = RemoteShell(client, "mcf")
        for line in script:
            assert remote.execute(line) == local.execute(line), line
        remote.execute("quit")
        assert remote.exited
        # quit closed the server-side session.
        with pytest.raises(ServerError):
            client.command(remote.session_id, "print", ["hot"])
    finally:
        client.close()


def test_remote_shell_renders_structured_errors(server):
    client = DebugClient("127.0.0.1", server.port)
    try:
        remote = RemoteShell(client, "mcf")
        # Dispatcher-level failures read exactly like the local shell.
        assert remote.execute("delete 42") == \
            "no watchpoint or breakpoint number 42"
        assert remote.execute("help") == help_text()
        # Server-side codes (impossible locally) keep their tag.
        client.close_session(remote.session_id)
        out = remote.execute("print hot")
        assert out.startswith("error [no-session]:")
    finally:
        client.close()


def test_repro_debug_connect_main(server, capsys):
    """``repro-debug --connect HOST:PORT`` drives a remote session."""
    from repro.debugger.repl import main

    lines = iter(["watch hot", "run 50", "quit"])
    import builtins
    real_input = builtins.input
    builtins.input = lambda prompt="": next(lines)
    try:
        assert main(["mcf", "--connect",
                     f"127.0.0.1:{server.port}"]) == 0
    finally:
        builtins.input = real_input
    out = capsys.readouterr().out
    assert f"on 127.0.0.1:{server.port}" in out
    assert "Watchpoint 1: watch hot" in out
