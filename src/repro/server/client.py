"""Sync and asyncio clients for the session protocol.

:class:`AsyncDebugClient` is the native client (the storm benchmark and
the CI smoke drive it); :class:`DebugClient` wraps a blocking socket
for synchronous callers — scripts, tests, and the ``repro-debug
--connect`` REPL passthrough.  Both speak the newline-delimited JSON
protocol of :mod:`repro.server.protocol` and raise :class:`ServerError`
(carrying the structured error code) for error replies, so callers
never parse failure text.
"""

from __future__ import annotations

import asyncio
import json
import socket
from pathlib import Path
from typing import Any, Optional, Union

from repro.errors import ReproError
from repro.server import protocol


class ServerError(ReproError):
    """An error reply from the server (``code`` is the wire code)."""

    def __init__(self, code: str, message: str,
                 session: Optional[str] = None):
        super().__init__(message)
        self.code = code
        self.session = session

    @classmethod
    def from_reply(cls, reply: dict) -> "ServerError":
        error = reply.get("error") or {}
        return cls(error.get("code", protocol.INTERNAL),
                   error.get("message", "unknown server error"),
                   error.get("session"))


def _check(reply: dict) -> dict:
    if not reply.get("ok"):
        raise ServerError.from_reply(reply)
    return reply


def default_address(state_dir: Union[str, Path] = ".repro_server"
                    ) -> tuple[str, int]:
    """The address of the server whose state file lives in ``state_dir``."""
    state_file = Path(state_dir) / "server.json"
    try:
        state = json.loads(state_file.read_text())
        host, port = state["host"], state["port"]
        # bool is an int subclass: ``"port": true`` is refused too.
        if (not isinstance(host, str) or type(port) is not int
                or not 1 <= port <= 65535):
            raise ValueError(f"bad address {host!r}:{port!r}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ReproError(
            f"no running server found via {state_file} "
            f"(start one with repro-server, or pass HOST:PORT)") from exc
    return host, port


class _RequestMixin:
    """Session-verb conveniences shared by both clients."""

    def _next_id(self) -> int:
        self._counter = getattr(self, "_counter", 0) + 1
        return self._counter

    @staticmethod
    def _match(reply: dict, request_id: int) -> dict:
        # Replies come back in request order per connection; the id
        # check catches a desynchronized stream early.
        if reply.get("id") not in (None, request_id):
            raise ReproError(
                f"protocol desync: reply id {reply.get('id')!r} for "
                f"request {request_id}")
        return reply


class DebugClient(_RequestMixin):
    """Blocking client over one TCP connection."""

    def __init__(self, host: str, port: int, *, timeout: float = 60.0):
        self.address = f"{host}:{port}"
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    @classmethod
    def from_address(cls, address: Optional[str] = None, *,
                     timeout: float = 60.0) -> "DebugClient":
        """Connect to ``HOST:PORT``, or to the state-file default."""
        if address:
            host, _, port = address.rpartition(":")
            if not host or not port.isdigit():
                raise ReproError(f"bad server address {address!r} "
                                 f"(expected HOST:PORT)")
            return cls(host, int(port), timeout=timeout)
        host, port = default_address()
        return cls(host, port, timeout=timeout)

    def request(self, verb: str, args: Union[list, dict, None] = None, *,
                session: Optional[str] = None) -> dict:
        """One request/reply round trip; raises :class:`ServerError`."""
        request_id = self._next_id()
        self._file.write(protocol.encode_request(
            verb, args, session=session, request_id=request_id))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ReproError("server closed the connection")
        return _check(self._match(protocol.decode_reply(line), request_id))

    def open_session(self, *, benchmark: Optional[str] = None,
                     asm: Optional[str] = None, backend: str = "dise",
                     name: Optional[str] = None,
                     options: Optional[dict] = None) -> str:
        """Open a session on a benchmark or asm source; return its id."""
        args: dict[str, Any] = {"backend": backend,
                                "options": options or {}}
        if benchmark is not None:
            args["benchmark"] = benchmark
        if asm is not None:
            args["asm"] = asm
        if name is not None:
            args["name"] = name
        reply = self.request("open-session", args)
        return reply["result"]["session"]

    def close_session(self, session: str) -> dict:
        """Close one session (its worker-side state is dropped)."""
        return self.request("close-session", session=session)

    def command(self, session: str, verb: str,
                args: Optional[list] = None) -> dict:
        """A session verb's ``result`` payload."""
        return self.request(verb, args or [], session=session)["result"]

    def ping(self) -> dict:
        """Liveness probe; returns the server's uptime."""
        return self.request("ping")["result"]

    def close(self) -> None:
        """Close the connection (open sessions stay on the server)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "DebugClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncDebugClient(_RequestMixin):
    """asyncio client over one connection (used by the storm bench)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncDebugClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_FRAME_BYTES)
        return cls(reader, writer)

    async def request(self, verb: str,
                      args: Union[list, dict, None] = None, *,
                      session: Optional[str] = None) -> dict:
        """One request/reply round trip; raises :class:`ServerError`."""
        request_id = self._next_id()
        self._writer.write(protocol.encode_request(
            verb, args, session=session, request_id=request_id))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ReproError("server closed the connection")
        return _check(self._match(protocol.decode_reply(line), request_id))

    async def open_session(self, *, benchmark: Optional[str] = None,
                           asm: Optional[str] = None,
                           backend: str = "dise",
                           name: Optional[str] = None,
                           options: Optional[dict] = None) -> str:
        """Open a session on a benchmark or asm source; return its id."""
        args: dict[str, Any] = {"backend": backend,
                                "options": options or {}}
        if benchmark is not None:
            args["benchmark"] = benchmark
        if asm is not None:
            args["asm"] = asm
        if name is not None:
            args["name"] = name
        reply = await self.request("open-session", args)
        return reply["result"]["session"]

    async def close_session(self, session: str) -> dict:
        """Close one session (its worker-side state is dropped)."""
        return await self.request("close-session", session=session)

    async def command(self, session: str, verb: str,
                      args: Optional[list] = None) -> dict:
        """A session verb's ``result`` payload."""
        return (await self.request(verb, args or [],
                                   session=session))["result"]

    async def close(self) -> None:
        """Close the connection (open sessions stay on the server)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def __aenter__(self) -> "AsyncDebugClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
