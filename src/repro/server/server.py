"""The asyncio session server.

The event loop owns exactly two things: protocol framing and
admission.  It never simulates — every session is pinned at
``open-session`` time to a *shard* (a single-worker executor:
one ``ProcessPoolExecutor`` process in process mode, one
single-threaded ``ThreadPoolExecutor`` in thread mode), and every
command round-trips through that shard, so a long ``continue`` blocks
only its own shard while the loop keeps serving other sessions.
Commands of one shard serialize behind each other, which is the pinning
contract: a session's machine is only ever touched by its own worker.

Each shard also owns a private slice of the content-addressed result
cache (``<cache base>/server-shard-<i>``, cache base honouring
``REPRO_CACHE_DIR``), so ``experiment`` verbs are answered cache-first
without cross-worker lock traffic.

Worker crashes follow the :mod:`repro.harness.runner` idiom: a
``BrokenProcessPool`` rebuilds the shard's executor, the sessions that
lived in the dead process are reported ``session-lost`` (their state is
gone — replies say so instead of hanging), and stateless verbs
(``experiment``) are retried once on the fresh worker.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
import time
import uuid
import zlib
from concurrent.futures import Executor, ProcessPoolExecutor, \
    ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.debugger.dispatcher import DEFAULT_STEP, CommandError
from repro.harness.cache import write_atomically
from repro.server import protocol, worker
from repro.server.admission import InstructionBudget, TokenBucket
from repro.server.metrics import ServerMetrics


@dataclass
class ServerConfig:
    """Everything the server admits, budgets, and shards by."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off the server
    workers: int = 2
    #: Process shards (the deployment model) vs in-process thread shards
    #: (cheap for tests and single-host smoke runs).
    use_processes: bool = True
    max_sessions: int = 256
    #: Optional open-rate refill (tokens/s) on top of the concurrency cap.
    open_rate_per_s: Optional[float] = None
    #: Per-command cap on requested application instructions.
    max_command_instructions: int = 5_000_000
    default_step: int = DEFAULT_STEP
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    #: Runtime state directory (bound-address file, default cache shards).
    state_dir: str = ".repro_server"
    #: Cache shard base; default honours REPRO_CACHE_DIR, else state_dir.
    cache_dir: Optional[str] = None
    record_fingerprints: bool = True
    #: Gate for the ``_crash``/``_raise`` fault-injection verbs (tests).
    enable_test_verbs: bool = False

    def shard_cache_base(self) -> Path:
        """Directory the per-worker cache shards live under."""
        if self.cache_dir is not None:
            return Path(self.cache_dir)
        env = os.environ.get("REPRO_CACHE_DIR")
        if env:
            return Path(env)
        return Path(self.state_dir) / "cache"


class _Shard:
    """One pinned worker: an executor plus the sessions living in it."""

    def __init__(self, index: int, config: ServerConfig):
        self.index = index
        self.config = config
        self.cache_dir = str(config.shard_cache_base()
                             / f"server-shard-{index}")
        self.sessions: set[str] = set()
        self.executor: Executor = self._make_executor()

    def _make_executor(self) -> Executor:
        if self.config.use_processes:
            return ProcessPoolExecutor(max_workers=1)
        return ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{self.index}")

    def rebuild(self) -> set[str]:
        """Replace a broken executor; return the sessions that died."""
        lost, self.sessions = self.sessions, set()
        self.executor.shutdown(wait=False, cancel_futures=True)
        self.executor = self._make_executor()
        return lost

    def shutdown(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)


@dataclass
class _SessionEntry:
    shard: _Shard
    opened_at: float = field(default_factory=time.monotonic)


class DebugServer:
    """Multiplex concurrent interactive debug sessions over shards."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.metrics = ServerMetrics()
        self.budget = TokenBucket(self.config.max_sessions,
                                  self.config.open_rate_per_s)
        self.instruction_budget = InstructionBudget(
            self.config.max_command_instructions)
        self.shards = [_Shard(i, self.config)
                       for i in range(max(1, self.config.workers))]
        self.sessions: dict[str, _SessionEntry] = {}
        self._session_counter = itertools.count(1)
        self._server: Optional[asyncio.base_events.Server] = None
        self._state_file: Optional[Path] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"{self.config.host}:{self.port}"

    async def start(self) -> "DebugServer":
        """Bind and start accepting connections (returns immediately)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=self.config.max_frame_bytes)
        self._write_state_file()
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled (the ``repro-server`` main loop)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener, shut shards down, drop the state file."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for shard in self.shards:
            shard.shutdown()
        if not self.config.use_processes:
            # Thread shards share this process's session registry;
            # drop our sessions so stopped servers do not leak state.
            worker.drop_sessions(list(self.sessions))
        self.sessions.clear()
        if self._state_file is not None:
            try:
                self._state_file.unlink()
            except OSError:
                pass

    def _write_state_file(self) -> None:
        state_dir = Path(self.config.state_dir)
        state_file = state_dir / "server.json"
        try:
            state_dir.mkdir(parents=True, exist_ok=True)
            write_atomically(state_file, json.dumps(
                {"host": self.config.host, "port": self.port,
                 "pid": os.getpid()}).encode())
            self._state_file = state_file
        except OSError:
            self._state_file = None  # read-only cwd: serve without it

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Server shutdown with the client still connected: exit the
            # handler cleanly (a cancelled task parked in readline is
            # otherwise logged by asyncio.streams as an error).
            pass
        finally:
            # close() is fire-and-forget on purpose: awaiting
            # wait_closed() here leaves the handler task parked when
            # the loop shuts down.
            writer.close()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Frame exceeded the read limit: framing is no
                    # longer trustworthy, so reply and hang up.
                    self.metrics.frame_errors += 1
                    await self._send(writer, protocol.encode_reply(
                        protocol.error_reply(
                            None, protocol.OVERSIZED_FRAME,
                            f"frame exceeds {self.config.max_frame_bytes} "
                            f"bytes")))
                    break
                if not line:
                    break  # EOF
                if not line.strip():
                    continue
                self.metrics.frames += 1
                await self._send(writer, await self._handle_line(line))
        except (ConnectionResetError, BrokenPipeError):
            pass  # mid-command disconnect: the session stays open

    async def _send(self, writer: asyncio.StreamWriter,
                    frame: bytes) -> None:
        try:
            writer.write(frame)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client left mid-reply; the command already ran

    async def _handle_line(self, line: bytes) -> bytes:
        """One request line in, one reply frame out (always)."""
        started = time.perf_counter()
        try:
            request = protocol.decode_request(line)
        except protocol.ProtocolError as exc:
            self.metrics.frame_errors += 1
            request = protocol.Request("<frame>",
                                       id=getattr(exc, "request_id", None))
            reply = protocol.error_reply(request.id, exc.code, str(exc))
        else:
            reply = await self._handle_request(request)
            reply["id"] = request.id
        try:
            frame = protocol.encode_reply(reply)
        except protocol.ProtocolError as exc:
            # The reply does not fit one frame.  Framing in both
            # directions is intact, so say so and keep the connection.
            reply = protocol.error_reply(
                request.id, exc.code, f"reply not sent: {exc}",
                session=request.session)
            frame = protocol.encode_reply(reply)
        self.metrics.record(request.verb, time.perf_counter() - started,
                            bool(reply.get("ok")))
        return frame

    # -- request handling --------------------------------------------------

    async def _handle_request(self, request: protocol.Request) -> dict:
        verb = request.verb
        if verb == "ping":
            return protocol.ok_reply(
                None, "ping",
                {"pong": True, "uptime_s":
                 time.monotonic() - self.metrics.started},
                text="pong")
        if verb == "info" and list(request.args)[:1] == ["server"]:
            return self._info_server(request)
        if verb == "open-session":
            return await self._open_session(request)
        if verb == "close-session":
            return await self._close_session(request)
        if verb == "experiment":
            return await self._experiment(request)
        return await self._session_command(request)

    def _info_server(self, request: protocol.Request) -> dict:
        snapshot = self.metrics.snapshot(open_sessions=len(self.sessions),
                                         workers=len(self.shards))
        return protocol.ok_reply(
            None, "info", {"topic": "server", "server": snapshot},
            session=request.session,
            text=self.metrics.render(open_sessions=len(self.sessions),
                                     workers=len(self.shards)))

    async def _open_session(self, request: protocol.Request) -> dict:
        if not self.budget.try_acquire():
            self.metrics.sessions_rejected += 1
            return protocol.error_reply(
                None, protocol.BUSY,
                f"session budget exhausted "
                f"({self.config.max_sessions} concurrent sessions)")
        shard = min(self.shards, key=lambda s: len(s.sessions))
        session_id = f"s{next(self._session_counter):05d}-" \
                     f"{uuid.uuid4().hex[:8]}"
        reply = await self._run_in_shard(shard, request, session_id)
        if reply.get("ok"):
            shard.sessions.add(session_id)
            self.sessions[session_id] = _SessionEntry(shard)
            self.metrics.sessions_opened += 1
        else:
            self.budget.release()
        return reply

    async def _close_session(self, request: protocol.Request) -> dict:
        entry = self.sessions.get(request.session or "")
        if entry is None:
            return protocol.error_reply(
                None, protocol.NO_SESSION,
                f"no open session {request.session!r}",
                session=request.session)
        reply = await self._run_in_shard(entry.shard, request,
                                         request.session)
        if reply.get("ok") or \
                reply.get("error", {}).get("code") == protocol.SESSION_LOST:
            self._forget_session(request.session)
        return reply

    async def _experiment(self, request: protocol.Request) -> dict:
        """Route a stateless experiment cell to a cache shard.

        A session pins the cell to its own shard (cache affinity with
        whatever that worker already computed); session-free requests
        hash the cell identity so repeats land on the same shard and
        are answered from its cache without recomputation.  Budgets are
        checked here, before any shard queues the cell: a malformed one
        is ``bad-request``, one past the per-command cap ``over-budget``.
        """
        if isinstance(request.args, dict):
            try:
                asked = sum(worker.experiment_budgets(request.args))
            except CommandError as exc:
                return protocol.error_reply(None, exc.code, str(exc),
                                            session=request.session)
            rejection = self.instruction_budget.check("experiment", asked)
            if rejection is not None:
                return protocol.error_reply(None, protocol.OVER_BUDGET,
                                            rejection,
                                            session=request.session)
        entry = self.sessions.get(request.session or "")
        if entry is not None:
            shard = entry.shard
        else:
            digest = zlib.crc32(json.dumps(
                request.args, sort_keys=True, default=repr).encode())
            shard = self.shards[digest % len(self.shards)]
        return await self._run_in_shard(shard, request, request.session)

    async def _session_command(self, request: protocol.Request) -> dict:
        entry = self.sessions.get(request.session or "")
        if entry is None:
            return protocol.error_reply(
                None, protocol.NO_SESSION,
                f"no open session {request.session!r} "
                f"(open-session first)", session=request.session)
        if request.verb in protocol.BUDGET_VERBS and \
                isinstance(request.args, list):
            rejection = self.instruction_budget.admit(request.verb,
                                                      request.args)
            if rejection is not None:
                return protocol.error_reply(None, protocol.OVER_BUDGET,
                                            rejection,
                                            session=request.session)
        return await self._run_in_shard(entry.shard, request,
                                        request.session)

    def _forget_session(self, session_id: Optional[str]) -> None:
        entry = self.sessions.pop(session_id or "", None)
        if entry is not None:
            entry.shard.sessions.discard(session_id)
            self.budget.release()
            self.metrics.sessions_closed += 1

    # -- shard round-trips -------------------------------------------------

    def _envelope(self, shard: _Shard, request: protocol.Request,
                  session_id: Optional[str]) -> dict:
        return {
            "verb": request.verb,
            "args": request.args,
            "session": session_id,
            "cache_dir": shard.cache_dir,
            "procs": self.config.use_processes,
            "test_verbs": self.config.enable_test_verbs,
            "record_fingerprints": self.config.record_fingerprints,
            "default_step": self.instruction_budget.clamp_default(
                self.config.default_step),
        }

    async def _run_in_shard(self, shard: _Shard,
                            request: protocol.Request,
                            session_id: Optional[str]) -> dict:
        envelope = self._envelope(shard, request, session_id)
        loop = asyncio.get_running_loop()
        # `experiment` holds no session state, so it survives a worker
        # crash with one retry on the rebuilt shard — the crash-retry
        # idiom of harness.Runner.  Stateful verbs cannot be retried
        # (the machine died with the worker); they report session-lost.
        for attempt in (0, 1):
            try:
                return await loop.run_in_executor(
                    shard.executor, worker.handle, envelope)
            except BrokenProcessPool:
                lost = shard.rebuild()
                for dead in lost:
                    if dead in self.sessions:
                        del self.sessions[dead]
                        self.budget.release()
                        self.metrics.sessions_lost += 1
                if request.verb == "experiment" and attempt == 0:
                    continue
                return protocol.error_reply(
                    None, protocol.SESSION_LOST,
                    f"worker {shard.index} crashed; "
                    f"{len(lost)} session(s) lost", session=session_id)
            except Exception as exc:  # noqa: BLE001 - keep the loop alive
                return protocol.error_reply(
                    None, protocol.INTERNAL,
                    f"{type(exc).__name__}: {exc}", session=session_id)


class ServerThread:
    """Run a :class:`DebugServer` on a background event loop.

    The bridge the synchronous world (tests, ``repro-debug --connect``
    round-trip tests) uses to stand up a live server::

        with ServerThread(ServerConfig(use_processes=False)) as server:
            client = DebugClient("127.0.0.1", server.port)
    """

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.server: Optional[DebugServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-server")

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self.server = DebugServer(self.config)
        self._loop.run_until_complete(self.server.start())
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
