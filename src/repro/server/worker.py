"""Worker-side session execution.

One worker owns the :class:`~repro.debugger.dispatcher.CommandDispatcher`
(and therefore the ``Session``/``Machine``) of every session pinned to
it.  In process mode each shard is a single-process
``ProcessPoolExecutor``, so this module's registry is per-OS-process;
in thread mode the shards share one registry, which is still safe
because session ids are globally unique and each shard executor is
single-threaded.

:func:`handle` is the only entry point and it *never raises*: every
failure — a usage error, an over-budget expression, a
:class:`~repro.replay.reverse.ReplayDivergenceError` from a
nondeterministic reverse-continue — is serialized into a structured
error reply (code + message + session id) so a bad command cannot take
down a worker or a connection.  The request envelope carries everything
the worker needs (shard cache directory, budgets), so workers hold no
configuration state that could go stale across pool restarts.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.config import INTERPRETERS
from repro.debugger.dispatcher import (DEFAULT_STEP, CommandDispatcher,
                                       CommandError, check_backend_options)
from repro.errors import ReproError
from repro.replay.reverse import ReplayDivergenceError
from repro.server import protocol

#: Session id -> dispatcher, per worker process.
_DISPATCHERS: dict[str, CommandDispatcher] = {}


def session_count() -> int:
    """How many sessions live in this worker process."""
    return len(_DISPATCHERS)


def reset() -> None:
    """Drop every session (tests and shard restarts)."""
    _DISPATCHERS.clear()


def drop_sessions(session_ids) -> None:
    """Forget specific sessions (thread-mode server shutdown)."""
    for session_id in session_ids:
        _DISPATCHERS.pop(session_id, None)


def handle(envelope: dict) -> dict:
    """Execute one request envelope; always return a reply dict."""
    verb = envelope["verb"]
    session = envelope.get("session")
    try:
        if verb == "open-session":
            return _open_session(envelope)
        if verb == "close-session":
            return _close_session(envelope)
        if verb == "experiment":
            return _experiment(envelope)
        if verb == "_crash" and envelope.get("test_verbs"):
            return _crash(envelope)
        if verb == "_raise" and envelope.get("test_verbs"):
            raise ReplayDivergenceError("injected divergence (test verb)")
        dispatcher = _DISPATCHERS.get(session or "")
        if dispatcher is None:
            return _error(protocol.NO_SESSION,
                          f"no open session {session!r}", session)
        result = dispatcher.dispatch(verb, list(envelope.get("args", [])))
        return _ok(verb, result.data, session=session, text=result.text)
    except CommandError as exc:
        return _error(exc.code, str(exc), session)
    except ReplayDivergenceError as exc:
        return _error(protocol.REPLAY_DIVERGENCE, str(exc), session)
    except ReproError as exc:
        return _error(protocol.COMMAND_FAILED, str(exc), session)
    except Exception as exc:  # noqa: BLE001 - the reply IS the report
        return _error(protocol.INTERNAL, f"{type(exc).__name__}: {exc}",
                      session)


# -- verbs -----------------------------------------------------------------


def _open_session(envelope: dict) -> dict:
    session = envelope["session"]
    args = envelope.get("args") or {}
    if not isinstance(args, dict):
        raise CommandError("open-session args must be an object")
    program = _build_program(args)
    options = args.get("options") or {}
    if not isinstance(options, dict):
        raise CommandError("open-session 'options' must be an object")
    backend = args.get("backend", "dise")
    check_backend_options(backend, options)
    dispatcher = CommandDispatcher(
        program,
        backend=backend,
        record_fingerprints=bool(envelope.get("record_fingerprints", True)),
        default_step=int(envelope.get("default_step", DEFAULT_STEP)),
        **options)
    _DISPATCHERS[session] = dispatcher
    return _ok("open-session",
               {"session": session, "program": program.name,
                "backend": dispatcher.session.backend_name,
                "pid": os.getpid()},
               session=session,
               text=f"Session {session} debugging {program.name} "
                    f"with the {dispatcher.session.backend_name} backend.")


def _build_program(args: dict):
    """The program an ``open-session`` names.  A benchmark is built
    once per worker process and shared by its sessions: every backend
    runs on its own copy, so none of them changes the shared one."""
    from repro.isa import assemble
    from repro.workloads.benchmarks import shared_benchmark

    benchmark = args.get("benchmark")
    asm = args.get("asm")
    if (benchmark is None) == (asm is None):
        raise CommandError(
            "open-session needs exactly one of 'benchmark' or 'asm'")
    if benchmark is not None:
        if not isinstance(benchmark, str):
            raise CommandError("'benchmark' must be a string")
        try:
            return shared_benchmark(benchmark)
        except (KeyError, ReproError) as exc:
            raise CommandError(f"unknown benchmark {benchmark!r}: "
                               f"{exc}") from exc
    if not isinstance(asm, str):
        raise CommandError("'asm' must be a string of assembly source")
    return assemble(asm, name=str(args.get("name", "remote")))


def _close_session(envelope: dict) -> dict:
    session = envelope.get("session")
    dispatcher = _DISPATCHERS.pop(session or "", None)
    if dispatcher is None:
        return _error(protocol.NO_SESSION,
                      f"no open session {session!r}", session)
    return _ok("close-session", {"session": session}, session=session,
               text=f"Session {session} closed.")


def experiment_budgets(args: dict) -> tuple[int, int]:
    """The ``(measure, warmup)`` budgets an experiment asks for.

    Raises :class:`CommandError` (``bad-request``) unless each is a JSON
    integer, the measure positive (a cell measures at least one
    instruction) and the warm-up non-negative.
    """
    budgets = []
    for key, default, least in (("measure", 10_000, 1), ("warmup", 5_000, 0)):
        value = args.get(key, default)
        if type(value) is not int or value < least:
            raise CommandError(f"experiment {key!r} must be an integer "
                               f">= {least}, not {value!r}")
        budgets.append(value)
    return budgets[0], budgets[1]


def _experiment(envelope: dict) -> dict:
    """Run one experiment cell, answered from this worker's cache shard.

    Repeated queries for the same cell identity hit the shard's
    content-addressed store and recompute nothing — the reply's
    ``from_cache`` flag reports which path served it.
    """
    from repro.harness.cache import ResultCache
    from repro.harness.experiment import (CellSpec, ExperimentSettings,
                                          run_spec)

    session = envelope.get("session")
    args = envelope.get("args") or {}
    if not isinstance(args, dict):
        raise CommandError("experiment args must be an object")
    benchmark = args.get("benchmark")
    if not isinstance(benchmark, str):
        raise CommandError("experiment needs a 'benchmark' string")
    options = args.get("options") or {}
    if not isinstance(options, dict):
        raise CommandError("experiment 'options' must be an object")
    # No backend declares an option named like a cell parameter, so the
    # cell's own fields cannot hide in ``options``.
    backend = args.get("backend", "dise")
    check_backend_options(backend, options)
    measure, warmup = experiment_budgets(args)
    interpreter = args.get("interpreter")
    if interpreter is not None and interpreter not in INTERPRETERS:
        raise CommandError(f"unknown interpreter {interpreter!r}; expected "
                           f"one of {', '.join(INTERPRETERS)}")
    spec = CellSpec.make(
        benchmark, str(args.get("kind", "HOT")), backend,
        conditional=bool(args.get("conditional", False)),
        interpreter=interpreter,
        **options)
    settings = ExperimentSettings(measure_instructions=measure,
                                  warmup_instructions=warmup)
    cache = ResultCache(envelope.get("cache_dir"),
                        enabled=envelope.get("cache_dir") is not None)
    result = run_spec(spec, settings, cache=cache)
    return _ok("experiment",
               {"result": result.to_dict(), "from_cache": result.from_cache,
                "shard_cache": envelope.get("cache_dir")},
               session=session,
               text=result.summary()
               + ("\n(served from cache)" if result.from_cache else ""))


def _crash(envelope: dict) -> dict:
    """Test verb: kill the worker (process mode) to exercise recovery."""
    if envelope.get("procs"):
        os._exit(17)
    raise RuntimeError("synthetic worker crash (thread mode)")


# -- reply shaping ---------------------------------------------------------


def _ok(verb: str, result: dict, *, session: Optional[str],
        text: str = "") -> dict:
    return protocol.ok_reply(None, verb, result, session=session, text=text)


def _error(code: str, message: str, session: Optional[str]) -> dict:
    return protocol.error_reply(None, code, message, session=session)
