"""A gdb-flavoured interactive shell over the debugging session.

The paper is about "the breakpoint/watchpoint interface presented to
the user by existing interactive debuggers"; this module provides that
interface as a small command interpreter so a session *feels* like the
tool being modeled::

    (dise-db) watch hot if hot == 4096
    Watchpoint 1: watch hot if (hot == 4096)
    (dise-db) break loop_top
    Breakpoint 2: break loop_top
    (dise-db) run
    Watchpoint 1 hit after 3,412 instructions (hot = 4096)
    (dise-db) print hot + warm1
    6096
    (dise-db) info stats
    ...

The verb implementations live in the transport-agnostic
:class:`~repro.debugger.dispatcher.CommandDispatcher`, which is shared
with the session server (:mod:`repro.server`): the shell only parses
lines, resolves abbreviations, and prints each
:class:`~repro.debugger.dispatcher.CommandResult`'s text rendering.
:meth:`DebuggerShell.execute` dispatches one line and returns the
output text, which makes the shell fully scriptable and testable;
:meth:`interact` wraps it in a REPL.  With ``--connect`` the same loop
drives a remote ``repro-server`` session instead of a local machine.

Execution stops at *user transitions* (watchpoint/breakpoint hits whose
conditions pass) — exactly the events the paper's cost model treats as
masked by user interaction.
"""

from __future__ import annotations

import shlex
from typing import Callable, Optional

from repro.config import MachineConfig
from repro.debugger.dispatcher import CommandDispatcher, CommandError
from repro.errors import ReproError
from repro.isa.program import Program


class _BaseShell:
    """Line parsing + REPL loop shared by the local and remote shells."""

    prompt = "(dise-db) "

    def __init__(self):
        self._exited = False

    @property
    def exited(self) -> bool:
        return self._exited

    def _abbreviations(self) -> dict[str, str]:
        from repro.debugger.verbs import alias_map

        return {**alias_map(), "q": "quit"}

    def parse(self, line: str) -> Optional[tuple[str, list[str]]]:
        """Split one input line into (verb, args); None when empty."""
        line = line.strip()
        if not line:
            return None
        parts = shlex.split(line)
        verb = self._abbreviations().get(parts[0], parts[0])
        return verb, parts[1:]

    def execute(self, line: str) -> str:
        """Run one command line; return its output."""
        parsed = self.parse(line)
        if parsed is None:
            return ""
        verb, args = parsed
        try:
            return self.run_verb(verb, args)
        except CommandError as exc:
            return str(exc)
        except ReproError as exc:
            return f"error: {exc}"

    def run_verb(self, verb: str, args: list[str]) -> str:
        raise NotImplementedError

    def interact(self, input_fn=None, output_fn=print) -> None:
        """Run a read-eval-print loop until quit/EOF."""
        if input_fn is None:
            input_fn = input  # resolved per call so tests can stub it
        while not self._exited:
            try:
                line = input_fn(self.prompt)
            except EOFError:
                break
            output = self.execute(line)
            if output:
                output_fn(output)


class DebuggerShell(_BaseShell):
    """Interpret gdb-like commands against a local program."""

    def __init__(self, program: Program, backend: str = "dise",
                 config: Optional[MachineConfig] = None, **backend_options):
        super().__init__()
        self.dispatcher = CommandDispatcher(program, backend=backend,
                                            config=config, **backend_options)
        self.program = program

    # The session and run-state live on the dispatcher; expose them so
    # scripted callers (and the historical attribute names) keep working.

    @property
    def session(self):
        return self.dispatcher.session

    @property
    def _backend_obj(self):
        return self.dispatcher._backend_obj

    @property
    def _controller(self):
        return self.dispatcher._controller

    # -- dispatch ----------------------------------------------------------

    def run_verb(self, verb: str, args: list[str]) -> str:
        """Execute one verb locally (shell command or dispatcher)."""
        handler: Optional[Callable] = getattr(
            self, f"do_{verb.replace('-', '_')}", None)
        if handler is not None:
            return handler(args) or ""
        try:
            return self.dispatcher.dispatch(verb, args).text
        except CommandError as exc:
            if exc.code == "unknown-verb":
                return str(exc)
            raise

    # -- shell-only commands -----------------------------------------------

    def do_help(self, args: list[str]) -> str:
        """help — list commands."""
        return help_text()

    def do_quit(self, args: list[str]) -> str:
        """quit — leave the shell."""
        self._exited = True
        return ""


class RemoteShell(_BaseShell):
    """The same REPL surface, executed on a remote ``repro-server``.

    Every verb is shipped over the newline-delimited JSON session
    protocol through a synchronous :class:`repro.server.client.
    DebugClient`; the server's text rendering is printed verbatim, so a
    remote session reads exactly like a local one.
    """

    def __init__(self, client, benchmark: str, backend: str = "dise",
                 **options):
        super().__init__()
        self.client = client
        self.session_id = client.open_session(
            benchmark=benchmark, backend=backend, options=options)

    def run_verb(self, verb: str, args: list[str]) -> str:
        """Ship one verb to the server; render its reply locally."""
        from repro.server.client import ServerError

        if verb == "help":
            return help_text()
        if verb == "quit":
            self._exited = True
            try:
                self.client.close_session(self.session_id)
            except (ReproError, OSError):
                pass
            return ""
        try:
            reply = self.client.request(verb, args, session=self.session_id)
        except ServerError as exc:
            if exc.code == "unknown-verb":
                # The protocol rejects unknown verbs before dispatch;
                # render them the way the local shell would.
                return f"Undefined command: {verb!r}. Try 'help'."
            if exc.code in ("bad-request", "command-failed",
                            "no-checkpoint"):
                # Dispatcher-level failures render exactly as the local
                # shell would print them.
                return str(exc)
            return f"error [{exc.code}]: {exc}"
        return reply.get("text") or ""


def help_text() -> str:
    """The command listing shown by ``help`` (local or remote) —
    generated from the declarative verb registry."""
    from repro.debugger.verbs import help_lines

    lines = [f"  {line}" for line in help_lines()]
    lines.append("  help — list commands.")
    lines.append("  quit — leave the shell.")
    return "Commands:\n" + "\n".join(sorted(lines))


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point for the ``dise-db`` / ``repro-debug`` scripts."""
    import argparse

    from repro.workloads.benchmarks import BENCHMARK_NAMES, build_benchmark

    parser = argparse.ArgumentParser(
        prog="dise-db",
        description="Interactive (gdb-flavoured) debugger over the "
                    "simulated machine")
    parser.add_argument("benchmark", nargs="?", default="crafty",
                        choices=BENCHMARK_NAMES,
                        help="synthetic benchmark to debug")
    parser.add_argument("--backend", default="dise",
                        help="watchpoint implementation")
    parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                        nargs="?", const="",
                        help="drive a remote repro-server session instead "
                             "of a local machine (omit the value to read "
                             "the address from .repro_server/server.json)")
    args = parser.parse_args(argv)
    if args.connect is not None:
        from repro.server.client import DebugClient

        client = DebugClient.from_address(args.connect or None)
        shell = RemoteShell(client, args.benchmark, backend=args.backend)
        print(f"Debugging {args.benchmark} with the {args.backend} backend "
              f"on {client.address}. Type 'help' for commands.")
        try:
            shell.interact()
        finally:
            client.close()
        return 0
    shell = DebuggerShell(build_benchmark(args.benchmark),
                          backend=args.backend)
    print(f"Debugging {args.benchmark} with the {args.backend} backend. "
          "Type 'help' for commands.")
    shell.interact()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
