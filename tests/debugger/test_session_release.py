"""A dropped debugging session frees its machine by reference counting.

A backend owns its machine, and nothing the machine holds points back
at the backend strongly: the trap handler and the checkpoint function
hold it weakly, the dispatch table is class-level, and the compiled
tier and the kernel hold the machine weakly.  So the moment a session's
owner drops it, the backend, the machine and its timing model are
freed.  The same holds for the oracle's debugged runs.  Waiting
for the cycle collector instead lets dead sessions pile up, because a
workload that allocates few containers triggers few collections.

Every test here runs with the cycle collector disabled and checks weak
references to each machine, timing model and backend built meanwhile.
"""

from __future__ import annotations

import contextlib
import gc
import weakref

import pytest

from repro.config import MachineConfig
from repro.cpu.machine import Machine
from repro.cpu.timing import TimingModel
from repro.debugger.backends import BACKENDS
from repro.debugger.backends.base import DebuggerBackend
from repro.debugger.dispatcher import CommandDispatcher
from repro.debugger.session import Session
from repro.harness.experiment import (CellSpec, ExperimentSettings,
                                      execute_spec)
from repro.server.client import DebugClient
from repro.server.server import ServerConfig, ServerThread
from repro.workloads import conformance
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.corpus import programs_corpus, system_corpus

#: Stops at 1,140 instructions; the ``continue`` crosses the 10,000-
#: instruction checkpoint boundary, so the script takes a periodic
#: checkpoint, restores one, and runs a timeline query.
SCRIPT = (("watch", ["warm2"]), ("run", ["3000"]), ("continue", ["12000"]),
          ("reverse-continue", []), ("last-write", ["warm2"]))

CASES = ([(name, "table") for name in sorted(BACKENDS)]
         + [("dise", "compiled"), ("dise", "legacy")])


@pytest.fixture
def built(monkeypatch):
    """Weak references to every machine, timing model and backend
    constructed while the test runs."""
    refs: list[weakref.ref] = []
    for cls in (Machine, TimingModel, DebuggerBackend):
        def tracked_init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            refs.append(weakref.ref(self))
        monkeypatch.setattr(cls, "__init__", tracked_init)
    return refs


@contextlib.contextmanager
def _without_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _alive(refs) -> list[str]:
    return sorted(type(obj).__name__ for obj in (ref() for ref in refs)
                  if obj is not None)


@pytest.mark.parametrize("backend,interpreter", CASES)
def test_dropped_dispatcher_frees_its_machine(built, backend, interpreter):
    with _without_cycle_collector():
        dispatcher = CommandDispatcher(
            build_benchmark("bzip2"), backend=backend,
            config=MachineConfig(interpreter=interpreter))
        for verb, args in SCRIPT:
            dispatcher.dispatch(verb, list(args))
        assert {"Machine", "TimingModel"} <= set(_alive(built))
        del dispatcher
        assert _alive(built) == []


def test_finished_harness_cell_frees_its_machines(built):
    settings = ExperimentSettings(measure_instructions=2_000,
                                  warmup_instructions=2_000)
    with _without_cycle_collector():
        execute_spec(CellSpec.make("bzip2", "hot", "dise"), settings)
        assert len(built) >= 3
        assert _alive(built) == []


def test_dropped_multi_process_session_frees_its_machine(built):
    entries = system_corpus()
    with _without_cycle_collector():
        session = Session(entries.entry("yield").build(), backend="dise",
                          processes=[entries.entry("preempt").build()],
                          quantum=2_000)
        session.watch("progress")
        assert session.run().halted
        assert "Machine" in _alive(built)
        del session
        assert _alive(built) == []


def test_conformance_check_frees_its_machines(built):
    """Every debugged run of the oracle's matrix interposes a stop
    recorder on the machine's trap handler; it must not hold the
    backend."""
    entry = programs_corpus().entry("fib")
    with _without_cycle_collector():
        report = conformance.check_entry(entry)
        assert report.ok and report.runs == 18
        assert _alive(built) == []


def test_server_close_session_frees_its_machine(built, tmp_path):
    config = ServerConfig(workers=1, use_processes=False,
                          state_dir=str(tmp_path / "server"),
                          cache_dir=str(tmp_path / "server-cache"))
    with ServerThread(config) as server:
        client = DebugClient("127.0.0.1", server.port)
        try:
            with _without_cycle_collector():
                session = client.open_session(benchmark="bzip2",
                                              backend="dise")
                for verb, args in SCRIPT:
                    client.request(verb, list(args), session=session)
                assert "Machine" in _alive(built)
                client.close_session(session)
                assert _alive(built) == []
        finally:
            client.close()
