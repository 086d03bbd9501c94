"""Benchmark sessions share one program per worker process.

``open-session`` on a benchmark name opens the session on the worker
process's cached instance (``shared_benchmark``).  That is safe only
because every backend appends to or rewrites its own copy: these tests
pin both halves.
"""

import pytest

from repro.debugger.backends import BACKENDS
from repro.server import worker
from repro.workloads import benchmarks


@pytest.fixture
def builds(monkeypatch):
    """Names passed to ``build_benchmark``, starting from a cold cache."""
    calls = []
    build = benchmarks.build_benchmark

    def counted(name):
        calls.append(name)
        return build(name)

    monkeypatch.setattr(benchmarks, "build_benchmark", counted)
    benchmarks.shared_benchmark.cache_clear()
    yield calls
    benchmarks.shared_benchmark.cache_clear()


def _ok(verb, session, args=None):
    reply = worker.handle({"verb": verb, "session": session, "args": args})
    assert reply["ok"], reply
    return reply["result"]


def test_benchmark_sessions_build_the_program_once(builds):
    sessions = [f"program-cache-{i}" for i in range(4)]
    for session in sessions:
        _ok("open-session", session, {"benchmark": "mcf"})
    _ok("open-session", "program-cache-gcc", {"benchmark": "gcc"})
    for session in sessions + ["program-cache-gcc"]:
        _ok("close-session", session)
    assert builds == ["mcf", "gcc"]


def test_backends_leave_the_shared_program_unchanged(builds):
    program = benchmarks.shared_benchmark("bzip2")
    digest = program.content_digest()
    count = len(program.instructions)
    for backend in BACKENDS:
        session = f"program-cache-{backend}"
        opened = _ok("open-session", session, {"benchmark": "bzip2",
                                               "backend": backend})
        assert opened["backend"] == backend
        _ok("watch", session, ["warm1"])
        if backend == "dise":
            _ok("break", session, ["loop_top"])
        _ok("run", session, ["1500"])
        _ok("continue", session, ["1500"])
        _ok("overhead", session, [])
        _ok("close-session", session)
    assert benchmarks.shared_benchmark("bzip2") is program
    assert program.content_digest() == digest
    assert len(program.instructions) == count
    assert builds == ["bzip2"]
