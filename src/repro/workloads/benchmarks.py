"""The six named benchmarks and the standard watchpoint set.

The paper selects, per benchmark, six watchpoints: four scalars ranging
from frequently written (HOT) to rarely written (COLD), a pointer
dereference (INDIRECT — same storage as HOT, reached through a
pointer), and a non-scalar (RANGE).  This module maps those names onto
the synthetic programs' watch targets.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import WorkloadError
from repro.isa.program import Program
from repro.workloads.profiles import PROFILES, profile_for
from repro.workloads.synthetic import generate_program

BENCHMARK_NAMES: tuple[str, ...] = tuple(sorted(PROFILES))

WATCHPOINT_KINDS: tuple[str, ...] = (
    "HOT", "WARM1", "WARM2", "COLD", "INDIRECT", "RANGE")

_EXPRESSIONS = {
    "HOT": "hot",
    "WARM1": "warm1",
    "WARM2": "warm2",
    "COLD": "cold",
    "INDIRECT": "*hot_ptr",
    # The whole array (a typical structure/array watch).
    "RANGE": "range_arr[0:]",
}

# A constant no watched expression ever reaches: the paper's Figure 4
# predicate "compares the value of the watched expression to a constant
# it never matches".
NEVER_VALUE = 0x0BAD_F00D_DEAD_BEEF


def build_benchmark(name: str) -> Program:
    """Generate (fresh) the synthetic program for benchmark ``name``."""
    return generate_program(profile_for(name))


def resolve_program(program) -> tuple[Program, str]:
    """Accept any program source; return ``(program, name)``.

    The :mod:`repro.api` entry points take every form the corpus
    unifies: a :class:`Program` instance, a benchmark name, a promoted
    fuzz spec (``gen:<seed>``), a ``.s`` file path (or corpus workload
    stem), or a :class:`~repro.workloads.corpus.CorpusEntry`.  Strings
    build a fresh, private instance via
    :func:`~repro.workloads.corpus.build_workload`.
    """
    # Lazy: the corpus module pulls in the fuzz generator.
    from repro.workloads.corpus import CorpusEntry, build_workload

    if isinstance(program, Program):
        return program, program.name
    if isinstance(program, CorpusEntry):
        return program.build(), program.name
    if isinstance(program, str):
        return build_workload(program), program
    raise WorkloadError(
        f"expected a Program, a CorpusEntry, or a workload name "
        f"(benchmark, 'gen:<seed>', or .s path), "
        f"got {type(program).__name__}")


@lru_cache(maxsize=None)
def shared_benchmark(name: str) -> Program:
    """One cached instance per benchmark and process, for read-only uses.

    Runs mutate machine memory, not the program, and every debugger
    backend appends to or rewrites its own ``program.copy()``, so a
    debug session may share this instance (the server's workers open
    every benchmark session on it, and the harness runs every cell,
    baseline and warm-up prefix on it).  Callers that change a program
    themselves use :func:`build_benchmark` for a private instance.
    """
    return build_benchmark(name)


def watch_expression(kind: str) -> str:
    """The watched-expression text for a watchpoint kind."""
    try:
        return _EXPRESSIONS[kind.upper()]
    except KeyError:
        raise WorkloadError(
            f"unknown watchpoint kind {kind!r}; choose from "
            f"{WATCHPOINT_KINDS}")


def never_true_condition(kind: str) -> str:
    """A predicate on the watched expression that is never true."""
    return f"{watch_expression(kind)} == {NEVER_VALUE}"
