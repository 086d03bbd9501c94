"""Corpus conformance: every workload, every tier, every backend.

A corpus entry *conforms* when it is observationally identical across
the full execution matrix — the three interpreter tiers (table, legacy,
compiled) undebugged, and each of the five debugger backends on all
three tiers with a watchpoint on the entry's default target:

* interpreter choice must be invisible: per backend, the legacy and
  compiled runs must match the table run in final architectural state,
  canonical stop sequence, and full ``SimStats``;
* debugging must not perturb the application: every debugged run must
  reproduce the undebugged final state (compared registers, every data
  word, the halt flag);
* all backends must present the same user-visible stop sequence;
* a self-checking workload (the ``programs/*.s`` convention) must halt
  with ``status == 1`` — its own checksum verified — in every run.

Stop sequences are compared only for workloads with
instruction-granularity statement starts (the ``programs/*.s`` files
and promoted fuzz specs): the synthetic benchmarks mark statements
sparsely, so the single-step backend legitimately stops at coarser
points than the trap-per-store mechanisms.  Benchmark entries instead
run to a bounded budget and must agree on final state.

The matrix is the differential fuzz oracle's own
:func:`~repro.fuzz.oracle.run_matrix`, comparison machinery included
(canonical :class:`~repro.fuzz.oracle.Stop` records, recorder-shadowed
watched values, register/state/stats diffing): same matrix, same rules,
a different program source.  :func:`check_entry` supplies the cells —
each runs the entry undebugged or watching the entry's default target —
and the self-check, applied to the undebugged run and to each backend's
reference-tier run as it completes.

:func:`check_entry` builds its entry once and shares that program with
all of its runs.  Sharing is safe because no run changes it: every
backend works on its own :meth:`~repro.isa.program.Program.copy` (the
binary rewriter retargets copies, DISE replaces slots of its copy and
appends to it), and an undebugged machine never calls ``patch_text``; a
store into text only drops cached decode records.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.config import MachineConfig
from repro.cpu.machine import Machine
from repro.debugger.watchpoint import Watchpoint
# Shared with the fuzz oracle by design: conformance runs the
# differential matrix itself, with its exact rules, on corpus workloads.
from repro.fuzz.oracle import (BACKENDS, INTERPRETERS, QUAD, Divergence,
                               RunOutcome, _debugged, _interp_config,
                               _outcome, run_matrix)
from repro.isa.program import Program
from repro.workloads.corpus import Corpus, CorpusEntry, entry_for


@dataclass
class ConformanceReport:
    """Everything :func:`check_entry` observed for one corpus entry."""

    workload: str
    divergences: list[Divergence] = field(default_factory=list)
    runs: int = 0
    stop_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        """Multi-line text rendering used by tests and the smoke job."""
        if self.ok:
            return (f"{self.workload}: OK ({self.runs} runs, "
                    f"{self.stop_count} stops)")
        lines = [f"{self.workload}: {len(self.divergences)} divergence(s) "
                 f"over {self.runs} runs"]
        lines += ["  " + d.describe() for d in self.divergences]
        return "\n".join(lines)


def _data_symbols(program: Program) -> tuple[str, ...]:
    """Names of the data words every run of the entry must agree on."""
    return tuple(sorted(symbol.name for symbol in program.symbols.values()
                        if symbol.kind == "data"))


def _named_state(program: Program, symbols: Sequence[str],
                 memory) -> tuple[tuple[str, int], ...]:
    """Read every named data word (quadword granularity) from memory.

    Addresses come from the *original* program image: data addresses
    are identical across backends because transforms only append.
    Each symbol is one ``read_bytes`` call, unpacked as little-endian
    quadwords.
    """
    out = []
    for name in symbols:
        symbol = program.symbol(name)
        words = max(1, symbol.size // QUAD)
        values = struct.unpack(f"<{words}Q", memory.read_bytes(
            symbol.address, words * QUAD))
        if words == 1:
            out.append((name, values[0]))
        else:
            out.extend((f"{name}+{i * QUAD}", value)
                       for i, value in enumerate(values))
    return tuple(out)


def _run(entry: CorpusEntry, program: Program, symbols: Sequence[str],
         backend_name: Optional[str], interp: str,
         config: Optional[MachineConfig]) -> RunOutcome:
    """One cell of the matrix: ``program`` (``entry`` built) on tier
    ``interp``, undebugged when ``backend_name`` is None, else watching
    the entry's default target under that backend."""
    name = f"{backend_name or 'undebugged'}/{interp}"
    try:
        if backend_name is None:
            machine = Machine(program, _interp_config(config, interp),
                              detailed_timing=False)
            recorder = None
        else:
            watchpoints = [Watchpoint.parse(entry.watch, None, 1)]
            backend, recorder = _debugged(backend_name, program, watchpoints,
                                          [], config, interp)
            machine = backend.machine
        run = machine.run(entry.run_budget())
        return _outcome(name, run, machine,
                        _named_state(program, symbols, machine.memory),
                        recorder)
    except Exception as exc:  # noqa: BLE001 - a crash IS the finding
        return RunOutcome(name=name, error=f"{type(exc).__name__}: {exc}")


def check_entry(entry: Union[CorpusEntry, str], *,
                backends: Sequence[str] = BACKENDS,
                interpreters: Sequence[str] = INTERPRETERS,
                config: Optional[MachineConfig] = None) -> ConformanceReport:
    """Run one corpus entry over the tier x backend matrix and compare.

    The first interpreter listed is the reference tier.  Returns a
    :class:`ConformanceReport`; ``report.ok`` is the verdict.
    """
    if isinstance(entry, str):
        entry = entry_for(entry)
    report = ConformanceReport(workload=entry.name)
    # One build per call, not per process: a ``.s`` file may change on
    # disk between calls.
    program = entry.build()
    symbols = _data_symbols(program)

    def run(backend_name: Optional[str], interp: str) -> RunOutcome:
        report.runs += 1
        return _run(entry, program, symbols, backend_name, interp, config)

    def check_self(backend_name: Optional[str], outcome: RunOutcome) -> None:
        """A self-checking workload must have verified its own checksum."""
        state = dict(outcome.state)
        if outcome.halted and state.get("status") != 1:
            report.divergences.append(Divergence(
                "state", (outcome.name, outcome.name),
                f"self-check failed: status={state.get('status')!r}, "
                f"checksum={state.get('checksum', 0):#x} != "
                f"expect={state.get('expect', 0):#x}"))

    run_matrix(report, run, backends, interpreters,
               compare_stops=entry.source != "benchmark",
               must_halt=entry.budget > 0,
               check=check_self if entry.self_checking else None)
    return report


def check_corpus(corpus, *,
                 backends: Sequence[str] = BACKENDS,
                 interpreters: Sequence[str] = INTERPRETERS,
                 config: Optional[MachineConfig] = None
                 ) -> list[ConformanceReport]:
    """:func:`check_entry` for every entry of ``corpus``, in order."""
    from repro.workloads.corpus import resolve_corpus

    resolved: Corpus = resolve_corpus(corpus)
    return [check_entry(entry, backends=backends,
                        interpreters=interpreters, config=config)
            for entry in resolved.entries]
