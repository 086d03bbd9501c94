"""The unified program corpus: one registry over three workload sources.

A *corpus* is an ordered collection of :class:`CorpusEntry` records,
each describing one runnable workload behind a single interface,
regardless of where the program comes from:

* **files** — real ``.s`` assembly workloads under ``programs/``
  (see ``programs/README.md`` for the self-checking conventions),
  assembled through :mod:`repro.isa.assembler`;
* **benchmarks** — the six named synthetic benchmarks of
  :mod:`repro.workloads.benchmarks`;
* **generated** — fuzz :class:`~repro.fuzz.generator.ProgramSpec`\\ s
  promoted to first-class workloads, named ``gen:<seed>`` and rebuilt
  deterministically from the seed.

Entry names are *self-resolving*: :func:`build_workload` turns any
entry name back into a fresh :class:`~repro.isa.program.Program` with
no other state, which is what lets a
:class:`~repro.harness.experiment.CellSpec` carry a corpus workload
into worker processes as a plain string.  Each entry also carries the
built program's content digest — the corpus's contribution to a cell's
cache identity, so editing one ``.s`` file invalidates exactly that
entry's cached cells and nothing else.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.errors import WorkloadError
from repro.fuzz.generator import (ProgramSpec, build_program, dynamic_budget,
                                  generate_spec)
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.workloads.profiles import PROFILES

#: Prefix of promoted-fuzz workload names (``gen:<seed>``).
GENERATED_PREFIX = "gen:"

#: Application-instruction cap for on-disk programs; every shipped
#: workload halts far below it (see programs/README.md).
FILE_BUDGET = 2_000_000

#: Bounded budget used when a corpus sweep or conformance check runs a
#: non-halting (benchmark) entry: long enough to exercise the watch
#: target, short enough to keep full-matrix sweeps fast.
BENCHMARK_BUDGET = 20_000

#: Watch target every ``programs/*.s`` workload provides by convention.
FILE_WATCH = "progress"

#: Named corpora :func:`resolve_corpus` knows how to build.
CORPUS_NAMES = ("programs", "system", "benchmarks", "generated", "full")


def programs_dir() -> Path:
    """The on-disk corpus directory (``REPRO_PROGRAMS_DIR`` overrides)."""
    override = os.environ.get("REPRO_PROGRAMS_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "programs"


def load_program_file(path: Union[str, Path]) -> Program:
    """Assemble one ``.s`` file into a finalized :class:`Program`.

    Every instruction becomes a statement start — the granularity at
    which the single-step backend's stop points coincide with the
    trap-per-store backends' (the same convention the fuzz generator
    uses), which is what makes corpus stop sequences comparable across
    the whole conformance matrix.  The assembler's own label-granularity
    statement marks are too sparse for that: a store whose following
    label is never re-entered (a loop's final iteration) would be
    invisible to single-step but seen by every trapping backend.
    """
    path = Path(path)
    try:
        source = path.read_text()
    except OSError as exc:
        raise WorkloadError(f"cannot read program file {path}: {exc}")
    program = assemble(source, name=path.stem)
    program.statement_starts = set(range(len(program.instructions)))
    return program


def build_workload(name: str) -> Program:
    """Build a fresh :class:`Program` for any corpus-resolvable name.

    Accepted forms, in resolution order:

    * a benchmark name (``"gcc"``) — a fresh synthetic instance;
    * ``gen:<seed>`` — the canonical rendering of the fuzz spec for
      that seed;
    * a ``.s`` path, or the stem of a file under :func:`programs_dir`.

    Always returns a private instance, which the caller may change
    (debugger backends append to or rewrite a copy of it, never the
    instance itself).  Raises :class:`~repro.errors.WorkloadError` for
    names that resolve nowhere.
    """
    if name in PROFILES:
        from repro.workloads.benchmarks import build_benchmark

        return build_benchmark(name)
    if name.startswith(GENERATED_PREFIX):
        return build_program(generate_spec(_generated_seed(name)))
    path = Path(name) if name.endswith(".s") else programs_dir() / f"{name}.s"
    if path.is_file():
        return load_program_file(path)
    raise WorkloadError(
        f"unknown workload {name!r}: not a benchmark "
        f"({', '.join(sorted(PROFILES))}), not '{GENERATED_PREFIX}<seed>', "
        f"and no such .s file under {programs_dir()}")


def _generated_seed(name: str) -> int:
    text = name[len(GENERATED_PREFIX):]
    try:
        return int(text)
    except ValueError:
        raise WorkloadError(
            f"bad generated workload name {name!r}: "
            f"expected '{GENERATED_PREFIX}<seed>' with an integer seed")


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus workload, addressable by name from any process.

    ``name`` resolves through :func:`build_workload`; ``digest`` is the
    built program's :meth:`~repro.isa.program.Program.content_digest`;
    ``watch`` is the default watched expression for experiment cells;
    ``budget`` caps one complete run in application instructions
    (0 = non-halting benchmark, measured under budget-driven settings);
    ``self_checking`` marks programs that verify their own checksum
    into a ``status`` word (the ``programs/*.s`` convention).
    """

    name: str
    source: str  # "file" | "benchmark" | "generated"
    digest: str
    watch: str
    budget: int
    self_checking: bool = False

    def build(self) -> Program:
        """A fresh program instance (sessions may append to it)."""
        return build_workload(self.name)

    def run_budget(self) -> int:
        """The bounded app-instruction budget for one run."""
        return self.budget if self.budget > 0 else BENCHMARK_BUDGET

    def experiment_settings(self):
        """Whole-program settings for halting entries (None = inherit).

        Halting workloads measure the complete run: no warm-up (the
        program would halt inside it, leaving the measured interval
        with zero baseline cycles) and a measure budget covering the
        run, under which the debugged run and the baseline both halt
        at the same application-instruction count.
        """
        if self.budget <= 0:
            return None
        from repro.harness.experiment import ExperimentSettings

        return ExperimentSettings(measure_instructions=self.budget,
                                  warmup_instructions=0)


def file_entry(path: Union[str, Path]) -> CorpusEntry:
    """The corpus entry for one on-disk ``.s`` workload."""
    path = Path(path)
    program = load_program_file(path)
    if path.resolve().parent == programs_dir().resolve():
        name = path.stem  # resolvable from any process by stem
    else:
        name = str(path)
    data_symbols = sorted(s.name for s in program.symbols.values()
                          if s.kind == "data")
    if FILE_WATCH in program.symbols:
        watch = FILE_WATCH
    elif data_symbols:
        watch = data_symbols[0]
    else:
        raise WorkloadError(
            f"corpus program {path} defines no data symbol to watch")
    return CorpusEntry(
        name=name, source="file", digest=program.content_digest(),
        watch=watch, budget=FILE_BUDGET,
        self_checking=("status" in program.symbols
                       and "expect" in program.symbols
                       and "checksum" in program.symbols))


def benchmark_entry(name: str) -> CorpusEntry:
    """The corpus entry for one named synthetic benchmark."""
    from repro.workloads.benchmarks import build_benchmark, watch_expression

    if name not in PROFILES:
        raise WorkloadError(
            f"unknown benchmark {name!r}; choose from "
            f"{', '.join(sorted(PROFILES))}")
    program = build_benchmark(name)
    return CorpusEntry(
        name=name, source="benchmark", digest=program.content_digest(),
        watch=watch_expression("HOT"), budget=0)


def generated_entry(seed: int) -> CorpusEntry:
    """The corpus entry for the fuzz spec generated from ``seed``."""
    return promote_spec(generate_spec(seed))


def promote_spec(spec: ProgramSpec) -> CorpusEntry:
    """Promote a fuzz :class:`ProgramSpec` to a first-class workload.

    Only seed-reproducible specs can be promoted: the entry's name is
    ``gen:<seed>``, which worker processes resolve by regenerating the
    spec from the seed alone — a shrunk or hand-edited spec would
    silently rebuild as a different program.  The spec's rendering
    must therefore match the seed's canonical rendering bit for bit.
    """
    program = build_program(spec)
    canonical = build_program(generate_spec(spec.seed))
    if program.content_digest() != canonical.content_digest():
        raise WorkloadError(
            f"spec for seed {spec.seed} is not seed-reproducible (shrunk "
            f"or edited?); only generate_spec({spec.seed}) renderings can "
            f"be promoted to corpus workloads")
    watch = (spec.watch_vars or sorted(spec.var_init) or ["checksum"])[0]
    return CorpusEntry(
        name=f"{GENERATED_PREFIX}{spec.seed}", source="generated",
        digest=program.content_digest(), watch=watch,
        budget=dynamic_budget(spec))


def entry_for(name: str) -> CorpusEntry:
    """The corpus entry for one self-resolving workload name."""
    if name in PROFILES:
        return benchmark_entry(name)
    if name.startswith(GENERATED_PREFIX):
        return generated_entry(_generated_seed(name))
    path = Path(name) if name.endswith(".s") else programs_dir() / f"{name}.s"
    if path.is_file():
        return file_entry(path)
    raise WorkloadError(
        f"unknown workload {name!r}: not a benchmark, not "
        f"'{GENERATED_PREFIX}<seed>', and no such .s file under "
        f"{programs_dir()}")


@dataclass(frozen=True)
class Corpus:
    """An ordered, named collection of corpus entries."""

    name: str
    entries: tuple[CorpusEntry, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(entry.name for entry in self.entries)

    def entry(self, name: str) -> CorpusEntry:
        """Look one entry up by name."""
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise WorkloadError(
            f"corpus {self.name!r} has no entry {name!r} "
            f"(entries: {', '.join(self.names)})")


def programs_corpus() -> Corpus:
    """Every ``.s`` workload under :func:`programs_dir`, sorted."""
    directory = programs_dir()
    paths = sorted(directory.glob("*.s"))
    if not paths:
        raise WorkloadError(f"no .s programs under {directory}")
    return Corpus("programs", tuple(file_entry(path) for path in paths))


#: Workloads written against the kernel: syscall-driven cooperation
#: and timer-preempted pure compute.  The multi-process conformance
#: and overhead harnesses schedule these against each other.
SYSTEM_PROGRAMS = ("yield", "preempt")


def system_corpus() -> Corpus:
    """The kernel-facing workloads (see :data:`SYSTEM_PROGRAMS`)."""
    directory = programs_dir()
    return Corpus("system", tuple(file_entry(directory / f"{name}.s")
                                  for name in SYSTEM_PROGRAMS))


def benchmark_corpus() -> Corpus:
    """The six named synthetic benchmarks as corpus entries."""
    return Corpus("benchmarks",
                  tuple(benchmark_entry(name) for name in sorted(PROFILES)))


def generated_corpus(size: int = 32, seed: int = 0) -> Corpus:
    """``size`` promoted fuzz specs with seeds ``seed .. seed+size-1``.

    Seeds are consecutive so corpora with overlapping ranges share
    entries — and therefore share cached experiment cells.
    """
    if size <= 0:
        raise WorkloadError("generated corpus size must be positive")
    entries = tuple(generated_entry(seed + i) for i in range(size))
    return Corpus(f"generated[{seed}:{seed + size}]", entries)


def full_corpus(size: int = 32, seed: int = 0) -> Corpus:
    """Files + benchmarks + ``size`` generated entries, in that order."""
    return Corpus("full", (programs_corpus().entries
                           + benchmark_corpus().entries
                           + generated_corpus(size, seed).entries))


def resolve_corpus(corpus, *, size: int = 32, seed: int = 0) -> Corpus:
    """Coerce any corpus-like value to a :class:`Corpus`.

    Accepts a :class:`Corpus`, a single :class:`CorpusEntry`, a named
    corpus (one of :data:`CORPUS_NAMES`; ``size``/``seed`` shape the
    generated leg), a single workload name, or an iterable of entries
    and/or workload names.
    """
    if isinstance(corpus, Corpus):
        return corpus
    if isinstance(corpus, CorpusEntry):
        return Corpus(corpus.name, (corpus,))
    if isinstance(corpus, str):
        if corpus == "programs":
            return programs_corpus()
        if corpus == "system":
            return system_corpus()
        if corpus == "benchmarks":
            return benchmark_corpus()
        if corpus == "generated":
            return generated_corpus(size, seed)
        if corpus == "full":
            return full_corpus(size, seed)
        return Corpus(corpus, (entry_for(corpus),))
    if isinstance(corpus, Iterable):
        entries = tuple(item if isinstance(item, CorpusEntry)
                        else entry_for(str(item)) for item in corpus)
        if not entries:
            raise WorkloadError("empty corpus")
        return Corpus("custom", entries)
    raise WorkloadError(
        f"expected a Corpus, CorpusEntry, corpus name, or iterable of "
        f"workload names, got {type(corpus).__name__}")


def corpus_specs(corpus, backends=None, *, kind: str = "CORPUS",
                 conditional: bool = False, config=None,
                 interpreter: Optional[str] = None) -> list:
    """Expand a corpus into experiment cells, one per (entry, backend).

    Each cell watches the entry's default target, carries the entry's
    content digest in its cache identity, and — for halting entries —
    overrides the grid settings with whole-program budgets (see
    :meth:`CorpusEntry.experiment_settings`).  The corpus is a sweep
    axis like any other: the cells run through the ordinary
    :class:`~repro.harness.runner.Runner` and land in the ordinary
    content-addressed result cache.
    """
    from repro.harness.experiment import CellSpec
    from repro.harness.figures import COMPARED_BACKENDS

    corpus = resolve_corpus(corpus)
    backends = COMPARED_BACKENDS if backends is None else tuple(backends)
    specs = []
    for entry in corpus.entries:
        override = entry.experiment_settings()
        for backend in backends:
            specs.append(CellSpec.make(
                entry.name, kind, backend,
                conditional=conditional,
                watch_expressions=[entry.watch],
                config=config, interpreter=interpreter,
                workload_digest=entry.digest,
                settings_override=override))
    return specs
