"""Reproductions of the paper's Figures 3-9.

Each ``figureN`` function expands the corresponding experiment grid
into :class:`~repro.harness.experiment.CellSpec` cells (see the
``figureN_specs`` builders), runs them through the parallel engine
(:class:`~repro.harness.runner.Runner` — pass ``runner=`` to control
worker count, caching, and progress reporting; the default runs
serially in-process), and returns a :class:`FigureResult`;
``format_figure(result)`` renders it as text.  Overheads are execution
time normalized to the undebugged baseline, exactly as the paper plots
them (log scale in Figures 3/4/6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import DEFAULT_CONFIG
from repro.harness.experiment import CellSpec, ExperimentSettings
from repro.harness.runner import Runner, RunReport
from repro.results import RunResult
from repro.workloads.benchmarks import BENCHMARK_NAMES

SCALAR_KINDS = ("HOT", "WARM1", "WARM2", "COLD")
ALL_KINDS = SCALAR_KINDS + ("INDIRECT", "RANGE")
COMPARED_BACKENDS = ("single_step", "virtual_memory", "hardware", "dise")

# Paper Figure 6 configuration.
FIG6_BENCHMARKS = ("crafty", "gcc", "vortex")
FIG6_COUNTS = (1, 2, 3, 4, 5, 8, 16)
# The many-watchpoint sets draw from the multi bank: plain scalars
# whose writes always change values, so the hardware registers look as
# good as they ever can below their capacity (matching the paper's
# near-free hardware bars at 1-4 watchpoints) and the VM fallback's
# page sharing dominates beyond it.
FIG6_WATCH_ORDER = [f"multi{i}" for i in range(16)]

# Paper Figure 7 configuration.
FIG7_BENCHMARKS = ("bzip2", "mcf", "twolf")
FIG7_VARIANTS = (
    # (label, check, conditional_isa)
    ("MA/EE +ccall", "match-address", True),
    ("EE/-- +ctrap", "evaluate-expression", True),
    ("MAV/-- +ctrap", "match-address-value", True),
    ("MA/EE -ccall", "match-address", False),
    ("EE/-- -ctrap", "evaluate-expression", False),
    ("MAV/-- -ctrap", "match-address-value", False),
)


@dataclass
class FigureResult:
    """The outcome of one figure's experiment grid."""

    name: str
    description: str
    cells: list[RunResult]
    row_keys: tuple[str, ...] = ()  # how to group rows when formatting
    column_label: str = "backend"
    report: Optional[RunReport] = None  # telemetry of the producing run

    def cell(self, **criteria) -> Optional[RunResult]:
        """First cell whose attributes match all ``criteria``."""
        for cell in self.cells:
            if all(getattr(cell, key) == value
                   for key, value in criteria.items()):
                return cell
        return None

    def overhead(self, **criteria) -> Optional[float]:
        """Shorthand: the matching cell's overhead (None if absent)."""
        cell = self.cell(**criteria)
        return cell.overhead if cell else None


def run_figure(name: str, description: str, specs: Sequence[CellSpec],
               settings: Optional[ExperimentSettings] = None, *,
               runner: Optional[Runner] = None) -> FigureResult:
    """Run a grid of cell specs through the (given or serial) engine."""
    runner = runner or Runner(workers=0)
    cells = runner.run(specs, settings=settings)
    return FigureResult(name, description, cells,
                        report=runner.last_report)


def figure3_specs(benchmarks: Sequence[str] = BENCHMARK_NAMES,
                  kinds: Sequence[str] = ALL_KINDS) -> list[CellSpec]:
    """The Figure 3 grid: benchmarks x kinds x compared backends."""
    return [
        CellSpec.make(bench, kind, backend)
        for bench in benchmarks
        for kind in kinds
        for backend in COMPARED_BACKENDS
    ]


def figure3(settings: Optional[ExperimentSettings] = None,
            benchmarks: Sequence[str] = BENCHMARK_NAMES,
            kinds: Sequence[str] = ALL_KINDS, *,
            runner: Optional[Runner] = None) -> FigureResult:
    """Figure 3: four implementations of single unconditional
    watchpoints across benchmarks and watchpoint kinds."""
    return run_figure(
        "figure3",
        "Comparison of four unconditional watchpoint implementations "
        "(execution time normalized to baseline; log scale)",
        figure3_specs(benchmarks, kinds), settings, runner=runner)


def figure4_specs(benchmarks: Sequence[str] = BENCHMARK_NAMES,
                  kinds: Sequence[str] = ALL_KINDS) -> list[CellSpec]:
    """The Figure 4 grid: Figure 3 with never-true conditions."""
    return [
        CellSpec.make(bench, kind, backend, conditional=True)
        for bench in benchmarks
        for kind in kinds
        for backend in COMPARED_BACKENDS
    ]


def figure4(settings: Optional[ExperimentSettings] = None,
            benchmarks: Sequence[str] = BENCHMARK_NAMES,
            kinds: Sequence[str] = ALL_KINDS, *,
            runner: Optional[Runner] = None) -> FigureResult:
    """Figure 4: the same grid with a never-true condition attached."""
    return run_figure(
        "figure4",
        "Comparison of four conditional watchpoint implementations "
        "(predicate never true)",
        figure4_specs(benchmarks, kinds), settings, runner=runner)


def figure5_specs(benchmarks: Sequence[str] = BENCHMARK_NAMES
                  ) -> list[CellSpec]:
    """The Figure 5 grid: DISE vs binary rewriting on COLD."""
    specs = []
    for bench in benchmarks:
        specs.append(CellSpec.make(bench, "COLD", "dise"))
        specs.append(CellSpec.make(bench, "COLD", "binary_rewrite"))
    return specs


def figure5(settings: Optional[ExperimentSettings] = None,
            benchmarks: Sequence[str] = BENCHMARK_NAMES, *,
            runner: Optional[Runner] = None) -> FigureResult:
    """Figure 5: DISE vs static binary rewriting on COLD watchpoints.

    Binary rewriting's inlined checks inflate the static image and
    degrade I-cache behaviour for large-footprint benchmarks.
    """
    return run_figure(
        "figure5",
        "DISE vs binary rewriting, COLD watchpoint (I-cache effects)",
        figure5_specs(benchmarks), settings, runner=runner)


def figure6_specs(benchmarks: Sequence[str] = FIG6_BENCHMARKS,
                  counts: Sequence[int] = FIG6_COUNTS) -> list[CellSpec]:
    """The Figure 6 grid: 1-16 watchpoints, four mechanisms."""
    specs = []
    for bench in benchmarks:
        for count in counts:
            expressions = FIG6_WATCH_ORDER[:count]
            specs.append(CellSpec.make(
                bench, f"N={count}", "hardware",
                watch_expressions=expressions))
            for label, strategy in (("dise-serial", "serial"),
                                    ("dise-bloom-byte", "bloom-byte"),
                                    ("dise-bloom-bit", "bloom-bit")):
                specs.append(CellSpec.make(
                    bench, f"N={count}", "dise",
                    watch_expressions=expressions, label=label,
                    multi_strategy=strategy))
    return specs


def figure6(settings: Optional[ExperimentSettings] = None,
            benchmarks: Sequence[str] = FIG6_BENCHMARKS,
            counts: Sequence[int] = FIG6_COUNTS, *,
            runner: Optional[Runner] = None) -> FigureResult:
    """Figure 6: 1-16 watchpoints.

    Hardware registers (VM fallback beyond four) vs three DISE
    replacement-sequence strategies: serial address match, bytewise
    Bloom, bitwise Bloom.
    """
    return run_figure(
        "figure6",
        "Impact of the number of watchpoints (hardware+VM fallback vs "
        "DISE serial / bytewise-Bloom / bitwise-Bloom)",
        figure6_specs(benchmarks, counts), settings, runner=runner)


def figure7_specs(benchmarks: Sequence[str] = FIG7_BENCHMARKS,
                  kinds: Sequence[str] = SCALAR_KINDS) -> list[CellSpec]:
    """The Figure 7 grid: six DISE replacement organizations."""
    return [
        CellSpec.make(bench, kind, "dise", label=label, check=check,
                      conditional_isa=cond_isa)
        for bench in benchmarks
        for kind in kinds
        for label, check, cond_isa in FIG7_VARIANTS
    ]


def figure7(settings: Optional[ExperimentSettings] = None,
            benchmarks: Sequence[str] = FIG7_BENCHMARKS,
            kinds: Sequence[str] = SCALAR_KINDS, *,
            runner: Optional[Runner] = None) -> FigureResult:
    """Figure 7: six DISE replacement-sequence organizations.

    {Match-Address/Evaluate-Expression, Evaluate-Expression/--,
    Match-Address-Value/--} x {with, without} the conditional
    call/trap DISE-ISA extension.
    """
    return run_figure(
        "figure7",
        "Alternate DISE implementations (top: with conditional "
        "call/trap; bottom: without)",
        figure7_specs(benchmarks, kinds), settings, runner=runner)


def figure8_specs(benchmarks: Sequence[str] = BENCHMARK_NAMES,
                  kinds: Sequence[str] = SCALAR_KINDS) -> list[CellSpec]:
    """The Figure 8 grid: DISE with and without multithreaded calls."""
    mt_config = DEFAULT_CONFIG.with_(multithreaded_dise_calls=True)
    specs = []
    for bench in benchmarks:
        for kind in kinds:
            specs.append(CellSpec.make(bench, kind, "dise"))
            specs.append(CellSpec.make(bench, kind, "dise", label="dise-mt",
                                       config=mt_config))
    return specs


def figure8(settings: Optional[ExperimentSettings] = None,
            benchmarks: Sequence[str] = BENCHMARK_NAMES,
            kinds: Sequence[str] = SCALAR_KINDS, *,
            runner: Optional[Runner] = None) -> FigureResult:
    """Figure 8: multithreaded execution of DISE-called functions."""
    return run_figure(
        "figure8",
        "DISE overhead with and without multithreaded function calls",
        figure8_specs(benchmarks, kinds), settings, runner=runner)


def figure9_specs(benchmarks: Sequence[str] = BENCHMARK_NAMES
                  ) -> list[CellSpec]:
    """The Figure 9 grid: plain vs protected DISE, COLD watchpoint."""
    specs = []
    for bench in benchmarks:
        specs.append(CellSpec.make(bench, "COLD", "dise"))
        specs.append(CellSpec.make(bench, "COLD", "dise",
                                   label="dise-protected", protect=True))
    return specs


def figure9(settings: Optional[ExperimentSettings] = None,
            benchmarks: Sequence[str] = BENCHMARK_NAMES, *,
            runner: Optional[Runner] = None) -> FigureResult:
    """Figure 9: cost of protecting the debugger's embedded structures
    (COLD watchpoint; the Figure 2f store-checking production)."""
    return run_figure(
        "figure9",
        "Cost of protecting debugger structures (COLD watchpoint)",
        figure9_specs(benchmarks), settings, runner=runner)


def format_figure(result: FigureResult) -> str:
    """Render a figure's cells as an aligned text table."""
    backends = []
    for cell in result.cells:
        if cell.backend not in backends:
            backends.append(cell.backend)
    rows: dict[tuple[str, str], dict[str, RunResult]] = {}
    for cell in result.cells:
        rows.setdefault((cell.benchmark, cell.kind), {})[cell.backend] = cell
    width = max(len(b) for b in backends) + 2
    lines = [result.name + ": " + result.description,
             f"{'bench':8s} {'watch':10s}"
             + "".join(f"{b:>{width}s}" for b in backends)]
    for (bench, kind), by_backend in rows.items():
        cells = []
        for backend in backends:
            cell = by_backend.get(backend)
            if cell is None or cell.overhead is None:
                cells.append(f"{'--':>{width}s}")
            else:
                cells.append(f"{_fmt(cell.overhead):>{width}s}")
        lines.append(f"{bench:8s} {kind:10s}" + "".join(cells))
    return "\n".join(lines)


def _fmt(overhead: float) -> str:
    if overhead >= 1000:
        return f"{overhead:,.0f}"
    if overhead >= 10:
        return f"{overhead:.1f}"
    return f"{overhead:.2f}"
