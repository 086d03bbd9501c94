"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.harness.experiment` -- cell specs and the single-cell
  runner with warm-up handling and baseline caching.
* :mod:`repro.harness.cache` -- the persistent on-disk result cache
  (``.repro_cache/``), keyed by cell identity + code version.
* :mod:`repro.harness.runner` -- the parallel experiment engine
  (:class:`Runner`): cache-aware process-pool fan-out with retry and
  progress telemetry.
* :mod:`repro.harness.tables` -- Table 1 (benchmark summary) and
  Table 2 (watchpoint write frequencies).
* :mod:`repro.harness.figures` -- Figures 3-9.
* :mod:`repro.harness.report` -- text rendering of results.
* :mod:`repro.harness.cli` -- the ``dise-repro`` command-line tool.
"""

from repro.harness.cache import ResultCache, code_version, default_cache
from repro.harness.experiment import (ExperimentSettings, CellSpec,
                                      execute_spec, run_baseline, run_cell,
                                      run_spec, clear_baseline_cache)
from repro.harness.runner import Runner, RunReport
from repro.harness.tables import table1, table2
from repro.harness.figures import (FigureResult, figure3, figure4, figure5,
                                   figure6, figure7, figure8, figure9,
                                   run_figure)

__all__ = [
    "ExperimentSettings",
    "CellSpec",
    "ResultCache",
    "Runner",
    "RunReport",
    "FigureResult",
    "code_version",
    "default_cache",
    "execute_spec",
    "run_baseline",
    "run_cell",
    "run_spec",
    "run_figure",
    "clear_baseline_cache",
    "table1",
    "table2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
]
