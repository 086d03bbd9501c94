"""Report rendering helpers."""

from repro.harness.figures import FigureResult
from repro.harness.report import headline_summary
from repro.results import RunResult


def _fig3_like():
    cells = []
    for bench in ("bzip2", "twolf"):
        cells.append(RunResult(bench, "HOT", "single_step", 30_000.0))
        cells.append(RunResult(bench, "HOT", "dise", 1.2))
        cells.append(RunResult(bench, "COLD", "single_step", 40_000.0))
        cells.append(RunResult(bench, "COLD", "dise", 1.1))
    return FigureResult("figure3", "demo", cells)


def test_headline_summary():
    text = headline_summary(_fig3_like())
    assert "single-stepping slowdown" in text
    assert "30,000x - 40,000x" in text
    assert "DISE overhead" in text
