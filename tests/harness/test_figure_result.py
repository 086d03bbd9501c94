"""FigureResult query helpers and formatting."""

from repro.harness.figures import FigureResult, format_figure, _fmt
from repro.results import RunResult


def _result():
    return FigureResult("demo", "description", [
        RunResult("bzip2", "HOT", "dise", 1.25, user_transitions=5),
        RunResult("bzip2", "HOT", "hardware", 120.0),
        RunResult("bzip2", "RANGE", "hardware", None,
             unsupported_reason="non-scalar"),
    ])


def test_cell_lookup():
    result = _result()
    cell = result.cell(benchmark="bzip2", kind="HOT", backend="dise")
    assert cell.user_transitions == 5
    assert result.cell(benchmark="gcc") is None


def test_overhead_lookup():
    result = _result()
    assert result.overhead(backend="dise") == 1.25
    assert result.overhead(benchmark="bzip2", kind="RANGE",
                           backend="hardware") is None
    assert result.overhead(backend="nonexistent") is None


def test_format_figure_layout():
    text = format_figure(_result())
    lines = text.splitlines()
    assert lines[0].startswith("demo: description")
    assert "dise" in lines[1] and "hardware" in lines[1]
    assert "--" in text  # unsupported cell
    assert "1.25" in text


def test_number_formatting():
    assert _fmt(0.98) == "0.98"
    assert _fmt(42.345) == "42.3"
    assert _fmt(40_000.4) == "40,000"


def test_supported_property():
    result = _result()
    assert result.cells[0].supported
    assert not result.cells[2].supported
