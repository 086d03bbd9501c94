"""Analysis helpers: charts and summaries."""

import math

import pytest

from repro.analysis import (backend_geomeans, geomean, render_chart,
                            summarize_figure)
from repro.harness.figures import FigureResult
from repro.results import RunResult


def _result():
    cells = [
        RunResult("bzip2", "HOT", "single_step", 40_000.0,
             spurious_transitions=9000),
        RunResult("bzip2", "HOT", "dise", 1.25),
        RunResult("bzip2", "INDIRECT", "single_step", 39_000.0,
             spurious_transitions=9000),
        RunResult("bzip2", "INDIRECT", "dise", 1.5),
        RunResult("bzip2", "INDIRECT", "hardware", None,
             unsupported_reason="indirect"),
    ]
    return FigureResult("demo", "a demo grid", cells)


class TestGeomean:
    def test_basic(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        assert geomean([2, 2, 2]) == pytest.approx(2.0)

    def test_matches_log_definition(self):
        values = [1.5, 40_000, 7.2]
        expected = math.exp(sum(math.log(v) for v in values) / 3)
        assert geomean(values) == pytest.approx(expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestBackendSummaries:
    def test_aggregation(self):
        summaries = backend_geomeans(_result())
        stepping = summaries["single_step"]
        assert stepping.cells == 2
        assert stepping.geomean_overhead == pytest.approx(
            geomean([40_000, 39_000]))
        assert stepping.spurious_transitions == 18_000
        # A backend with only unsupported cells is dropped entirely.
        assert "hardware" not in summaries

    def test_unsupported_counted(self):
        cells = [RunResult("b", "K", "hw", 2.0),
                 RunResult("b", "J", "hw", None)]
        summary = backend_geomeans(FigureResult("x", "", cells))["hw"]
        assert summary.unsupported == 1

    def test_summary_text(self):
        text = summarize_figure(_result(), baseline_backend="dise")
        assert "single_step" in text
        assert "the geomean overhead of dise" in text


class TestChart:
    def test_renders_groups_and_bars(self):
        text = render_chart(_result())
        assert "bzip2/HOT" in text
        assert "(unsupported)" in text
        assert "#" in text

    def test_log_scaling_orders_bars(self):
        text = render_chart(_result())
        lines = {line.strip().split("|")[0].strip(): line
                 for line in text.splitlines() if "|" in line}
        stepping_bar = lines["single_step"].count("#")
        dise_bar = lines["dise"].count("#")
        assert stepping_bar > 4 * dise_bar

    def test_no_bar_for_unity(self):
        cells = [RunResult("b", "K", "hw", 1.0), RunResult("b", "K", "ss", 1000.0)]
        text = render_chart(FigureResult("x", "", cells))
        hw_line = next(line for line in text.splitlines()
                       if "hw" in line and "|" in line)
        assert "#" not in hw_line

    def test_empty_grid(self):
        result = FigureResult("empty", "", [RunResult("b", "K", "hw", None)])
        assert "no supported cells" in render_chart(result)


class TestPercentile:
    def test_interpolates_linearly(self):
        from repro.analysis import percentile
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile(values, 25) == pytest.approx(1.75)

    def test_order_independent(self):
        from repro.analysis import percentile
        assert percentile([9, 1, 5], 50) == 5

    def test_rejects_empty_and_bad_q(self):
        from repro.analysis import percentile
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestOverheadDistributions:
    def _corpus_result(self):
        cells = [RunResult(f"w{i}", "CORPUS", "dise", 1.0 + 0.1 * i)
                 for i in range(10)]
        cells += [RunResult(f"w{i}", "CORPUS", "single_step", 10_000.0 * (i + 1))
                  for i in range(10)]
        cells.append(RunResult("w0", "CORPUS", "hardware", None,
                          unsupported_reason="x"))
        return FigureResult("corpus", "sweep", cells)

    def test_per_backend_stats(self):
        from repro.analysis import overhead_distributions, percentile
        distributions = overhead_distributions(self._corpus_result())
        dise = distributions["dise"]
        assert dise.count == 10 and dise.unsupported == 0
        assert dise.median == pytest.approx(
            percentile([1.0 + 0.1 * i for i in range(10)], 50))
        assert dise.p95 <= dise.p99 <= dise.max_overhead
        # A backend with only unsupported cells is omitted.
        assert "hardware" not in distributions

    def test_accepts_plain_cell_iterables(self):
        from repro.analysis import overhead_distributions
        cells = [RunResult("a", "K", "dise", 2.0), RunResult("b", "K", "dise", 8.0)]
        dist = overhead_distributions(cells)["dise"]
        assert dist.median == pytest.approx(5.0)
        assert dist.geomean_overhead == pytest.approx(4.0)

    def test_describe_mentions_tail(self):
        from repro.analysis import overhead_distributions
        text = overhead_distributions(
            self._corpus_result())["single_step"].describe()
        assert "median" in text and "p95" in text and "p99" in text


class TestHistogram:
    def test_log_bins_for_wide_spread(self):
        from repro.analysis import render_histogram
        text = render_histogram([1.0, 10.0, 100.0, 100_000.0], bins=5)
        assert "log-spaced bins" in text
        assert text.count("#") > 0

    def test_linear_bins_for_tight_spread(self):
        from repro.analysis import render_histogram
        text = render_histogram([1.0, 1.2, 1.4, 2.0], bins=4)
        assert "linear bins" in text

    def test_counts_cover_every_value(self):
        from repro.analysis import render_histogram
        values = [1.0, 1.5, 2.0, 3.0, 500.0, 40_000.0]
        text = render_histogram(values, bins=6)
        counted = sum(int(line.rsplit(" ", 1)[-1])
                      for line in text.splitlines()
                      if line.strip().endswith(tuple("0123456789"))
                      and "#" in line)
        assert counted == len(values)

    def test_degenerate_inputs(self):
        from repro.analysis import render_histogram
        assert "no values" in render_histogram([], title="empty")
        single = render_histogram([2.5, 2.5, 2.5])
        assert "3" in single


class TestRenderDistribution:
    def test_report_combines_stats_and_histograms(self):
        from repro.harness.report import render_distribution
        cells = [RunResult(f"w{i}", "CORPUS", "dise", 1.0 + i) for i in range(6)]
        cells += [RunResult(f"w{i}", "CORPUS", "single_step", 5_000.0 + i)
                  for i in range(6)]
        text = render_distribution(FigureResult("corpus", "demo", cells))
        assert "overhead distribution per backend" in text
        assert "dise overhead factors" in text
        assert "single_step overhead factors" in text

    def test_empty_result(self):
        from repro.harness.report import render_distribution
        result = FigureResult("corpus", "", [RunResult("w", "K", "hw", None)])
        assert "no supported cells" in render_distribution(result)
