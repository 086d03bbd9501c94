"""The repro.api facade."""

import pytest

import repro
from repro.api import debug, experiment, simulate
from repro.errors import WorkloadError
from repro.harness.cache import ResultCache
from repro.harness.experiment import CellSpec
from repro.results import RunResult
from tests.conftest import TINY_SETTINGS, make_watch_loop


def test_simulate_benchmark_by_name():
    result = simulate("bzip2", max_app_instructions=5_000)
    assert isinstance(result, RunResult)
    assert (result.benchmark, result.kind, result.backend) == \
        ("bzip2", "simulate", "undebugged")
    assert result.overhead is None
    assert result.stats.app_instructions == 5_000
    assert result.wall_time > 0


def test_simulate_warmup_resets_stats():
    warm = simulate("bzip2", warmup_instructions=2_000,
                    max_app_instructions=3_000)
    assert warm.stats.app_instructions == 3_000


def test_simulate_accepts_program_object():
    result = simulate(make_watch_loop(), max_app_instructions=100)
    assert result.stats.app_instructions == 100


def test_simulate_rejects_other_types():
    with pytest.raises(WorkloadError):
        simulate(42)


def test_debug_wires_watchpoints_and_breakpoints():
    session = debug(make_watch_loop(), backend="dise",
                    watch=["hot", ("other", "other == 3")],
                    break_at="loop")
    assert [str(wp.expression) for wp in session.watchpoints] == \
        ["hot", "other"]
    assert session.watchpoints[1].is_conditional
    assert len(session.breakpoints) == 1
    result = session.run(max_app_instructions=2_000)
    assert isinstance(result, RunResult)
    assert result.backend == "dise"


def test_debug_single_watch_shorthand():
    session = debug(make_watch_loop(), watch="hot")
    assert len(session.watchpoints) == 1


def test_experiment_grid(tmp_path):
    figure = experiment(benchmarks=["bzip2"], kinds=["HOT", "COLD"],
                        backends=["dise", "single_step"],
                        settings=TINY_SETTINGS,
                        cache=ResultCache(tmp_path / "c"))
    assert len(figure.cells) == 4
    assert figure.report is not None
    assert figure.report.total == 4
    assert all(cell.supported for cell in figure.cells)


def test_experiment_explicit_specs(tmp_path):
    specs = [CellSpec.make("bzip2", "HOT", "dise")]
    figure = experiment(specs=specs, settings=TINY_SETTINGS,
                        cache=ResultCache(tmp_path / "c"))
    assert len(figure.cells) == 1
    assert figure.cells[0].overhead is not None


def test_experiment_corpus_sweep(tmp_path):
    cache = ResultCache(tmp_path / "c")
    figure = experiment(corpus=["fib", "gen:1"], backends=["dise"],
                        cache=cache)
    assert len(figure.cells) == 2
    assert "corpus" in figure.description
    assert {cell.benchmark for cell in figure.cells} == {"fib", "gen:1"}
    assert all(cell.overhead is not None for cell in figure.cells)
    # The sweep is content-addressed: an identical re-run is all-cache.
    warm = experiment(corpus=["fib", "gen:1"], backends=["dise"],
                      cache=cache)
    assert warm.report is not None and warm.report.computed == 0


def test_facade_reexported_from_package_root():
    assert repro.simulate is simulate
    assert repro.debug is debug
    assert repro.experiment is experiment
    assert repro.RunResult is RunResult

