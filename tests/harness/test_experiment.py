"""Experiment runner: cells, baselines, unsupported combinations."""

from repro.harness.experiment import ExperimentSettings, run_baseline, run_cell


def test_baseline_cached(tiny_settings):
    first = run_baseline("bzip2", tiny_settings)
    second = run_baseline("bzip2", tiny_settings)
    assert first is second


def test_baseline_executes_requested_budget(tiny_settings):
    result = run_baseline("mcf", tiny_settings)
    assert result.stats.app_instructions == \
        tiny_settings.measure_instructions


def test_cell_overhead_at_least_one(tiny_settings):
    cell = run_cell("bzip2", "COLD", "dise", settings=tiny_settings)
    assert cell.supported
    assert cell.overhead >= 0.95  # tiny jitter allowed, but ~>=1


def test_unsupported_combination(tiny_settings):
    cell = run_cell("bzip2", "INDIRECT", "hardware", settings=tiny_settings)
    assert not cell.supported
    assert cell.overhead is None
    assert "indirect" in cell.unsupported_reason


def test_conditional_cell(tiny_settings):
    cell = run_cell("bzip2", "HOT", "dise", conditional=True,
                    settings=tiny_settings)
    assert cell.conditional
    assert cell.user_transitions == 0  # never-true predicate
    assert cell.spurious_transitions == 0  # DISE evaluates in-app


def test_watch_expression_override(tiny_settings):
    cell = run_cell("crafty", "N=2", "dise", settings=tiny_settings,
                    watch_expressions=["hot", "warm1"])
    assert cell.supported
    assert cell.kind == "N=2"


def test_interpreter_axis_is_sweepable_and_cycle_identical(tiny_settings):
    """``interpreter=`` is a cell axis: distinct cache identity per
    tier, identical measured overhead (tiers agree cycle-for-cycle)."""
    from repro.harness.experiment import CellSpec

    cells = {interp: run_cell("mcf", "HOT", "dise", settings=tiny_settings,
                              interpreter=interp)
             for interp in ("table", "legacy", "compiled")}
    overheads = {c.overhead for c in cells.values()}
    assert len(overheads) == 1, cells
    payloads = [CellSpec.make("mcf", "HOT", "dise", interpreter=interp)
                .cache_payload(tiny_settings)
                for interp in ("table", "legacy", "compiled")]
    assert len({str(p) for p in payloads}) == 3


def test_settings_scaling():
    settings = ExperimentSettings.scaled(2.0)
    default = ExperimentSettings()
    assert settings.measure_instructions == 2 * default.measure_instructions


def test_single_step_dwarfs_dise(tiny_settings):
    stepping = run_cell("bzip2", "COLD", "single_step",
                        settings=tiny_settings)
    dise = run_cell("bzip2", "COLD", "dise", settings=tiny_settings)
    assert stepping.overhead > 100 * dise.overhead
