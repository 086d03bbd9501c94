"""The differential oracle: clean agreement and canonical stops."""

import pytest

from repro.fuzz.generator import (Block, BodyOp, DebugPoint, ProgramSpec,
                                  generate_spec)
from repro.fuzz.oracle import (BACKENDS, COMPARE_REGS, OracleReport,
                               RunOutcome, Stop, _run_backend, interrupt_leg,
                               run_differential, run_matrix)


def manual_spec(points, ops=None, iterations=2, epilogue=False):
    """A tiny hand-built spec with fully predictable behavior."""
    return ProgramSpec(
        seed=0,
        reg_init={1: 40},
        var_init={"v0": 5},
        blocks=[Block(ops=ops if ops is not None
                      else [BodyOp("store_var", {"rs": 1, "var": "v0"})])],
        iterations=iterations,
        points=points,
        epilogue=epilogue,
    )


def test_clean_generated_seeds_agree():
    for seed in range(4):
        report = run_differential(generate_spec(seed))
        assert report.ok, report.divergences[0].describe()
        assert set(report.spurious) == set(BACKENDS)


def test_watch_stop_sequence_is_canonical():
    # r1=40 is halved to 20 on store; iteration 1 changes v0 (5 -> 20),
    # iteration 2 re-stores 20 (a silent store): exactly one user stop.
    spec = manual_spec([DebugPoint("watch", "v0")])
    for backend in BACKENDS:
        outcome = _run_backend(spec, backend, None, "table")
        assert outcome.error is None, (backend, outcome.error)
        assert outcome.stops == (Stop((), (("v0", 20),)),), backend


def test_break_stop_sequence_is_canonical():
    # The block_0 anchor runs once per outer iteration.
    spec = manual_spec([DebugPoint("break", "block_0")], iterations=3)
    for backend in BACKENDS:
        outcome = _run_backend(spec, backend, None, "table")
        assert outcome.error is None, (backend, outcome.error)
        assert outcome.stops == (Stop((1,),),) * 3, backend


def test_conditional_watch_agrees_across_backends():
    spec = manual_spec([DebugPoint("watch", "v0", "v0 > 10")])
    report = run_differential(spec)
    assert report.ok, report.divergences[0].describe()
    assert report.stop_count == 1


def test_false_condition_suppresses_stops():
    spec = manual_spec([DebugPoint("watch", "v0", "v0 > 1000")])
    report = run_differential(spec)
    assert report.ok, report.divergences[0].describe()
    assert report.stop_count == 0


def test_spurious_counts_differ_but_are_not_divergences():
    # Scratch stores never touch v0: pure spurious traffic for the
    # trapping backends, none for hardware registers.
    ops = [BodyOp("store_var", {"rs": 1, "var": "v0"}),
           BodyOp("store_scratch", {"rs": 1, "size": 8, "stride": 3}),
           BodyOp("store_scratch", {"rs": 1, "size": 8, "stride": 5})]
    spec = manual_spec([DebugPoint("watch", "v0")], ops=ops, iterations=4)
    report = run_differential(spec)
    assert report.ok, report.divergences[0].describe()
    assert len(set(report.spurious.values())) > 1


def test_report_to_dict_is_json_shaped():
    report = run_differential(generate_spec(1))
    data = report.to_dict()
    assert data["ok"] is True
    assert data["seed"] == 1
    assert sorted(data["spurious"]) == sorted(BACKENDS)
    assert data["divergences"] == []


def test_stop_describe_mentions_facts():
    stop = Stop((2,), (("v0", 16),))
    assert "bp#2" in stop.describe()
    assert "v0=0x10" in stop.describe()


def test_interrupt_leg_is_clean_under_dise():
    # Debugged beside a preempted copy of itself: table and compiled
    # agree on stops, per-process state, and switch counts, and pid 1
    # matches a solo debugged run.
    spec = manual_spec([DebugPoint("watch", "v0")], iterations=3)
    divergences = interrupt_leg(spec, "dise")
    assert not divergences, divergences[0].describe()


def test_interrupt_leg_folds_into_the_report():
    report = run_differential(generate_spec(2), interrupt_backend="hardware")
    assert report.ok, report.divergences[0].describe()


# -- the shared tier x backend matrix, driven with canned outcomes ---------


class CannedMatrix:
    """A fake ``run`` for :func:`run_matrix` that records each cell it
    runs.  Every cell halts with the same state and stats and no stops;
    ``common`` overrides those fields in every cell, and ``cells`` maps
    ``"backend/tier"`` (``"undebugged/tier"``) to one cell's fields."""

    def __init__(self, cells=None, **common):
        self.fields = {"halted": True, "regs": (0,) * len(COMPARE_REGS),
                       "state": (("v0", 20),), "stats": {"cycles": 100},
                       **common}
        self.cells = cells or {}
        self.ran = []

    def __call__(self, backend_name, interp):
        name = f"{backend_name or 'undebugged'}/{interp}"
        self.ran.append(name)
        return RunOutcome(name=name,
                          **{**self.fields, **self.cells.get(name, {})})


def _divergences(report):
    return [(d.kind, d.runs) for d in report.divergences]


def test_matrix_reports_a_tier_whose_stats_differ():
    run = CannedMatrix({"dise/compiled": {"stats": {"cycles": 101}}})
    report = OracleReport(seed=0)
    assert run_matrix(report, run, ("hardware", "dise"))
    assert _divergences(report) == [
        ("stats", ("dise/table", "dise/compiled"))]
    assert len(run.ran) == 3 * 3


@pytest.mark.parametrize("compare_stops", [True, False])
def test_matrix_compares_backend_stops_only_when_asked(compare_stops):
    stops = {"stops": (Stop((), (("v0", 20),)),)}
    run = CannedMatrix({f"dise/{interp}": stops
                        for interp in ("table", "legacy", "compiled")})
    report = OracleReport(seed=0)
    run_matrix(report, run, ("hardware", "dise"),
               compare_stops=compare_stops)
    expected = [("stops", ("hardware/table", "dise/table"))]
    assert _divergences(report) == (expected if compare_stops else [])
    assert report.stop_count == 0  # the first backend's stops


@pytest.mark.parametrize("failure", [{"error": "SimulationError: boom"},
                                     {"halted": False}])
def test_failed_undebugged_reference_stops_the_matrix(failure):
    run = CannedMatrix({"undebugged/table": failure})
    report = OracleReport(seed=0)
    assert not run_matrix(report, run, BACKENDS)
    assert run.ran == ["undebugged/table"]
    assert [d.kind for d in report.divergences] == [
        "error" if "error" in failure else "termination"]


def test_matrix_runs_on_past_budgets_when_halting_is_not_required():
    run = CannedMatrix(halted=False)
    report = OracleReport(seed=0)
    assert run_matrix(report, run, BACKENDS, must_halt=False)
    assert report.ok
    assert len(run.ran) == 3 * (1 + len(BACKENDS))


def test_matrix_check_sees_each_reference_tier_outcome():
    run = CannedMatrix({"hardware/table": {"error": "KeyError: 'x'"}})
    seen = []
    report = OracleReport(seed=0)
    run_matrix(report, run, ("hardware", "dise", "single_step"),
               check=lambda backend, outcome: seen.append(
                   (backend, outcome.name)))
    # A crashed backend is reported, not checked.
    assert seen == [(None, "undebugged/table"), ("dise", "dise/table"),
                    ("single_step", "single_step/table")]
    assert ("error", ("hardware/table", "hardware/table")) in \
        _divergences(report)


@pytest.mark.slow
def test_extended_seed_sweep_is_clean():
    for seed in range(300, 360):
        report = run_differential(generate_spec(seed))
        assert report.ok, (seed, report.divergences[0].describe())


@pytest.mark.slow
def test_interrupt_leg_sweep_all_backends():
    for seed in range(500, 510):
        spec = generate_spec(seed)
        backend = BACKENDS[seed % len(BACKENDS)]
        divergences = interrupt_leg(spec, backend)
        assert not divergences, (seed, backend,
                                 divergences[0].describe())
