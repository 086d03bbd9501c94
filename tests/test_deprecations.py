"""The supported spellings run without a DeprecationWarning."""

import warnings

import pytest

from repro.cpu.machine import MachineRun
from repro.debugger.session import Session
from repro.results import RunResult


def _deprecations(record):
    return [w for w in record if issubclass(w.category, DeprecationWarning)]


@pytest.fixture
def recorded():
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        yield record


def test_supported_spellings_do_not_warn(count_loop_program, recorded):
    session = Session(count_loop_program, backend="single_step")
    session.watch("counter")
    result = session.run()
    assert result.halted
    assert isinstance(result, RunResult)
    assert isinstance(MachineRun(result.stats, True, False), MachineRun)
    assert _deprecations(recorded) == []
