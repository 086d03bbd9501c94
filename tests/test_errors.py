"""The exception hierarchy."""

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, errors.ReproError) or \
                obj is errors.ReproError, name


def test_assembly_error_carries_line_number():
    error = errors.AssemblyError("bad operand", line_number=17)
    assert error.line_number == 17
    assert "line 17" in str(error)
    bare = errors.AssemblyError("no line info")
    assert bare.line_number is None


def test_specialized_hierarchy():
    assert issubclass(errors.DiseCapacityError, errors.DiseError)
    assert issubclass(errors.DisePermissionError, errors.DiseError)
    assert issubclass(errors.ExpressionError, errors.DebuggerError)
    assert issubclass(errors.UnsupportedWatchpointError,
                      errors.DebuggerError)


def test_single_catch_all():
    with pytest.raises(errors.ReproError):
        raise errors.WorkloadError("bad profile")
