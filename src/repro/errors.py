"""Exception hierarchy for the DISE reproduction library.

All library errors derive from :class:`ReproError` so that callers can
catch everything raised by this package with a single ``except`` clause
while still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class AssemblyError(ReproError):
    """Raised when assembly source cannot be parsed or resolved."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class MemoryError_(ReproError):
    """Raised on invalid memory accesses (unmapped, misaligned, ...)."""


class SimulationError(ReproError):
    """Raised when the simulated machine reaches an invalid state."""


class DiseError(ReproError):
    """Raised on invalid DISE configuration or production definitions."""


class DiseCapacityError(DiseError):
    """Raised when the DISE controller runs out of table capacity."""


class DisePermissionError(DiseError):
    """Raised when an untrusted entity installs productions for another
    process (the controller's OS-enforced safety policy)."""


class DebuggerError(ReproError):
    """Raised on invalid debugger requests (bad expression, unsupported
    watchpoint kind for a backend, ...)."""


class ExpressionError(DebuggerError):
    """Raised when a watched expression cannot be parsed or evaluated."""


class UnsupportedWatchpointError(DebuggerError):
    """Raised when a backend cannot implement a requested watchpoint.

    Mirrors real debugger behaviour: e.g. hardware watchpoint registers
    cannot watch indirect expressions; the paper notes real debuggers
    then fall back to single-stepping.
    """


class WorkloadError(ReproError):
    """Raised when a synthetic workload profile is inconsistent."""
