"""The interactive debugger: watchpoints, breakpoints, conditionals.

* :mod:`repro.debugger.expressions` -- the watched-expression language
  (scalars, indirection, ranges, arithmetic, comparisons).
* :mod:`repro.debugger.watchpoint` -- watchpoint/breakpoint records.
* :mod:`repro.debugger.transitions` -- transition classification shared
  by all backends.
* :mod:`repro.debugger.session` -- the user-facing :class:`Session`
  facade (obtained via :func:`repro.api.debug`).
* :mod:`repro.debugger.backends` -- the five implementations compared in
  the paper: single-stepping, virtual memory, hardware registers, static
  binary rewriting, and DISE.
"""

from repro.debugger.expressions import parse_expression, Expression
from repro.debugger.watchpoint import Watchpoint, Breakpoint
from repro.debugger.session import Session
from repro.debugger.backends import BACKENDS, backend_class

__all__ = [
    "parse_expression",
    "Expression",
    "Watchpoint",
    "Breakpoint",
    "Session",
    "BACKENDS",
    "backend_class",
]
