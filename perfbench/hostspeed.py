"""Host speed, measured so that reported times do not depend on it.

A shared virtual machine can run 1.4 to 1.6 times slower for seconds
at a time, as other tenants come and go.  A fixed pure-Python loop
slows down by the same factor as the simulator, so timing the loop just
before and just after a measurement gives that measurement's host
speed.  Every time the benchmark reports is a measured wall time scaled
to the reference speed, at which the loop takes
:data:`REFERENCE_LOOP_S`: ``wall * REFERENCE_LOOP_S / loop``.  Rates are
scaled by the inverse.  The loop does not touch the simulator, so no
change to the simulator can move it.
"""

from __future__ import annotations

import time

#: Seconds the calibration loop takes at the reference host speed.
REFERENCE_LOOP_S = 0.025

TIME_UNITS = {"s", "ms", "us", "ns"}
RATE_UNITS = {"inst/s"}


def loop_seconds() -> float:
    """How long the fixed calibration loop takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - started


def timed(fn):
    """Run ``fn()``; return (result, wall seconds, scale), where
    ``wall * scale`` is the wall time at the reference speed."""
    before = loop_seconds()
    started = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - started
    after = loop_seconds()
    return result, wall, 2 * REFERENCE_LOOP_S / (before + after)


class Meter:
    """Wall time of one pass at the reference host speed.

    The pass closes a segment with :meth:`mark` after each unit of work
    (a figure, a matrix entry, a debugging round).  The calibration loop
    runs at every mark, so each segment is scaled by the host speed
    measured just before and just after it.  The loop's own time is in
    no segment.  :meth:`op` records an operation latency in the open
    segment, as measured, and :meth:`sample` a latency that is only
    reported by kind; both are scaled when the segment closes.
    """

    def __init__(self):
        self.raw_s = 0.0  # as measured
        self.scaled_s = 0.0  # at the reference speed
        self.op_ms: list[float] = []
        self.classes: dict[str, list[float]] = {}
        self._pending: list[tuple[float, str, bool]] = []
        self._loop = loop_seconds()
        self._started = time.perf_counter()

    def op(self, ms: float, kind: str = "") -> None:
        self._pending.append((ms, kind, True))

    def sample(self, kind: str, ms: float) -> None:
        self._pending.append((ms, kind, False))

    def mark(self, at_least: float = 0.0) -> None:
        """Close the open segment, unless it is shorter than
        ``at_least`` seconds (the pass must end with a plain mark)."""
        wall = time.perf_counter() - self._started
        if wall < at_least:
            return
        loop = loop_seconds()
        scale = 2 * REFERENCE_LOOP_S / (self._loop + loop)
        self._loop = loop
        self.raw_s += wall
        self.scaled_s += wall * scale
        for ms, kind, is_op in self._pending:
            if is_op:
                self.op_ms.append(ms * scale)
            if kind:
                self.classes.setdefault(kind, []).append(ms * scale)
        self._pending = []
        self._started = time.perf_counter()


def scaled(value: float, unit: str, scale: float) -> float:
    """A time or rate measured at ``scale``, at the reference speed."""
    if unit in TIME_UNITS:
        return value * scale
    if unit in RATE_UNITS:
        return value / scale
    return value
