"""Spans around the program's public functions, and a counter tap.

Everything here works by replacing attributes of the program's classes
and modules for the duration of a phase and putting the originals back
afterwards; nothing under ``src/`` knows it is being measured.

* :class:`Tracer` records one span per call of a wrapped function: a
  name, start, end, parent span and the id of the workload operation
  (cell, matrix entry or command) it belongs to.  Spans are kept in
  memory and summarised or written out when the run ends.  A span's
  self time is its duration minus the time its child spans cover.
* :class:`SimTap` reads each machine's simulated counters after every
  ``Machine.run`` call.  It takes no timings, so untraced runs install
  it too: the simulated digest must read the same with tracing on or
  off.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
import weakref
from collections import defaultdict
from typing import Callable, Optional


class Patcher:
    """Replace attributes and restore every original on :meth:`undo`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Set ``owner.attr`` to ``make(original)``."""
        # Save the class's own dict entry (or its absence), so undo
        # neither turns an inherited method into an own one nor loses a
        # descriptor.
        original = vars(owner).get(attr, _INHERITED)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(getattr(owner, attr)))

    def undo(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()


_INHERITED = object()


# -- simulated counters ----------------------------------------------------

_STAT_FIELDS = ("app_instructions", "dise_instructions",
                "function_instructions", "loads", "stores", "branches",
                "mispredictions", "dise_expansions", "dise_branch_flushes",
                "dise_call_flushes", "traps", "page_fault_traps", "cycles")


def machine_counters(machine) -> dict:
    """Every simulated counter of one machine, as plain integers."""
    stats = machine.stats
    counters = {name: int(getattr(stats, name)) for name in _STAT_FIELDS}
    for kind, count in stats.transitions.items():
        counters[f"transitions.{kind.value}"] = int(count)
    timing = machine.timing
    if timing is not None:
        for unit in (timing.caches.l1i, timing.caches.l1d, timing.caches.l2,
                     timing.itlb, timing.dtlb):
            counters[f"{unit.name}.hits"] = int(unit.hits)
            counters[f"{unit.name}.misses"] = int(unit.misses)
        counters["predictor.lookups"] = int(timing.predictor.lookups)
        counters["predictor.mispredictions"] = int(
            timing.predictor.mispredictions)
        counters["timing.flushes"] = int(timing.flushes)
    return counters


def backend_of(machine) -> str:
    """The debugger backend a machine traps into ("undebugged" if none)."""
    owner = getattr(machine.trap_handler, "__self__", None)
    return getattr(owner, "name", "undebugged")


class SimTap:
    """The final simulated counters of every machine a phase ran.

    After each ``Machine.run`` the machine's counters replace its
    previous reading, so a machine that is restored and re-run counts
    its final state once.  :meth:`drain` sums the readings per backend
    and forgets them.
    """

    def __init__(self):
        self._ids = weakref.WeakKeyDictionary()
        self._next = itertools.count()
        self._latest: dict[int, tuple[str, dict]] = {}
        self._lock = threading.Lock()

    def install(self, patcher: Patcher, machine_cls) -> None:
        tap = self

        def make(run):
            def tapped_run(machine, *args, **kwargs):
                result = run(machine, *args, **kwargs)
                tap.record(machine)
                return result
            return tapped_run
        patcher.replace(machine_cls, "run", make)

    def record(self, machine) -> None:
        with self._lock:
            key = self._ids.get(machine)
            if key is None:
                key = self._ids[machine] = next(self._next)
            self._latest[key] = (backend_of(machine),
                                 machine_counters(machine))

    def drain(self) -> dict[str, dict[str, int]]:
        """Counters summed per backend since the last drain."""
        with self._lock:
            readings, self._latest = self._latest, {}
        totals: dict[str, dict[str, int]] = {}
        for backend, counters in readings.values():
            into = totals.setdefault(backend, defaultdict(int))
            for name, value in counters.items():
                into[name] += value
        return {backend: dict(sorted(counters.items()))
                for backend, counters in sorted(totals.items())}


# -- spans -----------------------------------------------------------------


class Tracer:
    """In-memory spans of wrapped calls.

    Spans nest per thread.  A client request that waits on another
    thread (the in-process session server) publishes its span id in
    :attr:`remote_parent`, so the spans the server thread opens while
    serving it become its children.
    """

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, op, n)
        self.op = 0  # current workload operation
        self.remote_parent: Optional[int] = None
        self.checkpoints_held = 0
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name, *, before=None, amount=None,
             publish: bool = False, new_op: bool = False) -> Callable:
        """``fn`` recording one span per call.

        ``name`` is a string or a function of the call's arguments.
        ``amount(args, result, before(args))`` gives the span a quantity
        (simulated instructions, cache hits); ``before`` runs ahead of
        the call.  A failed call records amount 0.  ``new_op`` marks the
        call as the start of a workload operation, so it and every span
        it causes share a fresh operation id.
        """
        tracer = self
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if new_op:
                tracer.op += 1
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.remote_parent
            span_id = next(ids)
            stack.append(span_id)
            if publish:
                tracer.remote_parent = span_id
            prior = before(args) if before else None
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                if publish:
                    tracer.remote_parent = None
                n = amount(args, result, prior) if ok and amount else 0
                spans.append((span_id, parent,
                              name if isinstance(name, str) else name(args),
                              start, end, tracer.op, n))
        return traced

    # -- summaries ---------------------------------------------------------

    def summarise(self) -> dict[str, dict]:
        """Per span name: calls, total and self time, summed amount,
        the time of root spans, and the calls and time of spans whose
        parent belongs to another name (the outermost of a nest)."""
        child_time: dict[int, float] = defaultdict(float)
        names: dict[int, str] = {}
        for span_id, parent, name, start, end, _, _ in self.spans:
            names[span_id] = name
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for span_id, parent, name, start, end, _, n in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "amount": 0,
                                          "roots_s": 0.0, "outer_calls": 0,
                                          "outer_s": 0.0})
            duration = end - start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(span_id, 0.0)
            entry["amount"] += n
            if parent is None:
                entry["roots_s"] += duration
            if parent is None or names.get(parent) != name:
                entry["outer_calls"] += 1
                entry["outer_s"] += duration
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt") as handle:
            for span_id, parent, name, start, end, op, n in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start": start, "end": end, "op": op, "n": n}) + "\n")
