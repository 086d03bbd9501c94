"""The layers the benchmark traces, and the metrics it derives from them.

:func:`install_spans` wraps the public boundary of each layer (the
module names are the layer names).  :func:`layer_metrics` turns the
spans of traced passes into per-layer metrics.  ``README.md`` records,
beside each per-layer metric, the end-to-end metric and workload it
should move.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from perfbench.tracing import Patcher, Tracer

BACKENDS = ("single_step", "virtual_memory", "hardware", "binary_rewrite",
            "dise")

#: Debugger verbs by the latency class a user feels.
VERB_CLASS = {
    "run": "forward", "continue": "forward",
    "reverse-continue": "history", "rewind": "history",
    "last-write": "history", "first-write": "history",
    "value-at": "history", "seek-transition": "history",
    "seek-until": "history",
    "print": "inspect", "x": "inspect", "info": "inspect",
}
DISPATCH_CLASSES = ("plan", "forward", "history", "inspect")

#: Layers whose self time is reported as a share of the traced wall
#: time; together with ``other`` they sum to 100%.
LAYERS = ("cpu", "dise", "debugger", "debugger.dispatch", "replay",
          "timetravel", "server", "workloads", "isa", "harness", "fuzz")

TIMELINE_QUERIES = ("last_write", "first_write", "seek_transition",
                    "value_at", "seek_until")


def verb_class(verb: str) -> str:
    return VERB_CLASS.get(verb, "plan")


def layer_of(span_name: str) -> str:
    if span_name.startswith("debugger.dispatch."):
        return "debugger.dispatch"
    return span_name.split(".", 1)[0]


def install_spans(patcher: Patcher, tracer: Tracer) -> None:
    """Wrap every traced public function.

    Must run before the phase builds any machine or backend: a machine
    binds its checkpoint function and a backend its trap handler when
    they are constructed.
    """
    from repro.cpu.machine import Machine
    from repro.debugger.backends import BACKENDS as BACKEND_CLASSES
    from repro.debugger.dispatcher import CommandDispatcher
    from repro.debugger.session import Session
    from repro.dise.engine import DiseEngine
    from repro.harness import experiment, runner
    from repro.harness.cache import ResultCache
    from repro.isa.program import Program
    from repro.server.client import DebugClient
    from repro.timetravel.engine import TimelineQuery
    from repro.workloads import benchmarks, conformance, corpus

    def span(name, **options):
        return lambda fn: tracer.wrap(fn, name, **options)

    def checkpoints_held(args, result, before):
        store = args[0].checkpoint_store
        if store is not None:
            tracer.checkpoints_held = max(tracer.checkpoints_held,
                                          len(store))
        return 0

    def query_amount(args, result, before):
        tracer.counters["timetravel.windows"] += result.windows_scanned
        return result.instructions_replayed

    patcher.replace(runner.Runner, "run", span("harness.run"))
    # Runner calls execute_spec through its own module's binding.
    patcher.replace(runner, "execute_spec",
                    span("harness.cell", new_op=True))
    patcher.replace(experiment, "execute_spec",
                    span("harness.cell", new_op=True))
    patcher.replace(experiment, "run_baseline", span("harness.baseline"))
    patcher.replace(ResultCache, "load", span(
        "harness.cache.load",
        amount=lambda args, result, before: int(result is not None)))
    patcher.replace(ResultCache, "store", span("harness.cache.store"))
    patcher.replace(corpus, "build_workload", span("workloads.build"))
    patcher.replace(corpus.CorpusEntry, "build", span("workloads.build"))
    patcher.replace(benchmarks, "build_benchmark", span("workloads.build"))
    patcher.replace(Program, "copy", span("isa.program_copy"))
    patcher.replace(Session, "build_backend",
                    span("debugger.build_backend"))
    for name in BACKENDS:
        patcher.replace(BACKEND_CLASSES[name], "handle_trap",
                        span(f"debugger.{name}.trap"))
    patcher.replace(CommandDispatcher, "dispatch", span(
        lambda args: f"debugger.dispatch.{verb_class(args[1])}"))
    patcher.replace(DiseEngine, "expand", span(
        "dise.expand",
        amount=lambda args, result, before: int(result is not None)))
    patcher.replace(Machine, "run", span(
        "cpu.run",
        before=lambda args: args[0].stats.total_instructions,
        amount=lambda args, result, before: max(
            0, args[0].stats.total_instructions - before)))
    patcher.replace(Machine, "snapshot",
                    span("replay.snapshot", amount=checkpoints_held))
    patcher.replace(Machine, "restore",
                    span("replay.restore", amount=checkpoints_held))
    for method in TIMELINE_QUERIES:
        patcher.replace(TimelineQuery, method,
                        span(f"timetravel.{method}", amount=query_amount))
    patcher.replace(conformance, "check_entry",
                    span("fuzz.check_entry", new_op=True))
    patcher.replace(DebugClient, "request",
                    span("server.request", publish=True, new_op=True))


# -- metrics ---------------------------------------------------------------


def _share(seconds: float, wall: float) -> float:
    return 100.0 * seconds / wall if wall > 0 else 0.0


def _per_call(summary: dict, names, field: str = "self_s",
              scale: float = 1e6):
    calls = sum(summary.get(n, {}).get("calls", 0) for n in names)
    if not calls:
        return None
    return scale * sum(summary[n][field] for n in names
                       if n in summary) / calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sim_metrics(per_backend: dict[str, dict[str, int]]) -> dict:
    """The *sim* metrics of one pass (exactly repeatable)."""
    total: dict[str, int] = defaultdict(int)
    for counters in per_backend.values():
        for name, value in counters.items():
            total[name] += value
    out = {
        "sim.app_instructions": (total["app_instructions"], "count"),
        "sim.dise_instructions": (total["dise_instructions"], "count"),
        "sim.function_instructions": (total["function_instructions"],
                                      "count"),
        "sim.dise_expansions": (total["dise_expansions"], "count"),
        "sim.dise_flushes": (total["dise_branch_flushes"]
                             + total["dise_call_flushes"], "count"),
        "sim.traps": (total["traps"], "count"),
        "sim.cycles": (total["cycles"], "count"),
    }
    for kind in ("user", "spurious_address", "spurious_value",
                 "spurious_predicate"):
        out[f"sim.transitions.{kind}"] = (total[f"transitions.{kind}"],
                                          "count")
    out["cpu.timing.flushes"] = (total["timing.flushes"], "count")
    out["cpu.predictor.mispredict_ratio"] = (_ratio(
        total["predictor.mispredictions"], total["predictor.lookups"]),
        "ratio")
    for unit in ("l1i", "l1d", "l2"):
        out[f"memory.{unit}.miss_ratio"] = (_ratio(
            total[f"{unit}.misses"],
            total[f"{unit}.hits"] + total[f"{unit}.misses"]), "ratio")
    for unit in ("itlb", "dtlb"):
        out[f"memory.{unit}.misses"] = (total[f"{unit}.misses"], "count")
    for backend in BACKENDS:
        counters = per_backend.get(backend, {})
        transitions = sum(v for k, v in counters.items()
                          if k.startswith("transitions.")
                          and k != "transitions.none")
        out[f"debugger.{backend}.useful_ratio"] = (_ratio(
            counters.get("transitions.user", 0), transitions), "ratio")
    return out


def layer_metrics(summary: dict, *, passes: int, traced_wall: float,
                  tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of one traced phase, and the per-operation
    costs of the layers a workload may not exercise at all.

    ``summary`` is :meth:`Tracer.summarise` output over ``passes``
    traced passes that together took ``traced_wall`` seconds.  Counts
    and self times are per pass.  The first dict always has every key;
    the second maps to None where the layer did not run.
    """
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    by_layer: dict[str, float] = defaultdict(float)
    covered = 0.0
    for name, entry in summary.items():
        by_layer[layer_of(name)] += entry["self_s"]
        covered += entry["roots_s"]
    out: dict[str, tuple] = {}
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = (_share(by_layer[layer], traced_wall),
                                    "%")
    out["other.self_pct"] = (_share(traced_wall - covered, traced_wall),
                             "%")

    run = summary.get("cpu.run", {"self_s": 0.0, "amount": 0})
    out["cpu.run.self_s"] = (run["self_s"] / passes, "s")
    out["cpu.run.inst"] = (run["amount"] / passes, "inst")
    out["cpu.run.ips"] = (_ratio(run["amount"], run["self_s"]), "inst/s")

    expand = summary.get("dise.expand", {"calls": 0, "amount": 0})
    out["dise.expand.count"] = (expand["calls"] / passes, "count")
    out["dise.expand_us"] = (_per_call(summary, ["dise.expand"]) or 0.0,
                             "us")
    out["dise.expand.hit_ratio"] = (_ratio(expand["amount"],
                                           expand["calls"]), "ratio")

    traps = [f"debugger.{b}.trap" for b in BACKENDS]
    out["debugger.trap_us"] = (_per_call(summary, traps) or 0.0, "us")
    for backend, name in zip(BACKENDS, traps):
        out[f"debugger.{backend}.traps"] = (calls(name) / passes, "count")
        out[f"debugger.{backend}.trap_pct"] = (
            _share(self_s(name), traced_wall), "%")
    out["debugger.build_backend.count"] = (
        calls("debugger.build_backend") / passes, "count")
    for cls in DISPATCH_CLASSES:
        out[f"debugger.dispatch.{cls}_pct"] = (
            _share(self_s(f"debugger.dispatch.{cls}"), traced_wall), "%")

    out["replay.snapshot.count"] = (calls("replay.snapshot") / passes,
                                    "count")
    out["replay.restore.count"] = (calls("replay.restore") / passes,
                                   "count")
    out["replay.checkpoints_held.max"] = (tracer.checkpoints_held, "count")

    queries = [f"timetravel.{q}" for q in TIMELINE_QUERIES]
    query_calls = sum(calls(q) for q in queries)
    replayed = sum(summary.get(q, {}).get("amount", 0) for q in queries)
    out["timetravel.query.count"] = (query_calls / passes, "count")
    out["timetravel.replayed_per_query"] = (_ratio(replayed, query_calls),
                                            "inst")
    out["timetravel.windows_per_query"] = (_ratio(
        tracer.counters["timetravel.windows"], query_calls), "count")

    out["server.request.count"] = (calls("server.request") / passes,
                                   "count")
    out["workloads.build.count"] = (
        summary.get("workloads.build", {}).get("outer_calls", 0) / passes,
        "count")
    out["workloads.build_ms"] = (_per_call(
        summary, ["workloads.build"], "outer_s", 1e3) or 0.0, "ms")
    out["isa.program_copy_us"] = (_per_call(
        summary, ["isa.program_copy"], "total_s") or 0.0, "us")
    out["harness.cell.count"] = (calls("harness.cell") / passes, "count")
    load = summary.get("harness.cache.load", {"calls": 0, "amount": 0})
    out["harness.cache.hit_ratio"] = (_ratio(load["amount"], load["calls"]),
                                      "ratio")

    # Per-operation costs of layers only some workloads exercise: these
    # are reported beside the metrics, never as a metric that would read
    # 0 on every run of another workload.
    costs = {
        "replay.snapshot_us": _per_call(summary, ["replay.snapshot"],
                                        "total_s"),
        "replay.restore_us": _per_call(summary, ["replay.restore"],
                                       "total_s"),
        "timetravel.query_s": _per_call(summary, queries, "total_s", 1.0),
        "harness.cell.self_s": _per_call(summary, ["harness.cell"],
                                         "self_s", 1.0),
        "harness.baseline_s": _per_call(summary, ["harness.baseline"],
                                        "total_s", 1.0),
        "harness.cache.store_us": _per_call(summary, ["harness.cache.store"],
                                            "total_s"),
        "harness.cache.load_us": _per_call(summary, ["harness.cache.load"],
                                           "total_s"),
        "debugger.build_backend_s": _per_call(
            summary, ["debugger.build_backend"], "total_s", 1.0),
        "fuzz.compare_s": _per_call(summary, ["fuzz.check_entry"],
                                    "self_s", 1.0),
        # A client round trip minus the server-side spans it caused.
        "server.wire_us": _per_call(summary, ["server.request"]),
    }
    for cls in DISPATCH_CLASSES:
        costs[f"debugger.dispatch.{cls}_s"] = _per_call(
            summary, [f"debugger.dispatch.{cls}"], "total_s", 1.0)
    return out, costs


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); the percentile is the
    largest whole number p with at least ten samples above the p-th
    percentile, or the median when there are too few samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    best = 50
    for p in range(99, 49, -1):
        if n - math.ceil(n * p / 100) >= 10:
            best = p
            break
    index = min(n - 1, math.ceil(n * best / 100) - 1)
    return ordered[max(0, index)], float(best), n


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0

