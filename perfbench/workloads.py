"""The three workloads: paper-grid, conformance and debug-session.

Each workload has a ``setup`` (repeated to time it), a ``run_pass``
that performs the workload's fixed set of operations once and is
repeated for the run's length, a ``verify`` run after the timed phase,
and a ``teardown``.  Every workload runs in a single process, with one
client connection at most.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.hostspeed import Meter
from perfbench.layers import verb_class


@dataclass
class PassResult:
    """One pass over a workload's operations.

    Times are at the reference host speed (see ``hostspeed``), except
    ``raw_s``.
    """

    #: Wall time of the timed operations (the cold pass on paper-grid).
    wall_s: float
    #: Wall time of the whole pass, at reference speed and as measured.
    total_s: float
    raw_s: float
    op_ms: list[float]
    attempted: int
    failed: int
    #: Everything the pass produced, hashed into the simulated digest.
    outputs: Any
    #: Latency samples by operation class (ms), for the report.
    classes: dict[str, list[float]] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    #: Hash of ``outputs``; set by the runner.
    digest: str = ""

    @property
    def scale(self) -> float:
        """Multiplier taking this pass's measured times to reference
        speed."""
        return self.total_s / self.raw_s if self.raw_s else 1.0


def _fresh_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=False)
    return path


def _resolve_watch_symbols() -> None:
    """Resolve the inputs: each of the six benchmark programs builds and
    defines the symbol of every watch kind."""
    from repro.workloads.benchmarks import (BENCHMARK_NAMES,
                                            WATCHPOINT_KINDS,
                                            build_benchmark,
                                            watch_expression)

    for name in BENCHMARK_NAMES:
        program = build_benchmark(name)
        for kind in WATCHPOINT_KINDS:
            program.symbol(watch_expression(kind).lstrip("*").split("[")[0])


# -- paper-grid ------------------------------------------------------------


class PaperGrid:
    """Every figure of the paper, shrunk to fit one pass in a few seconds.

    Figures 3-9 run figure by figure, cell by cell, through
    ``Runner(workers=0)`` with the default machine configuration (table
    tier, timed), first against an empty result cache (cold) and then
    again against the filled one (warm).  Every backend, all six watch kinds, and each Figure 5-9
    variant keep at least one cell.  The inputs are the paper's six
    profile-generated programs, so the seed is not used.
    """

    name = "paper-grid"

    def figures(self):
        from repro.harness import figures as f

        return [
            ("figure3", f.figure3_specs(("bzip2",), f.ALL_KINDS)),
            ("figure4", f.figure4_specs(("mcf",), ("HOT", "COLD"))),
            ("figure5", f.figure5_specs(("twolf",))),
            ("figure6", f.figure6_specs(("crafty",), (16,))),
            ("figure7", f.figure7_specs(("bzip2",), ("HOT",))),
            ("figure8", f.figure8_specs(("crafty",), ("HOT",))),
            ("figure9", f.figure9_specs(("mcf",))),
        ]

    def settings(self):
        from repro.harness.experiment import ExperimentSettings

        # The budgets of a 0.1-scale run, passed explicitly so that
        # REPRO_SCALE cannot change what is measured.
        return ExperimentSettings(measure_instructions=5_000,
                                  warmup_instructions=5_000)

    def setup(self, work: Path, seed: int) -> dict:
        _resolve_watch_symbols()
        return {"dir": _fresh_dir(work), "figures": self.figures(),
                "settings": self.settings(), "passes": 0}

    def teardown(self, state: dict) -> None:
        pass

    def run_pass(self, state: dict, tap) -> PassResult:
        import os

        from repro.harness.cache import ResultCache
        from repro.harness.experiment import clear_baseline_cache
        from repro.harness.runner import Runner

        state["passes"] += 1
        cache_dir = _fresh_dir(state["dir"] / f"cache{state['passes']}")
        # run_baseline consults the environment's cache: point it at the
        # pass's empty directory, then drop every in-memory baseline.
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
        cache = ResultCache(cache_dir)
        settings = state["settings"]
        clear_baseline_cache()
        failed = 0
        cold_cells = []
        instructions = 0
        cold = Meter()
        runner = Runner(workers=0, settings=settings, cache=cache)
        for figure, specs in state["figures"]:
            # One cell per call, so the host speed is re-measured every
            # quarter second; serially, a figure's run is these calls.
            for spec in specs:
                cell, = runner.run([spec], settings=settings)
                report = runner.last_report
                instructions += report.instructions
                failed += report.failed + report.cached  # cold means cold
                cold_cells.append((figure, cell))
                cold.op(1e3 * cell.wall_time)
                cold.mark(at_least=0.25)
        cold.mark()

        warm = Meter()
        warm_cells = []
        runner = Runner(workers=0, settings=settings, cache=cache)
        for figure, specs in state["figures"]:
            warm_cells += runner.run(specs, settings=settings)
            failed += runner.last_report.computed  # warm computes nothing
        warm.mark()

        outputs = [_cell_record(figure, cell) for figure, cell in cold_cells]
        failed += sum(_cell_record(figure, cold) != _cell_record(figure, hot)
                      for (figure, cold), hot in zip(cold_cells, warm_cells))
        failed += _paper_shape_failures(
            [cell for figure, cell in cold_cells if figure == "figure3"])
        return PassResult(
            wall_s=cold.scaled_s, total_s=cold.scaled_s + warm.scaled_s,
            raw_s=cold.raw_s + warm.raw_s, op_ms=cold.op_ms,
            attempted=len(cold_cells) + len(warm_cells),
            failed=failed,
            outputs={"cells": outputs, "sim": tap.drain()},
            extra={"warm_pass_s": warm.scaled_s,
                   "instructions": instructions})

    def verify(self, state: dict, passes: list[PassResult]):
        return 0, 0


def _cell_record(figure: str, cell) -> list:
    return [figure, cell.benchmark, cell.kind, cell.backend,
            cell.conditional, repr(cell.overhead),
            cell.stats.to_dict() if cell.stats else None,
            cell.baseline_stats.to_dict() if cell.baseline_stats else None,
            cell.unsupported_reason is None]


def _paper_shape_failures(cells) -> int:
    """Figure 3 cells breaking the paper's shape (bench_fig3's checks):
    single-stepping above 2,000x, DISE median below 1.35x, and no DISE
    spurious transitions."""
    stepping = [c for c in cells if c.backend == "single_step"]
    dise = [c for c in cells if c.backend == "dise"]
    failed = sum(1 for c in stepping
                 if c.overhead is None or c.overhead <= 2_000)
    failed += sum(1 for c in dise if c.spurious_transitions != 0)
    overheads = sorted(c.overhead for c in dise if c.overhead is not None)
    if not overheads or overheads[len(overheads) // 2] >= 1.35:
        failed += 1
    return failed


# -- conformance -----------------------------------------------------------


class Conformance:
    """``check_entry`` over shipped programs, benchmarks and generated
    programs, each across the 3-tier x 5-backend matrix (functional)."""

    name = "conformance"
    #: The two named benchmarks whose matrix fits a pass; see README.
    benchmarks = ("bzip2", "crafty")
    generated = 4

    def setup(self, work: Path, seed: int) -> dict:
        from repro.workloads.corpus import (benchmark_entry, generated_entry,
                                            programs_corpus)

        seeds = random.Random(seed).sample(range(1, 100_000),
                                           self.generated)
        entries = (list(programs_corpus().entries)
                   + [benchmark_entry(name) for name in self.benchmarks]
                   + [generated_entry(s) for s in seeds])
        return {"entries": entries}

    def teardown(self, state: dict) -> None:
        pass

    def run_pass(self, state: dict, tap) -> PassResult:
        from repro.workloads import conformance

        outputs = []
        failed = 0
        meter = Meter()
        for entry in state["entries"]:
            started = time.perf_counter()
            # Looked up on the module at call time, so a traced phase's
            # span around check_entry applies.
            report = conformance.check_entry(entry)
            meter.op(1e3 * (time.perf_counter() - started))
            meter.mark()
            failed += not report.ok
            outputs.append([entry.name, entry.digest, report.ok, report.runs,
                            report.stop_count,
                            [d.describe() for d in report.divergences]])
        return PassResult(wall_s=meter.scaled_s, total_s=meter.scaled_s,
                          raw_s=meter.raw_s, op_ms=meter.op_ms,
                          attempted=len(state["entries"]), failed=failed,
                          outputs={"entries": outputs, "sim": tap.drain()})

    def verify(self, state: dict, passes: list[PassResult]):
        return 0, 0


# -- debug-session ---------------------------------------------------------

#: The symbol a write query or memory dump targets, per watch kind.
_TARGET = {"HOT": "hot", "WARM1": "warm1", "WARM2": "warm2", "COLD": "cold",
           "INDIRECT": "hot", "RANGE": "range_arr"}
_SCALAR = ("HOT", "WARM1", "WARM2", "COLD")
#: Application instructions per forward verb.
_BUDGET = "4000"
_MOVES = ("run", "continue", "reverse-continue", "rewind",
          "seek-transition")


def _play_round(benchmark: str, kind: str, draws: tuple, call) -> None:
    """One debugging round; ``call(verb, args)`` returns the reply's
    result (with an ``error`` code for a failed command).

    ``draws`` holds three numbers in [0, 1) that place the rewind
    distance, the ``value-at`` ordinal and the ``seek-transition``
    ordinal.  They scale quantities read from earlier replies, so
    ordinals and rewind distances stay inside the recorded history,
    which shrinks after every backward move.
    """
    from repro.workloads.benchmarks import watch_expression

    rewind_at, value_at, seek_at = draws
    expression = watch_expression(kind)
    target = _TARGET[kind]
    position = 0
    stops: list[int] = []  # app-instruction counts of stops in history

    def step(verb: str, args: list[str]) -> None:
        nonlocal position, stops
        result = call(verb, args)
        if verb in _MOVES and "app_instructions" in result:
            position = result["app_instructions"]
        stop = result.get("stop")
        if verb in ("run", "continue") and stop:
            stops.append(stop["app_instructions"])
        stops = [at for at in stops if at <= position]

    call("watch", [expression])
    step("run", [_BUDGET])
    for _ in range(2):
        step("continue", [_BUDGET])
    step("reverse-continue", [])
    if position > 1:
        step("rewind", [str(1 + int(rewind_at * (position // 2)))])
    step("last-write", [target])
    step("first-write", [target])
    step("value-at", [expression, str(int(value_at * (position + 1)))])
    earlier = sum(1 for at in stops if at < position)
    if kind in _SCALAR and earlier:
        step("seek-transition", [expression, str(1 + int(seek_at * earlier))])
    step("continue", [_BUDGET])
    call("print", [expression])
    call("x", [target, "4"])
    call("info", ["stats"])


class DebugSession:
    """Seed-chosen debugging rounds from one closed-loop client.

    One :class:`~repro.server.client.DebugClient` connection drives an
    in-process :class:`~repro.server.server.DebugServer` with one thread
    shard.  A pass is one round per pairing of the six benchmarks with
    the paper's six watch kinds, in a seed-chosen order, on the ``dise``
    backend: open, watch, three forward verbs, the six history verbs
    with seed-chosen ordinals, one more forward verb, three inspect
    verbs, close.  Covering every pairing keeps the mix of work the same
    at every seed.
    """

    name = "debug-session"

    def setup(self, work: Path, seed: int) -> dict:
        from repro.server.client import DebugClient
        from repro.server.server import ServerConfig, ServerThread
        from repro.workloads.benchmarks import (BENCHMARK_NAMES,
                                                WATCHPOINT_KINDS)

        # Every pairing of benchmark and watch kind, in a random order.
        # Each draw is stratified over the rounds, so the rounds of every
        # seed together cover [0, 1) evenly and the pass does the same
        # amount of work at every seed.
        rng = random.Random(seed)
        pairs = [(b, k) for b in BENCHMARK_NAMES for k in WATCHPOINT_KINDS]
        columns = []
        for _ in range(3):
            column = [(i + rng.random()) / len(pairs)
                      for i in range(len(pairs))]
            rng.shuffle(column)
            columns.append(column)
        plan = [(b, k, draws) for (b, k), draws in zip(pairs, zip(*columns))]
        rng.shuffle(plan)
        _resolve_watch_symbols()
        work = _fresh_dir(work)
        server = ServerThread(ServerConfig(
            workers=1, use_processes=False, state_dir=str(work / "server"),
            cache_dir=str(work / "server-cache")))
        server.__enter__()
        try:
            client = DebugClient("127.0.0.1", server.port)
            client.ping()
        except BaseException:
            server.__exit__(None, None, None)
            raise
        return {"plan": plan, "server": server, "client": client}

    def teardown(self, state: dict) -> None:
        try:
            state["client"].close()
        finally:
            state["server"].__exit__(None, None, None)

    def run_pass(self, state: dict, tap) -> PassResult:
        from repro.server.client import ServerError

        client = state["client"]
        commands: list[list] = []
        failed = 0
        meter = Meter()
        for benchmark, kind, draws in state["plan"]:
            started = time.perf_counter()
            session = client.open_session(benchmark=benchmark,
                                          backend="dise")
            open_ms = 1e3 * (time.perf_counter() - started)
            meter.op(open_ms)
            round_commands: list[list] = []

            def call(verb: str, args: list[str]) -> dict:
                nonlocal failed
                started = time.perf_counter()
                try:
                    result = client.request(verb, args,
                                            session=session)["result"]
                except ServerError as exc:
                    failed += 1
                    result = {"error": exc.code}
                meter.op(1e3 * (time.perf_counter() - started),
                         verb_class(verb))
                round_commands.append([verb, args, result])
                return result

            _play_round(benchmark, kind, draws, call)
            started = time.perf_counter()
            client.close_session(session)
            close_ms = 1e3 * (time.perf_counter() - started)
            meter.op(close_ms)
            meter.sample("open", open_ms + close_ms)
            meter.mark()
            commands.append(round_commands)
        return PassResult(
            wall_s=meter.scaled_s, total_s=meter.scaled_s, raw_s=meter.raw_s,
            op_ms=meter.op_ms, attempted=len(meter.op_ms), failed=failed,
            outputs={"commands": commands, "sim": tap.drain()},
            classes=meter.classes)

    def verify(self, state: dict, passes: list[PassResult]):
        """Replay the script on local dispatchers; every remote reply
        must equal the local one (the storm bench's parity idiom)."""
        from repro.debugger.dispatcher import CommandDispatcher, CommandError
        from repro.replay.reverse import ReplayDivergenceError
        from repro.server.protocol import REPLAY_DIVERGENCE
        from repro.workloads.benchmarks import build_benchmark

        recorded = passes[0].outputs["commands"]
        attempted = failed = 0
        for (benchmark, _, _), commands in zip(state["plan"], recorded):
            local = CommandDispatcher(build_benchmark(benchmark),
                                      backend="dise",
                                      record_fingerprints=True)
            for verb, args, remote in commands:
                try:
                    data = json.loads(json.dumps(
                        local.dispatch(verb, list(args)).data))
                except CommandError as exc:
                    data = {"error": exc.code}
                except ReplayDivergenceError:
                    data = {"error": REPLAY_DIVERGENCE}
                attempted += 1
                failed += data != remote
        return attempted, failed


WORKLOADS = {w.name: w for w in (PaperGrid(), Conformance(), DebugSession())}
