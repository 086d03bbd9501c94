"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 1 \\
        --seconds 30 --trace 0

A run sets the workload up several times (``setup_s`` is the median),
then repeats passes over the workload's fixed operations until
``--seconds`` have passed (at least one pass).  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced passes alternate with passes that
have spans around each layer, the interpreter tiers are probed, and
the line holds the per-layer metrics.  Lines above the JSON report the
run in words.  Spans of a traced run are written to
``.perfbench_out/trace-<workload>-seed<seed>.jsonl.gz``.

``--workload all`` runs the three workloads untraced and then traced.

Every run checks its outputs: failed operations (a wrong answer counts
as a failure) and a simulated digest that must read the same in every
pass, traced or not, and equal ``perfbench/digests.json`` at the
default seed.  ``--record-digest`` rewrites that file's entry.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("paper-grid", "conformance", "debug-session")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="run one benchmark workload and print its metrics")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="'all' runs every workload untraced and then "
                             "traced, each in its own process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="store this run's digest as the expected one "
                             "for the workload at this seed")
    return parser.parse_args(argv)


def isolate_environment(work: Path) -> None:
    """No developer setting may change what is measured."""
    for name in ("REPRO_SCALE", "REPRO_WORKERS", "REPRO_CACHE",
                 "REPRO_PROGRAMS_DIR", "REPRO_UPDATE_GOLDEN"):
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")


def digest_of(outputs) -> str:
    canonical = json.dumps(outputs, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_passes(workload, state, tap, seconds: float, tracer=None):
    """Passes until ``seconds`` have passed: (untraced, traced) lists.

    With a tracer, untraced and traced passes alternate (at least one
    of each), so both see the same warm-up and machine load.  The spans
    are installed for traced passes only; every machine and backend of
    a pass is built inside it, after the patching.
    """
    from perfbench.layers import install_spans
    from perfbench.tracing import Patcher

    def one_pass():
        result = workload.run_pass(state, tap)
        result.digest = digest_of(result.outputs)
        if plain:
            # Only the first pass's outputs are read again; holding every
            # pass's would make peak memory grow with the pass count.
            result.outputs = None
        return result

    plain, traced = [], []
    started = time.perf_counter()
    while (not plain or (tracer is not None and not traced)
           or time.perf_counter() - started < seconds):
        if tracer is None or len(traced) >= len(plain):
            plain.append(one_pass())
            continue
        patcher = Patcher()
        install_spans(patcher, tracer)
        try:
            traced.append(one_pass())
        finally:
            patcher.undo()
    return plain, traced


def measure(args, work: Path) -> dict:
    from perfbench import layers
    from perfbench.hostspeed import timed
    from perfbench.probe import tier_probe
    from perfbench.tracing import Patcher, SimTap, Tracer
    from perfbench.workloads import WORKLOADS
    from repro.cpu.machine import Machine

    workload = WORKLOADS[args.workload]
    base = Patcher()
    tap = SimTap()
    tap.install(base, Machine)
    tracer = Tracer() if args.trace else None
    try:
        setup_times = []
        state = None
        for index in range(SETUP_REPEATS):
            if state is not None:
                workload.teardown(state)
                state = None
            gc.collect()  # every set-up starts from the same heap
            state, wall, scale = timed(
                lambda: workload.setup(work / f"setup{index}", args.seed))
            setup_times.append(wall * scale)
        try:
            plain, traced = run_passes(workload, state, tap, args.seconds,
                                       tracer)
            verify_attempted, verify_failed = workload.verify(
                state, plain + traced)
        finally:
            workload.teardown(state)
    finally:
        base.undo()

    passes = plain + traced
    digests = {p.digest for p in passes}
    digest = sorted(digests)[0]
    attempted = sum(p.attempted for p in passes) + verify_attempted
    failed = sum(p.failed for p in passes) + verify_failed
    failed += len(digests) - 1  # every pass must simulate the same
    checked = digest_check(args, digest)
    failed += checked is False

    lines = [f"{args.workload}: seed {args.seed}, {len(plain)} untraced "
             f"and {len(traced)} traced passes, {attempted} operations, "
             f"{failed} failed",
             f"digest {digest[:16]} "
             + {True: "(matches digests.json)", False: "(MISMATCH)",
                None: "(not checked at this seed)"}[checked]]
    if args.trace:
        metrics, more = traced_metrics(args, plain, traced, tracer, lines)
        metrics.update(tier_probe())
        names = [m["name"] for m in benchmark_spec()["per_layer"]]
    else:
        metrics = {
            "setup_s": (layers.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_s": (layers.median(p.wall_s for p in plain), "s"),
            "op_gmean_ms": (layers.geomean(
                ms for p in plain for ms in p.op_ms), "ms"),
        }
        names = [m["name"] for m in benchmark_spec()["end_to_end"]]
        more = {}
    lines.append(f"pass wall {layers.median(p.raw_s for p in plain):.3f} s "
                 f"as measured; host speed scale "
                 f"{layers.median(p.scale for p in passes):.3f}")
    report(lines, plain, metrics, more)
    print("\n".join(lines))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name][0],
                               "unit": metrics[name][1]}
                        for name in names}}


def traced_metrics(args, plain, traced, tracer, lines):
    from perfbench import layers
    from perfbench.hostspeed import scaled

    summary = tracer.summarise()
    wall = sum(p.raw_s for p in traced)
    metrics, costs = layers.layer_metrics(summary, passes=len(traced),
                                          traced_wall=wall, tracer=tracer)
    # Span times come from several passes; scale them by their median
    # host speed.
    speed = layers.median(p.scale for p in traced)
    metrics = {name: (scaled(value, unit, speed), unit)
               for name, (value, unit) in metrics.items()}
    costs = {name: None if value is None else value * speed
             for name, value in costs.items()}
    metrics.update(layers.sim_metrics(plain[0].outputs["sim"]))
    # The first pass of a process also pays for warming the interpreter
    # up; leave it out of the comparison when there is another.
    untraced = layers.median(p.total_s for p in plain[1:] or plain)
    traced_wall = layers.median(p.total_s for p in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
    value, percentile, samples = layers.tail(
        [ms for p in plain for ms in p.op_ms])
    metrics["op_tail_ms"] = (value, "ms")
    metrics["op_tail.percentile"] = (percentile, "%")
    metrics["op_tail.samples"] = (samples, "count")
    metrics["harness.warm_pass_pct"] = (100.0 * layers.median(
        p.extra.get("warm_pass_s", 0.0) / p.wall_s for p in plain), "%")
    metrics["harness.sim_inst_per_s"] = (layers.median(
        p.extra.get("instructions", 0) / p.wall_s for p in plain), "inst/s")
    lines.append(f"tracing overhead: {traced_wall - untraced:+.3f} s per "
                 f"pass ({untraced:.3f} s untraced, {traced_wall:.3f} s "
                 f"traced); {len(tracer.spans)} spans")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    lines.append(f"spans written to {path.relative_to(ROOT)}")
    return metrics, costs


def report(lines, plain, metrics, costs) -> None:
    from perfbench import layers

    classes: dict[str, list[float]] = {}
    for p in plain:
        for name, samples in p.classes.items():
            classes.setdefault(name, []).extend(samples)
    for name, samples in classes.items():
        if samples:
            value, percentile, count = layers.tail(samples)
            lines.append(f"  {name:<8s} p50 {layers.median(samples):8.2f} ms"
                         f"  p{percentile:.0f} {value:8.2f} ms"
                         f"  ({count} samples)")
    grid = [p.extra["warm_pass_s"] for p in plain if "warm_pass_s" in p.extra]
    if grid:
        lines.append(f"  harness.warm_pass_s {layers.median(grid):.4f} s")
    for name, (value, unit) in sorted(metrics.items()):
        lines.append(f"  {name:<40s} {value:>16.6g} {unit}")
    for name, value in sorted(costs.items()):
        shown = "n/a (layer did not run)" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<40s} {shown:>16s}")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def digest_check(args, digest: str):
    """True/False against the committed digest; None if not checked."""
    try:
        expected = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        expected = {}
    entry = expected.get(args.workload, {})
    seed_free = args.workload == "paper-grid"
    if args.record_digest:
        expected[args.workload] = {"seed": None if seed_free else args.seed,
                                   "digest": digest}
        DIGESTS.write_text(json.dumps(expected, indent=2, sort_keys=True)
                           + "\n")
        return True
    if not seed_free and args.seed != entry.get("seed", DEFAULT_SEED):
        return None
    return entry.get("digest") == digest


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process (so
    peak memory and process state are per run); the last line maps each
    workload and trace setting to its result."""
    results: dict[str, dict] = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            print(out, end="", flush=True)
            results.setdefault(name, {})[f"trace{trace}"] = json.loads(
                out.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for runs in results.values()
                    for r in runs.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}"
              f"; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    isolate_environment(work)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
