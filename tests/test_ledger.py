"""The perf ledger: every committed ``BENCH_<pr>.json`` stays readable.

Each record compares a change against its parent over alternating
pairs of ``perfbench/run.py`` runs.  For every workload and end-to-end
metric that ``BENCHMARK.json`` declares, it must carry both sides'
median and quartiles, and a verdict that agrees with the metric's
bound: ``unresolved`` exactly when the parent's interquartile range
is wider than the bound (relative to its median) and not every run of
the change beats every run of the parent; otherwise ``regression``
exactly when the change's median is worse than the parent's by more
than the bound; and ``gain`` only when the change was better in at
least nine pairs of ten and its median beats the parent's by more
than the parent's interquartile range.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LEDGER = sorted(ROOT.glob("BENCH_*.json"))
MIN_PAIRS = 10


def test_the_ledger_has_entries():
    assert LEDGER


@pytest.mark.parametrize("path", LEDGER, ids=lambda path: path.name)
def test_ledger_record_is_complete(path):
    record = json.loads(path.read_text())
    assert record["pr"] == int(re.fullmatch(r"BENCH_(\d+)\.json",
                                            path.name).group(1))
    assert isinstance(record["seed"], int)
    assert record["command"][:2] == BENCHMARK["command"]
    assert {"parent", "change"} <= set(record["revs"])
    assert record["host"]
    pairs = record["pairs"]
    assert len(pairs) >= MIN_PAIRS
    for workload in BENCHMARK["workloads"]:
        name = workload["name"]
        for metric in BENCHMARK["end_to_end"]:
            entry = record["end_to_end"][name][metric["name"]]
            sides = {}
            for side in ("parent", "change"):
                summary = entry[side]
                runs = [pair[side][name][metric["name"]] for pair in pairs]
                q1, median, q3 = statistics.quantiles(
                    runs, n=4, method="inclusive")
                assert summary["median"] == pytest.approx(median), side
                assert summary["q1"] == pytest.approx(q1), side
                assert summary["q3"] == pytest.approx(q3), side
                sides[side] = (summary, runs)
            assert entry["verdict"] == _verdict(
                metric, sides, entry["verdict"]), (name, metric["name"])


def _verdict(metric, sides, claimed):
    """The verdict the numbers support (``claimed`` settles the choice
    between ``within bound`` and ``gain`` when both hold)."""
    (parent, parent_runs), (change, change_runs) = (sides["parent"],
                                                    sides["change"])
    sign = 1 if metric["better"] == "lower" else -1
    iqr = parent["q3"] - parent["q1"]
    all_better = (max(sign * c for c in change_runs)
                  < min(sign * p for p in parent_runs))
    if iqr > metric["bound"] * parent["median"] and not all_better:
        return "unresolved"
    worse_by = sign * (change["median"] - parent["median"]) / parent["median"]
    if worse_by > metric["bound"]:
        return "regression"
    better_pairs = sum(sign * (c - p) < 0
                       for p, c in zip(parent_runs, change_runs))
    gap = sign * (parent["median"] - change["median"])
    is_gain = 10 * better_pairs >= 9 * len(parent_runs) and gap > iqr
    if claimed == "gain" and is_gain:
        return "gain"
    return "within bound"
