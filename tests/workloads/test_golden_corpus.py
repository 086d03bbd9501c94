"""Golden snapshots of the ``programs/`` corpus.

One JSON snapshot per ``.s`` workload pins everything a silent
toolchain or semantics drift could move: the assembled program's
content digest (assembler bit-stability), the undebugged final
architectural state and compared registers, and the canonical stop
sequence a watchpoint on the program's watch target produces under the
reference backend.  Mirrors the fuzz golden-seed idiom
(``repro.fuzz.golden``) for the hand-written corpus.

Regenerate after an intentional program or toolchain change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/workloads/test_golden_corpus.py
"""

import json
import os
import pathlib

import pytest

from repro.workloads.conformance import _data_symbols, _run
from repro.workloads.corpus import programs_corpus

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_FORMAT = 1
_REFERENCE_BACKEND = "virtual_memory"

_ENTRIES = {entry.name: entry for entry in programs_corpus()}


def _compute_golden(entry) -> dict:
    """The canonical record for one corpus entry (JSON-ready)."""
    program = entry.build()
    symbols = _data_symbols(program)
    base = _run(entry, program, symbols, None, "table", None)
    debugged = _run(entry, program, symbols, _REFERENCE_BACKEND, "table",
                    None)
    if base.error or debugged.error:
        raise RuntimeError(f"golden workload {entry.name} failed: "
                           f"{base.error or debugged.error}")
    return {
        "format": GOLDEN_FORMAT,
        "name": entry.name,
        "digest": program.content_digest(),
        "instructions": len(program.instructions),
        "self_checking": entry.self_checking,
        "watch": entry.watch,
        "halted": base.halted,
        "final_state": [[name, value] for name, value in base.state],
        "regs": list(base.regs),
        "stops": [{"breakpoints": list(stop.breakpoints),
                   "changes": [[name, value]
                               for name, value in stop.changes]}
                  for stop in debugged.stops],
    }


def _path_for(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name", sorted(_ENTRIES))
def test_golden_corpus_snapshot(name):
    entry = _ENTRIES[name]
    current = _compute_golden(entry)
    path = _path_for(name)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(current, indent=2, sort_keys=True)
                        + "\n")
        return
    assert path.exists(), (
        f"golden snapshot missing; run REPRO_UPDATE_GOLDEN=1 pytest "
        f"{__file__}")
    recorded = json.loads(path.read_text())
    drifted = [key for key in current
               if recorded.get(key) != current.get(key)]
    assert not drifted, (
        f"{name}: drift in {', '.join(drifted)} (see {path}; regenerate "
        f"with REPRO_UPDATE_GOLDEN=1 after an intentional change)")


def test_no_stale_snapshots():
    """Every snapshot on disk corresponds to a live ``.s`` workload."""
    if not GOLDEN_DIR.exists():
        pytest.skip("no snapshots yet")
    stale = [path.name for path in GOLDEN_DIR.glob("*.json")
             if path.stem not in _ENTRIES]
    assert not stale, f"snapshots without a programs/*.s source: {stale}"
