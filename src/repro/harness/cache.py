"""Persistent on-disk record stores: experiment results and checkpoints.

Everything the harness persists goes through one :class:`RecordStore`:
a directory of records, one file per key, under ``.repro_cache/``
(configurable via ``REPRO_CACHE_DIR``; disable with ``REPRO_CACHE=0``).
A key is a content hash of a JSON identity payload plus the current
*code version* (a content hash of every ``repro`` source file), so a
re-run after an interrupt or a config tweak recomputes only what was
invalidated, and editing the simulator invalidates everything.  Every
record carries the same envelope — ``format``, ``code_version``, the
``key`` payload, and the ``result`` — and is written to a temporary
file and renamed into place, so a crash leaves the old record or none.

Two kinds of record share the store and differ only in where they live
and how the ``result`` is encoded:

* :class:`ResultCache` — experiment cells, ``RunResult`` as JSON;
* :class:`WarmCheckpointCache` — post-warm-up machine checkpoints under
  ``checkpoints/``, pickled.

Time-travel answers are not stored: a query re-executes bounded
checkpoint windows on demand (:mod:`repro.timetravel`).

A record that cannot be read or decoded — truncated, corrupt,
hand-edited, or written by another format or code version — is a
*miss*, never an error, so a bad cache can only cost time, not
correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

from repro.config import cache_enabled, default_cache_dir
from repro.results import RunResult

CACHE_FORMAT = 1

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Content hash of the ``repro`` package sources (cached per process)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


class RecordStore:
    """A directory of keyed, code-versioned records, one file per key.

    Subclasses choose the subdirectory, the file suffix, and the codec:
    :meth:`_encode`/:meth:`_decode` convert a value to and from the
    record's ``result`` field, :meth:`_dumps`/:meth:`_loads` a whole
    record to and from bytes (JSON here).
    """

    subdir = ""
    suffix = ".json"

    def __init__(self, directory: Optional[os.PathLike] = None, *,
                 enabled: bool = True):
        base = Path(directory) if directory else Path(default_cache_dir())
        self.directory = base / self.subdir
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key_for(self, payload: dict) -> str:
        """Content hash of an identity payload (plus code version)."""
        canonical = json.dumps(payload, sort_keys=True, default=repr)
        digest = hashlib.sha256()
        digest.update(code_version().encode())
        digest.update(b"\0")
        digest.update(canonical.encode())
        return digest.hexdigest()[:32]

    def path_for(self, key: str) -> Path:
        """Filesystem location of a key's record."""
        return self.directory / f"{key}{self.suffix}"

    def load(self, key: str):
        """The stored value for ``key``, or ``None`` on any miss.

        Every record that does not decode to a value of this store's
        current format and code version is a miss, counted as one.
        """
        if not self.enabled:
            return None
        try:
            record = self._loads(self.path_for(key).read_bytes())
            current = (record["format"] == CACHE_FORMAT
                       and record["code_version"] == code_version())
            value = self._decode(record["result"]) if current else None
        except Exception:  # noqa: BLE001 - an undecodable record is a miss
            value = None
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def store(self, key: str, value, payload: Optional[dict] = None) -> None:
        """Persist ``value`` under ``key`` (atomic write-and-rename)."""
        if not self.enabled:
            return
        data = self._dumps({
            "format": CACHE_FORMAT,
            "code_version": code_version(),
            "key": payload,
            "result": self._encode(value),
        })
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def clear(self) -> int:
        """Delete every stored record; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob(f"*{self.suffix}"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob(f"*{self.suffix}"))

    # -- codec -------------------------------------------------------------

    def _encode(self, value):
        return value.to_dict()

    def _decode(self, result):
        raise NotImplementedError

    def _dumps(self, record: dict) -> bytes:
        return json.dumps(record, sort_keys=True, default=repr).encode()

    def _loads(self, data: bytes) -> dict:
        return json.loads(data)


def default_cache() -> "ResultCache":
    """The environment-configured cache (possibly disabled)."""
    return ResultCache(default_cache_dir(), enabled=cache_enabled())


class ResultCache(RecordStore):
    """Experiment cells: :class:`RunResult` records as JSON, keyed by
    the cell's identity — benchmark, backend, scenario (watchpoint
    kind, conditional flag, expressions, backend options, machine
    config) and the
    :class:`~repro.harness.experiment.ExperimentSettings`."""

    def _decode(self, result) -> RunResult:
        run = RunResult.from_dict(result)
        run.from_cache = True
        return run


def default_warm_cache() -> "WarmCheckpointCache":
    """The environment-configured warm-checkpoint store."""
    return WarmCheckpointCache(default_cache_dir(), enabled=cache_enabled())


class WarmCheckpointCache(RecordStore):
    """Persisted post-warm-up machine checkpoints.

    Blobs live as pickles under ``<cache_dir>/checkpoints/``, keyed by
    a content hash of the *shared prefix identity* — benchmark, machine
    config, warm-up instruction count, timing fidelity.  Every
    experiment cell that differs only in its debug plan (backend,
    watchpoints, options) shares one prefix blob and resumes from it
    instead of re-simulating the warm-up interval.

    Only checkpoints of *undebugged* machines are stored here: those
    blobs are plain data (no live productions or handler closures) and
    pickle cleanly.
    """

    subdir = "checkpoints"
    suffix = ".pkl"

    def _encode(self, blob):
        return blob

    def _decode(self, blob):
        return blob

    def _dumps(self, record: dict) -> bytes:
        return pickle.dumps(record, pickle.HIGHEST_PROTOCOL)

    def _loads(self, data: bytes) -> dict:
        return pickle.loads(data)
