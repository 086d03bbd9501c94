"""The persistent on-disk record stores: one set of store tests over
all three record kinds (results, timeline answers, checkpoints)."""

import errno
import json
import os
import pickle

import pytest

from repro.harness.cache import (CACHE_FORMAT, ResultCache,
                                 TimelineQueryCache, WarmCheckpointCache,
                                 code_version)
from repro.harness.experiment import (_BASELINE_CACHE, clear_baseline_cache,
                                      run_baseline)
from repro.results import RunResult
from repro.timetravel.engine import QueryResult


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def make_result() -> RunResult:
    return RunResult("bzip2", "HOT", "dise", 1.31, user_transitions=4)


def test_store_then_load_hit(cache):
    key = cache.key_for({"benchmark": "bzip2", "kind": "HOT"})
    assert cache.load(key) is None
    cache.store(key, make_result())
    loaded = cache.load(key)
    assert loaded is not None
    assert loaded.from_cache
    assert loaded.overhead == 1.31
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)


def test_distinct_payloads_distinct_keys(cache):
    key1 = cache.key_for({"benchmark": "bzip2", "kind": "HOT"})
    key2 = cache.key_for({"benchmark": "bzip2", "kind": "COLD"})
    assert key1 != key2
    cache.store(key1, make_result())
    assert cache.load(key2) is None


class _Unencodable:
    """A value no store can encode: serialising it fails."""

    def to_dict(self):
        raise RuntimeError("boom")

    def __reduce__(self):
        raise RuntimeError("boom")


def make_query() -> QueryResult:
    return QueryResult("last-write", "hot", True, app_instructions=40,
                       pc=0x1000, address=0x2000, size=8, value=20,
                       old_value=5, state_fingerprint="f" * 16)


#: Every record kind: its store over a directory, a value it holds, and
#: a plain view of such values for comparing a loaded one.
KINDS = {
    "result": (ResultCache, make_result, RunResult.to_dict),
    "timeline": (TimelineQueryCache, make_query, QueryResult.to_dict),
    "warm": (WarmCheckpointCache, lambda: {"regs": list(range(32))},
             lambda blob: blob),
}


def each_store(tmp_path):
    """One fresh store per record kind, with a value and its view."""
    for kind, (store_class, make_value, plain) in KINDS.items():
        yield kind, store_class(tmp_path / kind), make_value, plain


def read_record(store, key):
    data = store.path_for(key).read_bytes()
    return pickle.loads(data) if store.suffix == ".pkl" else json.loads(data)


def write_record(store, key, record) -> None:
    data = (pickle.dumps(record) if store.suffix == ".pkl"
            else json.dumps(record).encode())
    store.path_for(key).write_bytes(data)


def test_code_version_mismatch_is_miss_not_error(tmp_path):
    for kind, store, make_value, _ in each_store(tmp_path):
        key = store.key_for({"cell": 1})
        store.store(key, make_value())
        record = read_record(store, key)
        record["code_version"] = "0" * 16
        write_record(store, key, record)
        assert store.load(key) is None, kind
        assert (store.hits, store.misses) == (0, 1), kind


def test_corrupt_record_is_miss_not_error(tmp_path):
    for kind, store, make_value, _ in each_store(tmp_path):
        key = store.key_for({"cell": 2})
        store.store(key, make_value())
        store.path_for(key).write_bytes(b"\x80\x05{not a record")
        assert store.load(key) is None, kind
        # Well-formed, wrong shape: not a dict, or missing its fields.
        write_record(store, key, ["not", "a", "dict"])
        assert store.load(key) is None, kind
        write_record(store, key, {"format": CACHE_FORMAT})
        assert store.load(key) is None, kind
        assert (store.hits, store.misses) == (0, 3), kind


def test_truncated_record_is_miss_not_error(tmp_path):
    # Simulate a crash mid-write: the record exists but is cut short at
    # every interesting byte boundary.  Each prefix must read as a miss.
    for kind, store, make_value, plain in each_store(tmp_path):
        key = store.key_for({"cell": "truncated"})
        store.store(key, make_value())
        full = store.path_for(key).read_bytes()
        for cut in (0, 1, len(full) // 2, len(full) - 1):
            store.path_for(key).write_bytes(full[:cut])
            assert store.load(key) is None, f"{kind}: {cut}-byte prefix hit"
        # The slot is silently rewritable afterwards.
        store.store(key, make_value())
        assert plain(store.load(key)) == plain(make_value()), kind


def test_interrupted_store_leaves_no_partial_record(tmp_path):
    # A crash while serializing the value must not leave the key's
    # final path (or a stray temp file) behind.
    for kind, store, _, _ in each_store(tmp_path):
        key = store.key_for({"cell": "crash"})
        with pytest.raises(RuntimeError):
            store.store(key, _Unencodable())
        assert not store.path_for(key).exists(), kind
        assert list(store.directory.glob("*.tmp")) == [], kind
        assert store.load(key) is None, kind


def test_wrong_cache_format_is_miss(tmp_path):
    for kind, store, make_value, _ in each_store(tmp_path):
        key = store.key_for({"cell": 3})
        store.store(key, make_value())
        record = read_record(store, key)
        record["format"] = CACHE_FORMAT + 1
        write_record(store, key, record)
        assert store.load(key) is None, kind


@pytest.fixture
def warm_cache(tmp_path):
    return WarmCheckpointCache(tmp_path / "warm")


def test_warm_cache_corrupt_pickle_is_miss_not_error(warm_cache):
    key = warm_cache.key_for({"benchmark": "bzip2"})
    warm_cache.store(key, {"pc": 0x1000})
    warm_cache.path_for(key).write_bytes(b"\x80\x05not a pickle")
    assert warm_cache.load(key) is None
    # A non-dict record (valid pickle, wrong shape) is also a miss.
    warm_cache.path_for(key).write_bytes(pickle.dumps(["not", "a", "dict"]))
    assert warm_cache.load(key) is None
    # So is a pickle naming a class that no longer exists.
    warm_cache.path_for(key).write_bytes(b"cno_such_module\nGone\n.")
    assert warm_cache.load(key) is None
    assert (warm_cache.hits, warm_cache.misses) == (0, 3)


def test_warm_cache_truncated_pickle_is_miss_not_error(warm_cache):
    # Simulate a crash mid-write: the checkpoint pickle exists but is
    # cut short.  Every prefix must read as a miss, never raise, and
    # the slot stays rewritable.
    key = warm_cache.key_for({"benchmark": "mcf"})
    warm_cache.store(key, {"regs": list(range(32))})
    full = warm_cache.path_for(key).read_bytes()
    for cut in range(len(full)):
        warm_cache.path_for(key).write_bytes(full[:cut])
        assert warm_cache.load(key) is None, f"prefix of {cut} bytes hit"
    warm_cache.store(key, {"regs": [7]})
    assert warm_cache.load(key) == {"regs": [7]}


def test_warm_cache_code_version_mismatch_is_miss(warm_cache):
    key = warm_cache.key_for({"benchmark": "gcc"})
    warm_cache.store(key, {"pc": 4})
    record = pickle.loads(warm_cache.path_for(key).read_bytes())
    record["code_version"] = "0" * 16
    warm_cache.path_for(key).write_bytes(pickle.dumps(record))
    assert warm_cache.load(key) is None
    # The layout older versions wrote (no envelope, just the blob) is a
    # miss too, even under the current code version.
    warm_cache.path_for(key).write_bytes(pickle.dumps(
        {"code_version": code_version(), "blob": {"pc": 4}}))
    assert warm_cache.load(key) is None
    assert (warm_cache.hits, warm_cache.misses) == (0, 2)


def test_warm_cache_interrupted_store_leaves_no_partial_record(
        warm_cache, monkeypatch):
    key = warm_cache.key_for({"benchmark": "twolf"})

    def boom(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(pickle, "dumps", boom)
    with pytest.raises(RuntimeError):
        warm_cache.store(key, {"pc": 8})
    assert not warm_cache.path_for(key).exists()
    assert list(warm_cache.directory.glob("*.tmp")) == []
    assert warm_cache.load(key) is None


class _FullDisk:
    """A file that takes half of each write and then fails."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, data):
        self._handle.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail(*args, **kwargs):
    raise OSError(errno.EIO, "Input/output error")


@pytest.mark.parametrize("point", ["write", "replace"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_failed_write_keeps_the_older_record(kind, point, tmp_path,
                                             monkeypatch):
    # Kill the store at each write point, with an older record already
    # at the key: the older record must survive whole, and no temp file
    # may remain.
    store_class, make_value, plain = KINDS[kind]
    store = store_class(tmp_path)
    key = store.key_for({"cell": "older"})
    store.store(key, make_value())
    with monkeypatch.context() as patch:
        if point == "write":
            fdopen = os.fdopen
            patch.setattr(os, "fdopen", lambda fd, *args, **kwargs:
                          _FullDisk(fdopen(fd, *args, **kwargs)))
        else:
            patch.setattr(os, "replace", _fail)
        with pytest.raises(OSError):
            store.store(key, make_value())
    assert plain(store.load(key)) == plain(make_value())
    assert list(store.directory.glob("*.tmp")) == []
    assert store.stores == 1


_RESULT = make_result().to_dict()


@pytest.mark.parametrize("kind, fields", [
    ("result", {"result": None}),
    ("result", {"result": "not a result"}),
    ("result", {"result": ["not", "a", "result"]}),
    ("result", {"result": {**_RESULT, "stats": ["not", "a", "dict"]}}),
    ("warm", {}),
], ids=["result-null", "result-string", "result-list", "stats-list",
        "warm-no-blob"])
def test_undecodable_current_record_is_a_counted_miss(kind, fields,
                                                       tmp_path):
    # A record of the current format and code version whose value does
    # not decode is a miss like any other, never an error or a hit.
    store = KINDS[kind][0](tmp_path)
    key = store.key_for({"cell": "malformed"})
    store.directory.mkdir(parents=True, exist_ok=True)
    write_record(store, key, {"format": CACHE_FORMAT,
                              "code_version": code_version(), "key": None,
                              **fields})
    assert store.load(key) is None
    assert (store.hits, store.misses) == (0, 1)


def test_disabled_cache_never_touches_disk(tmp_path):
    cache = ResultCache(tmp_path / "cache", enabled=False)
    key = cache.key_for({"cell": 4})
    cache.store(key, make_result())
    assert not (tmp_path / "cache").exists()
    assert cache.load(key) is None


def test_clear_removes_records(cache):
    for i in range(3):
        cache.store(cache.key_for({"cell": i}), make_result())
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


def test_code_version_is_stable_in_process():
    assert code_version() == code_version()
    assert len(code_version()) == 16


def test_run_baseline_populates_disk_store(tiny_settings, tmp_path):
    cache = ResultCache(tmp_path / "baselines")
    run_baseline("bzip2", tiny_settings, cache=cache)
    assert len(cache) == 1
    # A fresh process (empty in-memory dict) hits the disk record.
    _BASELINE_CACHE.clear()
    run_baseline("bzip2", tiny_settings, cache=cache)
    assert cache.hits == 1


def test_clear_baseline_cache_clears_disk_store(tiny_settings, monkeypatch,
                                                tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    run_baseline("bzip2", tiny_settings)
    assert (tmp_path / "store").is_dir()
    assert len(list((tmp_path / "store").glob("*.json"))) == 1
    clear_baseline_cache()
    assert not _BASELINE_CACHE
    assert len(list((tmp_path / "store").glob("*.json"))) == 0
