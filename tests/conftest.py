"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.harness.experiment import ExperimentSettings, clear_baseline_cache
from repro.isa import assemble


TINY_SETTINGS = ExperimentSettings(measure_instructions=6_000,
                                   warmup_instructions=4_000)

SMALL_SETTINGS = ExperimentSettings(measure_instructions=15_000,
                                    warmup_instructions=10_000)


@pytest.fixture
def tiny_settings() -> ExperimentSettings:
    return TINY_SETTINGS


@pytest.fixture
def small_settings() -> ExperimentSettings:
    return SMALL_SETTINGS


@pytest.fixture(autouse=True)
def _fresh_baseline_cache(tmp_path, monkeypatch):
    # Point the on-disk result cache at a per-test directory so tests
    # never touch (or depend on) a developer's .repro_cache, then drop
    # both cache layers.  Baselines are keyed by settings so sharing
    # would be safe, but keeping tests independent is worth the few
    # rebuilt baselines.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))
    yield
    clear_baseline_cache()


@pytest.fixture
def sequence_builds(monkeypatch):
    """Count DISE replacement-sequence builds (``Production.expand``
    calls) per trigger PC; the engine answers repeats from its memo."""
    from collections import Counter

    from repro.dise.production import Production

    builds = Counter()
    build = Production.expand

    def counted(production, trigger, pc=0):
        builds[pc] += 1
        return build(production, trigger, pc)

    monkeypatch.setattr(Production, "expand", counted)
    return builds


COUNT_LOOP = """
.data
counter: .quad 0
.text
main:
    lda r1, counter
loop:
    ldq r2, 0(r1)
    addq r2, 1, r2
    stq r2, 0(r1)
    cmpeq r2, {limit}, r3
    beq r3, loop
    halt
"""


@pytest.fixture
def count_loop_program():
    """A program that counts `counter` from 0 to 100 and halts."""
    return assemble(COUNT_LOOP.format(limit=100))


WATCH_LOOP = """
.data
hot:     .quad 100
other:   .quad 0
hot_ptr: .quad 0
arr:     .space 128
.text
main:
    lda r1, hot
    lda r2, other
    lda r3, hot_ptr
    stq r1, 0(r3)        ; hot_ptr = &hot
    lda r4, arr
    ldq r5, 0(r1)
loop:
    .stmt
    addq r6, 1, r6
    stq r6, 0(r2)        ; unwatched store
    .stmt
    stq r5, 0(r1)        ; silent store to hot
    .stmt
    and r6, 7, r7
    stq r7, 8(r4)        ; store into arr
    .stmt
    cmpeq r6, {iters}, r7
    beq r7, loop
    addq r5, 1, r5
    stq r5, 0(r1)        ; real change to hot
    .stmt
    halt
"""


def make_watch_loop(iters: int = 50):
    """A program with one silent-store-heavy watch target ``hot``."""
    return assemble(WATCH_LOOP.format(iters=iters))


@pytest.fixture
def watch_loop_program():
    return make_watch_loop()
