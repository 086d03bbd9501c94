"""Single-cell experiment runner.

One *cell* is (benchmark, watchpoint kind, backend, conditional?,
options) -> normalized execution time, following the paper's
methodology:

* each run first executes a warm-up interval (caches, TLBs, predictor
  warm), then statistics reset and the measured interval runs;
* every implementation executes the same number of *application*
  instructions;
* overhead is the measured cycle count normalized to an undebugged
  baseline of the same benchmark (baselines are cached per settings).

A cell's identity is captured by the picklable, hashable
:class:`CellSpec`; :func:`run_spec` executes one spec (consulting the
on-disk :class:`~repro.harness.cache.ResultCache`), and the parallel
engine (:class:`repro.harness.runner.Runner`) fans many specs out over
worker processes.  Results are the unified, serializable
:class:`repro.results.RunResult`.

Unsupported combinations (e.g. hardware registers + INDIRECT) return a
cell marked unsupported, mirroring the missing bars of Figures 3 and 4.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Optional

from repro.config import DEFAULT_CONFIG, MachineConfig, default_scale
from repro.cpu.machine import Machine, MachineRun
from repro.debugger.backends import backend_class
from repro.debugger.session import Session
from repro.errors import UnsupportedWatchpointError
from repro.harness.cache import (ResultCache, WarmCheckpointCache,
                                 default_cache, default_warm_cache)
from repro.results import RunResult
from repro.workloads.benchmarks import (never_true_condition,
                                        shared_benchmark, watch_expression)
from repro.workloads.profiles import PROFILES


def _build_workload(name: str):
    """Resolve any workload name (benchmark, ``gen:<seed>``, ``.s``).

    A named benchmark is built once per process and shared by every
    cell, baseline and warm-up run on it: each backend runs on its own
    ``program.copy()`` and an undebugged machine never edits the
    program (see :func:`~repro.workloads.benchmarks.shared_benchmark`).
    ``gen:<seed>`` and ``.s`` names build a fresh instance each time:
    a ``.s`` file may change on disk between cells.

    The corpus resolver is imported lazily: ``repro.workloads.corpus``
    pulls in the fuzz package, whose campaign module imports the
    harness back.
    """
    if name in PROFILES:
        return shared_benchmark(name)
    from repro.workloads.corpus import build_workload

    return build_workload(name)

_DEFAULT_MEASURE = 50_000
_DEFAULT_WARMUP = 50_000


@dataclass(frozen=True)
class ExperimentSettings:
    """Instruction budgets for one experiment family.

    ``warm_start`` makes cells resume from a shared post-warm-up
    checkpoint of the *undebugged* machine instead of simulating their
    own warm-up prefix (see :func:`warm_checkpoint`).  It is opt-in:
    with it, the warm-up interval runs without the debug mechanism
    installed, so mechanism-induced microarchitectural pollution of the
    warm-up (e.g. DISE expansions in the caches) is not reproduced —
    architectural state is identical either way.
    """

    measure_instructions: int = _DEFAULT_MEASURE
    warmup_instructions: int = _DEFAULT_WARMUP
    warm_start: bool = False

    @classmethod
    def scaled(cls, scale: Optional[float] = None, *,
               warm_start: bool = False) -> "ExperimentSettings":
        """Settings multiplied by ``scale`` (default: ``REPRO_SCALE``)."""
        factor = default_scale() if scale is None else scale
        return cls(
            measure_instructions=int(_DEFAULT_MEASURE * factor),
            warmup_instructions=int(_DEFAULT_WARMUP * factor),
            warm_start=warm_start,
        )


@dataclass(frozen=True)
class CellSpec:
    """The identity of one experiment cell (picklable and hashable).

    ``label`` optionally overrides the backend name recorded on the
    result (the figures use it to distinguish strategy variants of the
    same backend); ``options`` holds the backend keyword options as a
    sorted tuple of pairs so the spec stays hashable.

    ``benchmark`` is any workload name :func:`~repro.workloads.corpus.
    build_workload` accepts — a named benchmark, a promoted fuzz spec
    (``gen:<seed>``) or a corpus ``.s`` file.  ``workload_digest``
    carries the workload's content digest into the cache key, so
    editing one ``.s`` source invalidates exactly that entry's cells.
    ``settings_override`` pins instruction budgets *per cell* (corpus
    entries run whole programs, so warm-up/measure budgets are an
    entry property, not a sweep property); it folds into the cache key
    through :meth:`effective_settings`, which every execution and
    caching path applies.
    """

    benchmark: str
    kind: str
    backend: str
    conditional: bool = False
    watch_expressions: Optional[tuple[str, ...]] = None
    label: Optional[str] = None
    config: Optional[MachineConfig] = None
    options: tuple[tuple[str, Any], ...] = ()
    workload_digest: Optional[str] = None
    settings_override: Optional["ExperimentSettings"] = None

    @classmethod
    def make(cls, benchmark: str, kind: str, backend: str, *,
             conditional: bool = False,
             watch_expressions: Optional[list[str]] = None,
             label: Optional[str] = None,
             config: Optional[MachineConfig] = None,
             interpreter: Optional[str] = None,
             workload_digest: Optional[str] = None,
             settings_override: Optional["ExperimentSettings"] = None,
             **options) -> "CellSpec":
        """Build a spec from :func:`run_cell`-style arguments.

        ``interpreter`` is a sweepable cell axis ("table", "legacy",
        or "compiled"): it folds into ``config``, so two cells that
        differ only in interpreter tier get distinct cache keys via
        the config payload.
        """
        if interpreter is not None:
            config = (config or DEFAULT_CONFIG).with_(interpreter=interpreter)
        return cls(
            benchmark=benchmark,
            kind=kind,
            backend=backend,
            conditional=conditional,
            watch_expressions=(tuple(watch_expressions)
                               if watch_expressions is not None else None),
            label=label,
            config=config,
            options=tuple(sorted(options.items())),
            workload_digest=workload_digest,
            settings_override=settings_override,
        )

    def effective_settings(
            self, settings: Optional["ExperimentSettings"] = None,
    ) -> "ExperimentSettings":
        """The budgets this cell actually runs with.

        A spec-level ``settings_override`` wins over the sweep-level
        ``settings``; with neither, the scaled defaults apply.  Every
        path — cache key, in-process execution, worker execution —
        resolves budgets through here, which is why the parallel
        runner needs no per-spec settings plumbing.
        """
        if self.settings_override is not None:
            return self.settings_override
        return settings or ExperimentSettings.scaled()

    def cache_payload(self,
                      settings: Optional["ExperimentSettings"]) -> dict:
        """The JSON-able identity hashed into the cache key."""
        payload = {
            "benchmark": self.benchmark,
            "kind": self.kind,
            "backend": self.backend,
            "conditional": self.conditional,
            "watch_expressions": (list(self.watch_expressions)
                                  if self.watch_expressions is not None
                                  else None),
            "label": self.label,
            "config": asdict(self.config) if self.config else None,
            "options": [list(pair) for pair in self.options],
            "settings": asdict(self.effective_settings(settings)),
        }
        # Only corpus-addressed cells carry a digest; omitting the key
        # otherwise keeps every pre-existing cache entry addressable.
        if self.workload_digest is not None:
            payload["workload_digest"] = self.workload_digest
        return payload


_BASELINE_CACHE: dict[tuple, MachineRun] = {}
_WARM_CACHE: dict[tuple, object] = {}


def clear_baseline_cache() -> None:
    """Drop all cached baseline runs and warm-start checkpoints, in
    memory *and* on disk.

    The on-disk stores cleared are the environment-configured defaults
    (``REPRO_CACHE_DIR``); caches pointed at explicit directories are
    the caller's to manage.
    """
    _BASELINE_CACHE.clear()
    _WARM_CACHE.clear()
    default_cache().clear()
    default_warm_cache().clear()


def warm_payload(benchmark: str, settings: "ExperimentSettings",
                 config: Optional[MachineConfig],
                 detailed_timing: bool = True) -> dict:
    """The JSON-able prefix identity hashed into the warm-cache key.

    Deliberately excludes everything cell-specific (backend, kind,
    watchpoints, options, measure budget): cells that differ only in
    debug plan share one prefix.
    """
    return {
        "warm_checkpoint": True,
        "benchmark": benchmark,
        "config": asdict(config) if config else None,
        "warmup_instructions": settings.warmup_instructions,
        "detailed_timing": detailed_timing,
    }


def warm_checkpoint(benchmark: str,
                    settings: Optional["ExperimentSettings"] = None,
                    config: Optional[MachineConfig] = None, *,
                    detailed_timing: bool = True,
                    cache: Optional[WarmCheckpointCache] = None) -> object:
    """The post-warm-up checkpoint of an undebugged ``benchmark`` run.

    Computed at most once per (benchmark, config, warm-up budget,
    timing fidelity): cached in memory per process and pickled on disk
    so parallel workers and later invocations load instead of
    re-simulating the prefix.
    """
    settings = settings or ExperimentSettings.scaled()
    mem_key = (benchmark, settings.warmup_instructions, config,
               detailed_timing)
    blob = _WARM_CACHE.get(mem_key)
    if blob is not None:
        return blob
    cache = default_warm_cache() if cache is None else cache
    disk_key = (cache.key_for(warm_payload(benchmark, settings, config,
                                           detailed_timing))
                if cache.enabled else None)
    if disk_key is not None:
        blob = cache.load(disk_key)
        if blob is not None:
            _WARM_CACHE[mem_key] = blob
            return blob
    machine = Machine(_build_workload(benchmark), config,
                      detailed_timing=detailed_timing)
    machine.run(settings.warmup_instructions)
    blob = machine.snapshot()
    _WARM_CACHE[mem_key] = blob
    if disk_key is not None:
        cache.store(disk_key, blob)
    return blob


def _warm_checkpoint_for(spec: CellSpec,
                         settings: "ExperimentSettings") -> Optional[object]:
    """The warm-start blob for ``spec``, or None when it must run cold.

    Backends that statically transform the program (binary rewriting)
    cannot restore a checkpoint of the original binary; they fall back
    to simulating their own warm-up.
    """
    if not settings.warm_start or settings.warmup_instructions <= 0:
        return None
    try:
        if backend_class(spec.backend).transforms_program:
            return None
    except Exception:  # noqa: BLE001 - unknown backend errors later
        return None
    detailed = dict(spec.options).get("detailed_timing", True)
    return warm_checkpoint(spec.benchmark, settings, spec.config,
                           detailed_timing=detailed)


def run_baseline(benchmark: str,
                 settings: Optional[ExperimentSettings] = None,
                 config: Optional[MachineConfig] = None, *,
                 cache: Optional[ResultCache] = None) -> MachineRun:
    """Undebugged run of ``benchmark`` (cached in memory and on disk)."""
    settings = settings or ExperimentSettings.scaled()
    key = (benchmark, settings.measure_instructions,
           settings.warmup_instructions, config)
    cached = _BASELINE_CACHE.get(key)
    if cached is not None:
        return cached
    cache = default_cache() if cache is None else cache
    payload = {
        "baseline": True,
        "benchmark": benchmark,
        "config": asdict(config) if config else None,
        "settings": asdict(settings),
    }
    disk_key = cache.key_for(payload) if cache.enabled else None
    if disk_key is not None:
        stored = cache.load(disk_key)
        if stored is not None and stored.stats is not None:
            result = MachineRun(stats=stored.stats, halted=stored.halted)
            _BASELINE_CACHE[key] = result
            return result
    machine = Machine(_build_workload(benchmark), config)
    machine.run(settings.warmup_instructions)
    machine.reset_stats()
    result = machine.run(settings.measure_instructions)
    _BASELINE_CACHE[key] = result
    if disk_key is not None:
        cache.store(disk_key, RunResult(
            benchmark, "baseline", "undebugged", 1.0,
            stats=result.stats, halted=result.halted), payload)
    return result


def execute_spec(spec: CellSpec,
                 settings: Optional[ExperimentSettings] = None) -> RunResult:
    """Run one cell in-process, bypassing the on-disk cache."""
    settings = spec.effective_settings(settings)
    started = time.perf_counter()
    warm_blob = _warm_checkpoint_for(spec, settings)
    options = dict(spec.options)
    if warm_blob is not None:
        options["warm_checkpoint"] = warm_blob
    session = Session(_build_workload(spec.benchmark), backend=spec.backend,
                      config=spec.config, **options)
    try:
        if spec.watch_expressions is None:
            condition = (never_true_condition(spec.kind)
                         if spec.conditional else None)
            session.watch(watch_expression(spec.kind), condition=condition)
        else:
            for expression in spec.watch_expressions:
                condition = (f"{expression} == 0x0BADF00DDEADBEEF"
                             if spec.conditional else None)
                session.watch(expression, condition=condition)
        debugged = session.build_backend()
    except UnsupportedWatchpointError as exc:
        return RunResult(spec.benchmark, spec.kind,
                         spec.label or spec.backend, None, spec.conditional,
                         unsupported_reason=str(exc),
                         wall_time=time.perf_counter() - started)

    if not debugged.warm_started:
        debugged.machine.run(settings.warmup_instructions)
    debugged.machine.reset_stats()
    result = debugged.machine.run(settings.measure_instructions)
    baseline = run_baseline(spec.benchmark, settings)
    stats = result.stats
    return RunResult(
        spec.benchmark,
        spec.kind,
        spec.label or spec.backend,
        result.overhead_vs(baseline),
        spec.conditional,
        stats.user_transitions,
        stats.spurious_transitions,
        stats=stats,
        baseline_stats=baseline.stats,
        halted=result.halted,
        stopped_at_user=result.stopped_at_user,
        wall_time=time.perf_counter() - started,
        warm_started=debugged.warm_started,
    )


def run_spec(spec: CellSpec,
             settings: Optional[ExperimentSettings] = None, *,
             cache: Optional[ResultCache] = None) -> RunResult:
    """Run one cell, consulting (and filling) the on-disk cache."""
    settings = spec.effective_settings(settings)
    cache = default_cache() if cache is None else cache
    key = cache.key_for(spec.cache_payload(settings)) if cache.enabled \
        else None
    if key is not None:
        stored = cache.load(key)
        if stored is not None:
            return stored
    result = execute_spec(spec, settings)
    if key is not None:
        cache.store(key, result, spec.cache_payload(settings))
    return result


def run_cell(benchmark: str, kind: str, backend: str,
             conditional: bool = False,
             settings: Optional[ExperimentSettings] = None,
             config: Optional[MachineConfig] = None,
             watch_expressions: Optional[list[str]] = None, *,
             label: Optional[str] = None,
             cache: Optional[ResultCache] = None,
             interpreter: Optional[str] = None,
             **backend_options) -> RunResult:
    """Run one experiment cell and normalize against the baseline.

    ``watch_expressions`` overrides the single standard expression (used
    by the many-watchpoints experiment).  ``label``, when given, is
    recorded as the result's backend name; ``cache`` overrides the
    default on-disk result cache; ``interpreter`` selects the
    interpreter tier for the cell (see :meth:`CellSpec.make`).  All
    are keyword-only.
    """
    spec = CellSpec.make(benchmark, kind, backend, conditional=conditional,
                         watch_expressions=watch_expressions, label=label,
                         config=config, interpreter=interpreter,
                         **backend_options)
    return run_spec(spec, settings, cache=cache)
