"""Parallel, cached dataset construction.

Each benchmark design is elaborated completely independently of the others
(generate → parse → bit-blast → pseudo-STA → label synthesis), so dataset
construction is embarrassingly parallel — the same property the LZ DAQ
exploits across digitizer channels.  :func:`build_dataset_parallel` fans the
cache-missing specs out over a :class:`~concurrent.futures.ProcessPoolExecutor`
and reassembles results in spec order, so the output is element-wise
identical to a serial build (``repro.runtime.cache.record_fingerprint``
equality is covered by the determinism tests).

Worker count resolution: explicit ``jobs`` argument, else the ``REPRO_JOBS``
environment variable, else ``os.cpu_count()``; always clamped to the number
of tasks.  ``REPRO_JOBS=1`` forces the serial path, and any failure to stand
up the pool (sandboxed environments without fork, unpicklable config, a
worker crash taking down the pool) degrades gracefully to the same serial
path rather than failing the build.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import pickle
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, List, Optional, Sequence, Tuple

from repro.runtime import report as report_mod
from repro.runtime.cache import ArtifactCache, gc_paused, record_key, stamp_content_key

#: Environment variable fixing the worker count (``1`` = serial).
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(n_tasks: Optional[int] = None, jobs: Optional[int] = None) -> int:
    """Resolve the effective worker count (argument > env > cpu count)."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = None
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    if n_tasks is not None:
        jobs = min(jobs, max(1, n_tasks))
    return max(1, jobs)


def _reintern(value: Any) -> Any:
    """Re-intern the strings of a transported spec/config dataclass.

    Pool inputs arrive in the worker as pickle copies, so their short strings
    (``"sog"``, design names, ...) are *distinct* objects from the interned
    literals the worker's module code uses — whereas in an in-process build
    they are the very same objects.  Pickle encodes that sharing topology in
    its memo, so without re-interning, a worker-built record serializes to
    different bytes than a serially-built one even though the content is
    equal.  Interning restores the exact topology of the serial build.
    """
    if isinstance(value, str):
        # Raw Verilog sources also land here; interning only pays (and only
        # restores literal sharing) for short identifier-like strings.
        return sys.intern(value) if len(value) <= 256 else value
    if isinstance(value, tuple):
        return tuple(_reintern(item) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        replacements = {
            field.name: _reintern(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if isinstance(getattr(value, field.name), (str, tuple))
        }
        return dataclasses.replace(value, **replacements) if replacements else value
    return value


def _build_record_task(payload: Tuple[int, Any, Any]) -> Tuple[int, Any]:
    """Worker entry point: build one DesignRecord (must be module-level)."""
    from repro.core.dataset import build_design_record
    from repro.faults import fault_fires

    index, spec, config = payload
    if fault_fires("parallel.worker_crash", token=getattr(spec, "name", str(index))):
        os._exit(13)  # hard exit: breaks the pool, exercising the retry path
    return index, build_design_record(_reintern(spec), _reintern(config))


def _make_executor(max_workers: int) -> ProcessPoolExecutor:
    # Prefer fork where available: workers inherit sys.path and the already
    # imported package, and the hash seed — keeping set/dict iteration order,
    # and therefore build output, identical to the parent process.
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return ProcessPoolExecutor(max_workers=max_workers)
    return ProcessPoolExecutor(max_workers=max_workers, mp_context=context)


def parallel_build_records(
    specs: Sequence[Any],
    config: Any = None,
    jobs: Optional[int] = None,
) -> List[Any]:
    """Build DesignRecords for ``specs``, fanning out across processes.

    Results are returned in spec order regardless of completion order.
    Falls back to the serial path when ``jobs`` resolves to 1 or the pool
    cannot be used.
    """
    from repro.core.dataset import DatasetConfig, build_design_record

    specs = list(specs)
    config = config or DatasetConfig()
    jobs = resolve_jobs(len(specs), jobs)

    def serial() -> List[Any]:
        with report_mod.stage("dataset.build_serial"):
            return [build_design_record(spec, config) for spec in specs]

    if jobs <= 1 or len(specs) <= 1:
        return serial()

    tasks = [(index, spec, config) for index, spec in enumerate(specs)]
    results: dict = {}
    failed: List[Tuple[int, Any, Any]] = []
    try:
        with report_mod.stage("dataset.build_parallel"):
            with _make_executor(jobs) as pool:
                futures = []
                for task in tasks:
                    try:
                        futures.append((task, pool.submit(_build_record_task, task)))
                    except (OSError, ValueError, BrokenExecutor, RuntimeError):
                        failed.append(task)
                for task, future in futures:
                    # One crashed worker breaks its own future — and, for a
                    # BrokenProcessPool, every future still queued — but the
                    # records already returned stay good.  Collect only the
                    # losses; never discard completed work.
                    try:
                        index, record = future.result()
                        results[index] = record
                    except (OSError, ValueError, BrokenExecutor, pickle.PicklingError):
                        failed.append(task)
    except (OSError, ValueError, BrokenExecutor, pickle.PicklingError):
        # Pool never stood up (sandbox without fork, unpicklable config):
        # degrade to the serial path instead of failing the build.
        report_mod.incr("parallel_fallbacks")
        return serial()
    if failed:
        # Retry exactly the failed specs serially in-process; a genuine
        # per-design build error reproduces here with a clean traceback.
        report_mod.incr("parallel_worker_retries", len(failed))
        with report_mod.stage("dataset.build_retry_serial"):
            for index, spec, _ in failed:
                results[index] = build_design_record(spec, config)
    return [results[index] for index in range(len(specs))]


def build_dataset_parallel(
    specs: Optional[Sequence[Any]] = None,
    config: Any = None,
    *,
    jobs: Optional[int] = None,
    cache: Optional[ArtifactCache] = None,
    report: Optional[report_mod.RuntimeReport] = None,
) -> List[Any]:
    """Cached, parallel equivalent of the seed's serial ``build_dataset``.

    Per-spec records are first looked up in the content-addressed artifact
    cache; only the misses are built (in parallel) and stored back.  Pass
    ``cache=ArtifactCache(enabled=False)`` — or set ``REPRO_CACHE=0`` — to
    force a full rebuild, and ``report=`` (or an outer
    :func:`repro.runtime.report.activate` block) to collect per-stage wall
    time and cache hit/miss counters.
    """
    from repro.core.dataset import DatasetConfig
    from repro.hdl.generate import BENCHMARK_SPECS

    specs = list(BENCHMARK_SPECS if specs is None else specs)
    config = config or DatasetConfig()
    if cache is None:
        cache = ArtifactCache()

    scope = report_mod.activate(report) if report is not None else contextlib.nullcontext()
    with scope:
        with report_mod.stage("dataset.build"):
            keys = [record_key(spec, config) for spec in specs]
            with report_mod.stage("dataset.cache_lookup"), gc_paused():
                # One GC pause across the whole loop: re-enabling between
                # entries makes the collector walk the ever-growing heap of
                # already-loaded records once per lookup.
                records: List[Any] = [cache.get(key) for key in keys]
            missing = [index for index, record in enumerate(records) if record is None]
            if missing:
                built = parallel_build_records([specs[i] for i in missing], config, jobs)
                with report_mod.stage("dataset.cache_store"):
                    for index, record in zip(missing, built):
                        records[index] = record
                        cache.put(keys[index], record)
                # New stores may have pushed the directory past its size
                # budget (old code generations leave unreachable entries).
                cache.prune()
            for record, key in zip(records, keys):
                stamp_content_key(record, key)
            report_mod.incr("designs", len(specs))
    return records
