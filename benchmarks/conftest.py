"""Shared fixtures for the experiment-reproduction benchmarks.

The heavy work (building the 21-design dataset and running cross-design
cross-validation of the full RTL-Timer stack) happens once per session in
these fixtures; the individual benchmark files then assemble the tables and
figures of the paper from the cached results and only time the inexpensive
inference / analysis step with pytest-benchmark.

The dataset fixture goes through the :mod:`repro.runtime` engine: records
are loaded from the content-addressed artifact cache when possible and the
misses are elaborated in parallel (``REPRO_JOBS`` controls the fan-out,
``REPRO_CACHE=0`` forces a rebuild).  Everything is instrumented into a
session-wide :class:`~repro.runtime.report.RuntimeReport` which is written
to ``BENCH_runtime.json`` (``REPRO_BENCH_OUT`` overrides the path) when the
session ends — the CI benchmark-trend job uploads that file as a build
artifact on every commit.

Scale note: model sizes and the number of CV folds are reduced relative to
the paper (3 folds instead of 10, smaller boosted ensembles) so the whole
harness runs in minutes on a laptop; setting ``REPRO_BENCH_FAST=1`` (the CI
benchmark job does) shrinks them further for trend tracking rather than
paper-grade numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro.core import (
    BitwiseConfig,
    OverallConfig,
    RTLTimer,
    RTLTimerConfig,
    SignalwiseConfig,
    build_dataset,
    feature_cache_enabled,
)
from repro.core.dataset import DesignRecord
from repro.hdl.generate import BENCHMARK_SPECS
from repro.ml.preprocessing import group_kfold
from repro.runtime import RuntimeReport, activate, resolve_jobs, write_bench_report

#: CI benchmark-trend mode: smaller models, fewer folds, same pipeline shape.
FAST_MODE = os.environ.get("REPRO_BENCH_FAST", "0") == "1"

#: Number of cross-validation folds (the paper uses 10; 3 keeps runtime low).
N_FOLDS = 2 if FAST_MODE else 3

FAST_CONFIG = RTLTimerConfig(
    bitwise=BitwiseConfig(
        n_estimators=20 if FAST_MODE else 40,
        max_depth=5,
        max_train_endpoints_per_design=80 if FAST_MODE else 120,
        seed=7,
    ),
    signalwise=SignalwiseConfig(
        n_estimators=20 if FAST_MODE else 40,
        ranker_estimators=30 if FAST_MODE else 60,
        seed=7,
    ),
    overall=OverallConfig(n_estimators=15 if FAST_MODE else 30, seed=7),
)


@dataclass
class CVResults:
    """Cross-validated predictions of the full RTL-Timer stack."""

    records: List[DesignRecord]
    bitwise: Dict[str, Dict[str, float]] = field(default_factory=dict)
    signal_arrival: Dict[str, Dict[str, float]] = field(default_factory=dict)
    signal_ranking: Dict[str, Dict[str, float]] = field(default_factory=dict)
    overall: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fold_of: Dict[str, int] = field(default_factory=dict)

    def record(self, name: str) -> DesignRecord:
        return next(r for r in self.records if r.name == name)


@pytest.fixture(scope="session")
def runtime_report():
    """Session-wide instrumentation, flushed to BENCH_runtime.json at exit."""
    report = RuntimeReport(
        meta={
            "suite": "benchmarks",
            "fast_mode": FAST_MODE,
            "n_folds": N_FOLDS,
            "jobs": resolve_jobs(len(BENCHMARK_SPECS)),
            "feature_cache": feature_cache_enabled(),
        }
    )
    yield report
    write_bench_report(report)


@pytest.fixture(autouse=True)
def activated_report(runtime_report):
    """Collect module-level stage instrumentation (``ml.*``, ``features.*``)
    into the session report for every benchmark test, not only the CV fixture,
    so the CI benchmark-trend job sees the model-stack stages too.

    Every model-invoking benchmark runs a fixed ``pedantic(rounds=1)``
    workload (the auto-calibrated ``benchmark()`` loops wrap pure metric
    assembly), so these stage totals stay comparable across runs."""
    with activate(runtime_report):
        yield runtime_report


@pytest.fixture(scope="session")
def dataset_records(runtime_report) -> List[DesignRecord]:
    """The 21-design benchmark suite with labels (Table 3)."""
    return build_dataset(BENCHMARK_SPECS, report=runtime_report)


@pytest.fixture(scope="session")
def cv_results(dataset_records, runtime_report) -> CVResults:
    """Cross-design CV predictions for every design in the suite."""
    names = [record.name for record in dataset_records]
    results = CVResults(records=dataset_records)
    extract_calls_before = runtime_report.stage_calls.get(
        "features.extract_path_dataset", 0
    )

    with activate(runtime_report), runtime_report.stage("benchmarks.cross_validation"):
        for fold, (train_idx, test_idx) in enumerate(
            group_kfold(names, n_splits=N_FOLDS, seed=3)
        ):
            train_records = [dataset_records[i] for i in train_idx]
            test_records = [dataset_records[i] for i in test_idx]
            with runtime_report.stage("benchmarks.cv_fit"):
                timer = RTLTimer(FAST_CONFIG).fit(train_records)
            batch = timer.predict_batch(test_records, report=runtime_report)
            for record, prediction in zip(test_records, batch):
                results.bitwise[record.name] = prediction.bitwise_arrival
                results.signal_arrival[record.name] = prediction.signal_arrival
                results.signal_ranking[record.name] = prediction.signal_ranking
                results.overall[record.name] = prediction.overall
                results.fold_of[record.name] = fold

    if feature_cache_enabled():
        # The path-feature cache must collapse per-fold re-extraction: across
        # all folds there are at most two distinct extractions per (design,
        # variant) — the endpoint-subsampled training extraction and the
        # full-sampling prediction extraction — plus one unsampled reference
        # per design, regardless of the number of folds.
        extract_calls = (
            runtime_report.stage_calls.get("features.extract_path_dataset", 0)
            - extract_calls_before
        )
        n_variants = len(FAST_CONFIG.bitwise.variants)
        assert extract_calls <= len(dataset_records) * (2 * n_variants + 1), (
            f"feature cache failed to collapse CV re-extraction: {extract_calls} calls"
        )
        assert runtime_report.stage_calls.get("features.cache_hit", 0) > 0
    return results


@pytest.fixture(scope="session")
def comparison_split(dataset_records):
    """A single train/test split used by the model-comparison rows of Table 4.

    Smaller than the full CV so that the expensive alternative models (MLP,
    transformer, GNN) stay affordable.
    """
    train = dataset_records[:10]
    test = dataset_records[10:14]
    return train, test


def print_table(title: str, header: List[str], rows: List[List]) -> None:
    """Render a small aligned text table to stdout (captured with -s)."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), max((len(str(row[i])) for row in rows), default=0))
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
