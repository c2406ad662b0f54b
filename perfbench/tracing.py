"""Benchmark-side layer tracing: spans around each layer's public entry points.

Nothing under ``src/`` is instrumented for this.  :data:`LAYER_ENTRY_POINTS`
names each entry point where its caller looks it up (for example
``repro.core.dataset.sta_analyze`` rather than ``repro.sta.engine.analyze``),
and :class:`Tracer` swaps a timing wrapper into that slot for the traced
run only.  Spans nest per thread; a span's self time is its duration minus
the time of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute where the caller looks it up, span name).  Span names
#: are ``<layer>.<entry point>``; the layer is the program's package.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.dataset", "generate_design", "hdl.generate_design"),
    ("repro.core.dataset", "parse_source", "hdl.parse_source"),
    ("repro.core.dataset", "analyze", "hdl.analyze"),
    ("repro.core.dataset", "build_variants", "bog.build_variants"),
    ("repro.core.dataset", "from_bog", "sta.from_bog"),
    ("repro.core.dataset", "sta_analyze", "sta.analyze"),
    ("repro.optimize.search", "sta_analyze", "sta.analyze"),
    ("repro.core.dataset", "synthesize_bog", "synth.synthesize_bog"),
    ("repro.optimize.space", "synthesize_bog", "synth.synthesize_bog"),
    ("repro.core.bitwise", "extract_path_dataset", "features.extract_path_dataset"),
    ("repro.core.signalwise", "extract_path_dataset", "features.extract_path_dataset"),
    ("repro.core.bitwise", "BitwiseArrivalModel.predict", "ml.predict_bitwise"),
    ("repro.core.signalwise", "SignalwiseModel.predict", "ml.predict_signalwise"),
    ("repro.core.overall", "OverallTimingModel.predict", "ml.predict_overall"),
    ("repro.core.pipeline", "RTLTimer.predict_batch", "ml.predict_batch"),
    ("repro.core.pipeline", "RTLTimer.fit", "ml.fit"),
    ("repro.core.pipeline", "annotate_design", "annotate.annotate_design"),
    ("repro.core.pipeline", "evaluate_candidates", "incremental.evaluate_candidates"),
    ("repro.incremental.whatif", "patches_for_options", "incremental.patches_for_options"),
    ("repro.optimize.search", "patches_for_options", "incremental.patches_for_options"),
    ("repro.incremental.engine", "IncrementalSTA.what_if", "incremental.what_if"),
    ("repro.optimize.search", "IncrementalEvaluator.score", "optimize.score"),
    ("repro.optimize.search", "run_search", "optimize.run_search"),
    ("repro.optimize.artifact", "run_search", "optimize.run_search"),
    ("repro.serve.service", "TimingService.predict_with_stats", "serve.predict_with_stats"),
    ("repro.serve.service", "TimingService.what_if", "serve.what_if"),
    ("repro.serve.service", "TimingService.record_for_source", "serve.record_for_source"),
    ("repro.serve.service", "TimingService._execute_batch", "serve.execute_batch"),
    ("repro.serve.http", "prediction_to_json", "serve.serialize"),
    ("repro.serve.http", "TimingRequestHandler._send_json", "serve.serialize"),
    ("repro.runtime.parallel", "build_dataset_parallel", "runtime.build_dataset"),
    ("repro.runtime.cache", "ArtifactCache.load_or_build", "runtime.load_or_build"),
    ("repro.serve.registry", "ModelRegistry.load_with_manifest", "registry.load"),
)

#: Entry points that return a context manager: the span covers the ``with``
#: block, which is where their work happens.
_CONTEXT_MANAGERS = frozenset({"incremental.what_if"})


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s")

    def __init__(self, name: str, parent: Optional[str], start: float):
        self.name, self.parent, self.start = name, parent, start
        self.end = start
        self.child_s = 0.0

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class _SpanContext:
    """Wraps a context manager so the span lasts as long as its ``with`` block."""

    def __init__(self, tracer: "Tracer", name: str, inner):
        self.tracer, self.name, self.inner = tracer, name, inner

    def __enter__(self):
        self.span = self.tracer.open(self.name)
        try:
            return self.inner.__enter__()
        except BaseException:
            self.tracer.close(self.span)
            raise

    def __exit__(self, *exc_info):
        try:
            return self.inner.__exit__(*exc_info)
        finally:
            self.tracer.close(self.span)


class Tracer:
    """Collects spans in memory while :attr:`enabled`; installs its wrappers."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1].name if stack else None, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.remove(span)
        if stack:
            stack[-1].child_s += span.total_s
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.counts = defaultdict(float)

    # -- installation ----------------------------------------------------------

    def wrap(self, function: Callable, name: str) -> Callable:
        tracer = self
        if name in _CONTEXT_MANAGERS:
            @functools.wraps(function)
            def context_wrapper(*args, **kwargs):
                inner = function(*args, **kwargs)
                return _SpanContext(tracer, name, inner) if tracer.enabled else inner
            return context_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(span)
            if name == "incremental.evaluate_candidates":
                # IncrementalSTA.last_stats of every projected candidate.
                tracer.count(
                    "incremental.recomputed_vertices",
                    sum(e.stats.n_recomputed for e in result if e.stats is not None),
                )
            return result
        return wrapper

    def install(self) -> None:
        for module_name, attribute, name in LAYER_ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(original, name))
            self._installed.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def by_name(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: total and self seconds and calls."""
    rows: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = rows.setdefault(span.name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        row["total_s"] += span.total_s
        row["self_s"] += span.self_s
        row["calls"] += 1
    return rows


def attributed_fraction(spans: List[Span], start: float, end: float) -> float:
    """Share of the window's wall time covered by at least one root span."""
    intervals = sorted(
        (max(span.start, start), min(span.end, end)) for span in spans if span.parent is None
    )
    covered, reach = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered / (end - start) if end > start else 0.0


def render_tree(spans: List[Span], wall_s: float) -> List[str]:
    """The span tree, one line per (parent, name) edge, heaviest first."""
    edges: Dict[Tuple[Optional[str], str], List[float]] = {}
    for span in spans:
        edge = edges.setdefault((span.parent, span.name), [0.0, 0.0, 0])
        edge[0] += span.total_s
        edge[1] += span.self_s
        edge[2] += 1
    children: Dict[Optional[str], List[str]] = defaultdict(list)
    for parent, name in edges:
        children[parent].append(name)
    lines = [f"{'span':<52}{'total_s':>10}{'self_s':>10}{'calls':>8}{'wall%':>8}"]

    def visit(parent: Optional[str], depth: int, seen: Tuple[str, ...]) -> None:
        for name in sorted(children[parent], key=lambda n: -edges[(parent, n)][0]):
            total, self_s, calls = edges[(parent, name)]
            share = 100.0 * total / wall_s if wall_s > 0 else 0.0
            lines.append(f"{'  ' * depth + name:<52}{total:>10.4f}{self_s:>10.4f}{calls:>8d}{share:>7.1f}%")
            if name not in seen:
                visit(name, depth + 1, seen + (name,))

    visit(None, 0, ())
    return lines


def layer_metrics(spans: List[Span], counts: Dict[str, float]) -> Dict[str, float]:
    """Self time per layer and per named entry point, plus the traced counts."""
    rows = by_name(spans)

    def self_of(*prefixes: str) -> float:
        return sum(row["self_s"] for name, row in rows.items() if name.startswith(prefixes))

    def calls_of(name: str) -> int:
        return int(rows.get(name, {}).get("calls", 0))

    predicts = ("ml.predict_bitwise", "ml.predict_signalwise", "ml.predict_overall", "ml.predict_batch")
    return {
        "hdl.self_s": self_of("hdl."),
        "bog.self_s": self_of("bog."),
        "sta.build_self_s": self_of("sta.from_bog"),
        "sta.sweep_self_s": self_of("sta.analyze"),
        "synth.self_s": self_of("synth."),
        "synth.calls": calls_of("synth.synthesize_bog"),
        "features.self_s": self_of("features."),
        "ml.predict_self_s": self_of(*predicts),
        "ml.predict_bitwise_self_s": self_of("ml.predict_bitwise"),
        "ml.predict_signalwise_self_s": self_of("ml.predict_signalwise"),
        "ml.predict_overall_self_s": self_of("ml.predict_overall"),
        "ml.fit_self_s": self_of("ml.fit"),
        "annotate.self_s": self_of("annotate."),
        "serve.serialize_self_s": self_of("serve.serialize"),
        "serve.self_s": self_of("serve."),
        "incremental.self_s": self_of("incremental."),
        "incremental.recomputed_vertices": counts.get("incremental.recomputed_vertices", 0.0),
        "optimize.score_self_s": self_of("optimize.score"),
        "optimize.self_s": self_of("optimize."),
        "runtime.build_self_s": self_of("runtime.build_dataset"),
        "runtime.load_or_build_self_s": self_of("runtime.load_or_build"),
        "registry.load_s": sum(row["total_s"] for name, row in rows.items() if name == "registry.load"),
    }
