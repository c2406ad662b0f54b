"""Differential equivalence oracles run on every fuzz design.

Each oracle pits two independent implementations of the same contract
against each other on randomized inputs and reports human-readable
violation messages (empty list == clean):

* ``interpret_vs_simulate`` — the word-level interpreter against bit-blasted
  simulation of all four BOG variants, bit for bit, under random stimulus;
* ``incremental_vs_full`` — the dirty-cone incremental STA against a full
  re-analysis after random patch sequences (1e-9, bit-identical in practice);
* ``hist_vs_exact_gbm`` — the histogram tree fit against the exact
  reference fit (``fit_tree_reference``) on the design's extracted path
  features, plus ``FlatTree`` level-wise prediction against the per-row walk;
* ``build_determinism`` — a from-scratch rebuild and an artifact-cache
  round-trip must reproduce the record byte-for-byte
  (:func:`~repro.runtime.cache.record_fingerprint`);
* ``parallel_vs_serial`` — pool-worker record builds must be byte-identical
  to in-process builds;
* ``array_vs_reference_sta`` — the level-sweep array STA kernel against the
  per-vertex reference kernel, bit for bit, on pseudo networks with
  randomized derates and wire loads;
* ``packed_vs_scalar_sim`` — uint64 bit-packed batch simulation against the
  scalar evaluator, lane by lane, on every BOG variant;
* ``optimize_search`` — the search-based optimizer: replay determinism of a
  random short campaign, accepted-candidate scores against a from-scratch
  re-analysis, and Pareto-front dominance integrity through the pure
  predicate (catches the ``optimize.dominance`` fault).

A :class:`FuzzContext` lazily shares the expensive artifacts (analyzed
design, BOG variants, full DesignRecord) between the oracles of one design.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bog.builder import bit_name
from repro.bog.simulate import (
    PACKED_LANES,
    evaluate_nodes,
    evaluate_nodes_packed,
    evaluate_signal_words,
    pack_source_vectors,
    unpack_lane,
)
from repro.bog.transforms import build_variants
from repro.core.dataset import DesignRecord, build_design_record
from repro.core.features import extract_path_dataset
from repro.core.optimize import ranking_from_labels
from repro.fuzz.corpus import FuzzDesign
from repro.hdl.design import Design
from repro.hdl.interpret import Interpreter
from repro.incremental.engine import IncrementalSTA
from repro.incremental.patches import AddExtraLoad, RewireFanins, SetDerate, SwapCell
from repro.incremental.whatif import WhatIfConfig, patches_for_options
from repro.ml.tree import (
    MAX_BINS,
    DecisionTreeRegressor,
    NewtonTreeRegressor,
    fit_tree_reference,
    predict_tree_reference,
)
from repro.optimize.artifact import canonical_payload
from repro.optimize.pareto import dominates
from repro.optimize.search import SearchConfig, run_search
from repro.optimize.space import CandidateSpec
from repro.runtime.cache import ArtifactCache, record_fingerprint
from repro.runtime.parallel import parallel_build_records
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import analyze as sta_analyze
from repro.sta.engine import analyze_reference
from repro.sta.network import VertexKind, from_bog

#: Numeric tolerance of the incremental-vs-full oracle (matches the
#: property tests in ``tests/test_incremental.py``; both paths run the
#: same array kernel so agreement is bit-for-bit in practice).
STA_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OracleViolation:
    """One confirmed disagreement between two stack implementations."""

    oracle: str
    design: str
    seed: int
    size_class: str
    message: str


class FuzzContext:
    """Lazily shared per-design artifacts for one oracle pass."""

    def __init__(self, fuzz: FuzzDesign):
        self.fuzz = fuzz
        self._design: Optional[Design] = None
        self._variants = None
        self._record: Optional[DesignRecord] = None

    @property
    def design(self) -> Design:
        if self._design is None:
            self._design = self.fuzz.analyzed()
        return self._design

    @property
    def variants(self):
        if self._variants is None:
            self._variants = build_variants(self.design)
        return self._variants

    @property
    def record(self) -> DesignRecord:
        # Built with default naming so determinism oracles can compare against
        # pool-worker builds (which cannot pass a name for raw sources).
        if self._record is None:
            self._record = build_design_record(self.fuzz.source)
        return self._record


OracleFn = Callable[[FuzzContext, random.Random], List[str]]


def interpret_vs_simulate(
    ctx: FuzzContext, rng: random.Random, n_vectors: int = 4
) -> List[str]:
    """hdl.interpret vs bog.simulate, bit for bit, on every variant."""
    design = ctx.design
    interpreter = Interpreter(design)
    problems: List[str] = []
    driven = design.inputs + design.register_signals
    max_problems = 4  # one mismatch usually repeats across variants/vectors
    for vector in range(n_vectors):
        if len(problems) >= max_problems:
            break
        values = {signal.name: rng.getrandbits(signal.width) for signal in driven}
        reference = interpreter.evaluate_step(values)
        source_bits = {
            bit_name(signal.name, i): (values[signal.name] >> i) & 1
            for signal in driven
            for i in range(signal.width)
        }
        for variant, graph in ctx.variants.items():
            words = evaluate_signal_words(graph, source_bits)
            for signal in design.register_signals + design.outputs:
                if signal.name not in words:
                    continue
                if words[signal.name] != reference[signal.name]:
                    problems.append(
                        f"vector {vector}: {variant} computes "
                        f"{signal.name}={words[signal.name]:#x}, interpreter says "
                        f"{reference[signal.name]:#x} (stimulus {values!r})"
                    )
                    if len(problems) >= max_problems:
                        return problems
    return problems


def _random_patches(network, rng: random.Random, count: int):
    """A random acyclic patch mix, guaranteed to include one load patch."""
    gates = [v.id for v in network.vertices if v.kind is VertexKind.GATE]
    loadable = [
        v.id for v in network.vertices if v.kind in (VertexKind.GATE, VertexKind.REGISTER)
    ]
    if not loadable:
        return []
    position = {v: i for i, v in enumerate(network.topological_order())}
    patches = [AddExtraLoad(rng.choice(loadable), rng.uniform(0.5, 8.0))]
    attempts = 0
    while len(patches) < count and attempts < count * 4:
        attempts += 1
        kind = rng.choice(("derate", "swap", "load", "rewire"))
        if kind == "load":
            patches.append(AddExtraLoad(rng.choice(loadable), rng.uniform(0.1, 8.0)))
            continue
        if not gates:
            continue
        vertex = rng.choice(gates)
        if kind == "derate":
            patches.append(SetDerate(vertex, rng.uniform(0.4, 1.6)))
        elif kind == "swap":
            cell = network.vertices[vertex].cell
            alternative = network.library.upsize(cell) or network.library.downsize(cell)
            if alternative is not None:
                patches.append(SwapCell(vertex, alternative))
        else:
            fanins = network.vertices[vertex].fanins
            upstream = [
                u for u in position if position[u] < position[vertex] and u not in fanins
            ]
            if fanins and upstream:
                rewired = list(fanins)
                rewired[rng.randrange(len(rewired))] = rng.choice(upstream)
                patches.append(RewireFanins(vertex, rewired))
    return patches


def incremental_vs_full(
    ctx: FuzzContext, rng: random.Random, n_rounds: int = 3
) -> List[str]:
    """Dirty-cone incremental STA vs full re-analysis over random patches."""
    record = ctx.record
    network = record.synthesis.netlist
    engine = IncrementalSTA(network, record.clock, baseline=record.synthesis.report)
    problems: List[str] = []
    for round_index in range(n_rounds):
        patches = _random_patches(network, rng, rng.randint(1, 8))
        if not patches:
            return problems
        with engine.what_if(patches) as incremental:
            full = sta_analyze(network, record.clock)
            for label, inc_array, full_array in (
                ("arrivals", incremental.arrivals, full.arrivals),
                ("slews", incremental.slews, full.slews),
                ("loads", incremental.loads, full.loads),
            ):
                worst = float(np.max(np.abs(inc_array - full_array), initial=0.0))
                if worst > STA_TOLERANCE:
                    problems.append(
                        f"round {round_index}: incremental {label} diverge from full "
                        f"re-analysis by {worst:.3e} (> {STA_TOLERANCE}) after "
                        f"{len(patches)} patches"
                    )
            if (
                abs(incremental.wns - full.wns) > STA_TOLERANCE
                or abs(incremental.tns - full.tns) > STA_TOLERANCE
            ):
                problems.append(
                    f"round {round_index}: WNS/TNS mismatch "
                    f"({incremental.wns:.9f}/{incremental.tns:.9f} vs "
                    f"{full.wns:.9f}/{full.tns:.9f})"
                )
        if problems:
            return problems
    return problems


def _dyadic(values: np.ndarray) -> np.ndarray:
    """Quantize to multiples of 1/64 so sums/products are exact in float64.

    The histogram fit derives sibling histograms by parent-minus-child
    subtraction, so on arbitrary floats its per-node sums can drift from the
    exact reference's sorted cumulative sums by accumulated rounding — enough
    to flip gain ties between correlated features at deep nodes (found by
    this very fuzzer).  On dyadic inputs every histogram/cumsum/subtraction
    is exact, the two split searches' gains agree bit for bit at any depth, and
    the oracle tests the algorithmic contract (candidate cuts, partitions,
    tie-breaking, leaf constraints) instead of float-summation association.
    """
    return np.round(np.asarray(values, dtype=float) * 64.0) / 64.0


def hist_vs_exact_gbm(ctx: FuzzContext, rng: random.Random) -> List[str]:
    """Histogram vs exact reference tree fit (and flat vs per-row predict)."""
    dataset = extract_path_dataset(ctx.record, variant="sog")
    X = np.asarray(dataset.features, dtype=float)
    if len(X) < 2:
        return []
    # At most as many rows as the histogram bin budget keeps every feature
    # column's distinct-value count within the budget, the regime where
    # histogram and exact splits are defined to coincide.
    if len(X) > MAX_BINS:
        X = X[:MAX_BINS]
        groups = dataset.groups[:MAX_BINS]
    else:
        groups = dataset.groups
    X = _dyadic(X)
    y = _dyadic(np.asarray(dataset.endpoint_labels, dtype=float)[groups])
    problems: List[str] = []
    depth = rng.choice((2, 4, 6))
    for label, tree, statistics in (
        ("variance", DecisionTreeRegressor(max_depth=depth, min_samples_leaf=1), (y,)),
        # NewtonTreeRegressor.fit(X, y) fits gradients -y with unit hessians.
        ("newton", NewtonTreeRegressor(max_depth=depth), (-y, np.ones_like(y))),
    ):
        exact = fit_tree_reference(tree, X, *statistics)
        hist = tree.fit(X, y).flat_
        exact_pred = exact.predict(X)
        hist_pred = hist.predict(X)
        if not np.array_equal(exact_pred, hist_pred):
            worst = float(np.max(np.abs(exact_pred - hist_pred)))
            problems.append(
                f"{label} tree (depth {depth}, {len(X)} paths): histogram fit "
                f"diverges from the exact reference by {worst:.3e}"
            )
        for name, flat in (("exact", exact), ("hist", hist)):
            if not np.array_equal(flat.predict(X), predict_tree_reference(flat, X)):
                problems.append(
                    f"{label}/{name} tree: FlatTree predict diverges from the per-row walk"
                )
    return problems


def build_determinism(ctx: FuzzContext, rng: random.Random) -> List[str]:
    """Rebuild + cache round-trip must reproduce the record byte-for-byte."""
    first = record_fingerprint(ctx.record)
    rebuilt = build_design_record(ctx.fuzz.source)
    problems: List[str] = []
    if record_fingerprint(rebuilt) != first:
        problems.append("cache-off rebuild produced a different record fingerprint")
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
        cache = ArtifactCache(tmp, enabled=True)
        cache.put("fuzz-roundtrip", ctx.record)
        loaded = cache.get("fuzz-roundtrip")
        if loaded is None:
            problems.append("artifact cache lost the stored record")
        elif record_fingerprint(loaded) != first:
            problems.append("artifact-cache round-trip changed the record fingerprint")
    return problems


def parallel_vs_serial(ctx: FuzzContext, rng: random.Random) -> List[str]:
    """Pool-worker builds must be byte-identical to in-process builds."""
    serial = record_fingerprint(ctx.record)
    built = parallel_build_records([ctx.fuzz.source, ctx.fuzz.source], jobs=2)
    problems: List[str] = []
    for index, record in enumerate(built):
        fingerprint = record_fingerprint(record)
        if fingerprint != serial:
            problems.append(
                f"parallel worker build {index} fingerprint {fingerprint[:12]} != "
                f"serial {serial[:12]}"
            )
    return problems


def array_vs_reference_sta(ctx: FuzzContext, rng: random.Random) -> List[str]:
    """Array level-sweep STA kernel vs the per-vertex reference, bit for bit.

    Runs on pseudo networks lowered from two BOG variants (no synthesis, so
    the oracle stays cheap enough for the ``large`` size class) with
    randomized derates and wire loads thrown in to exercise the attribute
    columns, not just the compiled structure.
    """
    clock = ClockConstraint(period=1000.0)
    problems: List[str] = []
    for variant in ("sog", "xag"):
        network = from_bog(ctx.variants[variant])
        n = len(network.vertices)
        for _ in range(min(16, n)):
            vertex = network.vertices[rng.randrange(n)]
            vertex.derate = rng.uniform(0.4, 1.6)
            vertex.extra_load = rng.uniform(0.0, 6.0)
        reference = analyze_reference(network, clock)
        array = sta_analyze(network, clock)
        for label, ref_values, array_values in (
            ("loads", reference.loads, array.loads),
            ("arrivals", reference.arrivals, array.arrivals),
            ("slews", reference.slews, array.slews),
        ):
            if not np.array_equal(ref_values, array_values):
                worst = float(np.max(np.abs(ref_values - array_values)))
                problems.append(
                    f"{variant}: array kernel {label} diverge from the reference "
                    f"kernel by {worst:.3e} (bit-identical required)"
                )
        if reference.wns != array.wns or reference.tns != array.tns:
            problems.append(
                f"{variant}: WNS/TNS mismatch between kernels "
                f"({array.wns:.9f}/{array.tns:.9f} vs "
                f"{reference.wns:.9f}/{reference.tns:.9f})"
            )
        if problems:
            return problems
    return problems


def packed_vs_scalar_sim(
    ctx: FuzzContext, rng: random.Random, n_check_lanes: int = 6
) -> List[str]:
    """uint64 bit-packed batch simulation vs the scalar evaluator, per lane.

    Packs 64 random stimulus vectors per variant, then cross-checks a random
    sample of lanes (plus lane 0 and 63, the word boundaries) against the
    scalar reference evaluator on the identical assignment.
    """
    problems: List[str] = []
    for variant, graph in ctx.variants.items():
        names = list(graph.sources)
        vectors = [
            {name: rng.getrandbits(1) for name in names} for _ in range(PACKED_LANES)
        ]
        packed_values = evaluate_nodes_packed(graph, pack_source_vectors(vectors))
        lanes = {0, PACKED_LANES - 1}
        lanes.update(rng.sample(range(PACKED_LANES), n_check_lanes))
        for lane in sorted(lanes):
            scalar = evaluate_nodes(graph, vectors[lane])
            lane_values = unpack_lane(packed_values, lane)
            if lane_values != scalar:
                first = next(
                    i for i, (a, b) in enumerate(zip(lane_values, scalar)) if a != b
                )
                problems.append(
                    f"{variant}: packed lane {lane} diverges from scalar "
                    f"evaluation, first at node {first} "
                    f"({graph.nodes[first].type.value}: packed "
                    f"{lane_values[first]}, scalar {scalar[first]})"
                )
                break
        if problems:
            return problems
    return problems


def optimize_search(ctx: FuzzContext, rng: random.Random) -> List[str]:
    """Search-based optimizer: determinism, score honesty, front integrity.

    Three contracts on one short random campaign:

    * two runs of the same ``(seed, strategy, budget)`` serialize
      byte-identical canonical payloads (replay determinism);
    * every accepted candidate's logged incremental score is reproduced by a
      fresh engine *and* agrees with a from-scratch full re-analysis of the
      same patched netlist to ``STA_TOLERANCE`` (the incremental-vs-full
      contract the search budget rests on);
    * the returned Pareto front, audited through the *pure*
      :func:`repro.optimize.pareto.dominates`, contains no point beaten by
      the default-options baseline and no dominated pair — this is the check
      that catches the ``optimize.dominance`` fault.
    """
    record = ctx.record
    ranking = ranking_from_labels(record)
    if not ranking:
        return []
    strategy = rng.choice(("anneal", "evolution"))
    config = SearchConfig(
        strategy=strategy, budget=8, seed=rng.randrange(1 << 16), reanchor_every=4
    )
    cache = ArtifactCache(enabled=False)
    first = run_search(record, ranking, config, cache=cache)
    second = run_search(record, ranking, config, cache=cache)
    problems: List[str] = []
    if canonical_payload(first) != canonical_payload(second):
        problems.append(
            f"{strategy} campaign (seed {config.seed}, budget {config.budget}): "
            f"two runs of the same (seed, strategy, budget) produce different "
            f"canonical payloads — search is not replay-deterministic"
        )
        return problems

    # Score honesty: re-derive up to four accepted moves from their logged
    # specs and re-time them both incrementally and from scratch.
    netlist = record.synthesis.netlist
    baseline_report = record.synthesis.report
    whatif_config = WhatIfConfig()
    checked = 0
    for entry in first.trajectory:
        if entry.kind != "eval" or not entry.accepted or entry.spec is None:
            continue
        spec = CandidateSpec.from_dict(entry.spec)
        options = spec.realize(ranking, seed=config.seed)
        patches = patches_for_options(netlist, baseline_report, options, whatif_config)
        if patches:
            engine = IncrementalSTA(netlist, record.clock, baseline=baseline_report)
            with engine.what_if(patches) as incremental:
                full = sta_analyze(netlist, record.clock)
                worst = float(
                    np.max(np.abs(incremental.arrivals - full.arrivals), initial=0.0)
                )
                worst = max(
                    worst,
                    abs(incremental.wns - full.wns),
                    abs(incremental.tns - full.tns),
                )
                wns, tns = float(incremental.wns), float(incremental.tns)
            if worst > STA_TOLERANCE:
                problems.append(
                    f"accepted candidate at step {entry.step}: incremental score "
                    f"diverges from full re-analysis by {worst:.3e} "
                    f"(> {STA_TOLERANCE}) over {len(patches)} patches"
                )
        else:
            wns = float(baseline_report.wns)
            tns = float(baseline_report.tns)
        if abs(wns - entry.wns) > STA_TOLERANCE or abs(tns - entry.tns) > STA_TOLERANCE:
            problems.append(
                f"accepted candidate at step {entry.step}: logged score "
                f"({entry.wns:.9f}/{entry.tns:.9f}) does not match the re-derived "
                f"score ({wns:.9f}/{tns:.9f})"
            )
        checked += 1
        if checked >= 4 or problems:
            break
    if problems:
        return problems

    # Front integrity via the pure dominance predicate (the fault tooth only
    # disables filtering inside ``ParetoFront.insert``, never this check).
    points = first.front.points
    for point in points:
        if point.key != first.baseline.key and dominates(first.baseline, point):
            problems.append(
                f"front point {point.key[:12]} (wns={point.wns:.4f}, "
                f"area={point.area:.2f}) is dominated by the default-options "
                f"baseline (wns={first.baseline.wns:.4f}, "
                f"area={first.baseline.area:.2f})"
            )
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            if dominates(a, b) or dominates(b, a):
                problems.append(
                    f"front keeps a dominated pair: {a.key[:12]} "
                    f"(wns={a.wns:.4f}, area={a.area:.2f}) vs {b.key[:12]} "
                    f"(wns={b.wns:.4f}, area={b.area:.2f})"
                )
        if problems:
            break
    return problems


#: Registry: oracle name -> callable.  ``DEFAULT_CADENCE`` spaces out the
#: oracles whose cost is a full extra record build.
ORACLES: Dict[str, OracleFn] = {
    "interpret_vs_simulate": interpret_vs_simulate,
    "incremental_vs_full": incremental_vs_full,
    "hist_vs_exact_gbm": hist_vs_exact_gbm,
    "build_determinism": build_determinism,
    "parallel_vs_serial": parallel_vs_serial,
    "array_vs_reference_sta": array_vs_reference_sta,
    "packed_vs_scalar_sim": packed_vs_scalar_sim,
    "optimize_search": optimize_search,
}

DEFAULT_CADENCE: Dict[str, int] = {
    "interpret_vs_simulate": 1,
    "incremental_vs_full": 1,
    "hist_vs_exact_gbm": 1,
    "build_determinism": 5,
    "parallel_vs_serial": 12,
    "array_vs_reference_sta": 1,
    "packed_vs_scalar_sim": 1,
    "optimize_search": 3,
}
