"""Feature extraction for RTL processing (Table 2 of the paper).

Three levels of features are extracted for every sampled path:

* **design-level** — the endpoint's criticality rank within its design (from
  pseudo-STA) and global size counters (sequential / combinational / total
  pseudo cells).  These let the model compare endpoints across designs whose
  synthesis effort differs.
* **cone-level** — the number of registers driving the endpoint's input cone.
* **path-level** — pseudo-STA arrival time, level count, operator counts per
  type, and sum/average/standard deviation statistics of fanout, load and
  slew along the path.

The same module also produces the per-path token sequences consumed by the
transformer path model and the whole-graph records consumed by the GNN
baseline.  Paths are sampled and measured on a
:class:`~repro.core.path_index.PathIndex` built once per extraction, byte
for byte equal to the per-path reference extractor in
``tests/path_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import DesignRecord
from repro.core.path_index import TOKEN_FUNCTIONS, PathIndex
from repro.core.sampling import SamplingConfig, sample_design_paths
from repro.ml.gnn import GraphData
from repro.runtime.cache import gc_paused
from repro.runtime.report import stage as _stage
from repro.sta.csr import KIND_GATE, KIND_REGISTER
from repro.sta.engine import STAReport
from repro.sta.network import TimingNetwork


#: Column names of the path feature matrix (order matters).
PATH_FEATURE_NAMES: Tuple[str, ...] = (
    "design_rank_percent",
    "design_n_sequential",
    "design_n_combinational",
    "design_n_total",
    "cone_n_driving_regs",
    "path_pseudo_arrival",
    "path_n_levels",
    "path_n_operators",
    "path_n_and",
    "path_n_or",
    "path_n_xor",
    "path_n_not",
    "path_n_mux",
    "path_fanout_sum",
    "path_fanout_avg",
    "path_fanout_std",
    "path_load_sum",
    "path_load_avg",
    "path_load_std",
    "path_slew_avg",
    "endpoint_fanout",
    "endpoint_pseudo_arrival",
)

@dataclass
class PathDataset:
    """Per-path features for one design under one BOG variant."""

    design: str
    variant: str
    features: np.ndarray  # (n_paths, n_features)
    groups: np.ndarray  # (n_paths,) endpoint index local to this dataset
    tokens: List[np.ndarray]  # per-path token sequences (for the transformer)
    endpoint_names: List[str]
    endpoint_signals: List[str]
    endpoint_labels: np.ndarray  # (n_endpoints,) post-synthesis arrival labels
    endpoint_designs: List[str]

    @property
    def n_paths(self) -> int:
        return len(self.features)

    @property
    def n_endpoints(self) -> int:
        return len(self.endpoint_names)


def extract_path_dataset(
    record: DesignRecord,
    variant: str = "sog",
    sampling: Optional[SamplingConfig] = None,
    endpoint_names: Optional[Sequence[str]] = None,
) -> PathDataset:
    """Extract the path-level dataset of one design for one BOG variant.

    Extraction is deterministic in its arguments, so results are served from
    the fingerprint-keyed :mod:`~repro.core.feature_cache` when possible —
    cross-validation folds, fit and predict all share one extraction per
    (record, variant, sampling, endpoint subset).  The
    ``features.extract_path_dataset`` stage therefore counts *actual*
    extractions; hits show up as ``features.cache_hit``.
    """
    from repro.core.feature_cache import cached_extract_path_dataset

    sampling = sampling or SamplingConfig()

    def extractor() -> PathDataset:
        # Sampling allocates one list per path and nothing cyclic; with the
        # collector on, those allocations trigger collections that walk the
        # whole heap of loaded records and models.
        with _stage("features.extract_path_dataset"), gc_paused():
            return _extract_path_dataset(record, variant, sampling, endpoint_names)

    return cached_extract_path_dataset(record, variant, sampling, endpoint_names, extractor)


def _extract_path_dataset(
    record: DesignRecord,
    variant: str,
    sampling: Optional[SamplingConfig],
    endpoint_names: Optional[Sequence[str]],
) -> PathDataset:
    sampling = sampling or SamplingConfig()
    network = record.pseudo_networks[variant]
    report = record.pseudo_reports[variant]

    wanted = list(endpoint_names) if endpoint_names is not None else record.endpoint_names
    index = PathIndex(network, report)
    samples = sample_design_paths(network, report, sampling, wanted, index=index)

    design_stats = _design_statistics(network)
    rank_percent = _endpoint_rank_percent(report, wanted)

    paths: List[List[int]] = []
    path_endpoint: List[int] = []  # kept-endpoint position of every path
    ranks: List[float] = []
    cone_widths: List[float] = []
    drivers: List[int] = []
    endpoint_labels: List[float] = []
    endpoint_signals: List[str] = []
    kept_names: List[str] = []

    for name in wanted:
        endpoint_samples = samples.get(name)
        if endpoint_samples is None:
            continue
        local_index = len(kept_names)
        kept_names.append(name)
        endpoint_signals.append(endpoint_samples.signal)
        endpoint_labels.append(record.labels[name])
        ranks.append(rank_percent.get(name, 0.0))
        cone_widths.append(float(endpoint_samples.n_driving_registers))
        drivers.append(endpoint_samples.driver)
        for path in endpoint_samples.paths:
            paths.append(path.vertices)
            path_endpoint.append(local_index)

    groups = np.array(path_endpoint, dtype=int)
    if paths:
        columns, tokens = index.path_columns(paths)
        driver_of_path = np.array(drivers, dtype=np.int64)[groups]
        columns.update(
            design_rank_percent=np.array(ranks)[groups],
            design_n_sequential=np.full(len(paths), design_stats["n_sequential"]),
            design_n_combinational=np.full(len(paths), design_stats["n_combinational"]),
            design_n_total=np.full(len(paths), design_stats["n_total"]),
            cone_n_driving_regs=np.array(cone_widths)[groups],
            endpoint_fanout=index.fanout_count[driver_of_path],
            endpoint_pseudo_arrival=report.arrivals[driver_of_path],
        )
        features = np.column_stack([columns[name] for name in PATH_FEATURE_NAMES])
    else:
        features, tokens = np.zeros((0, len(PATH_FEATURE_NAMES))), []

    return PathDataset(
        design=record.name,
        variant=variant,
        features=features,
        groups=groups,
        tokens=tokens,
        endpoint_names=kept_names,
        endpoint_signals=endpoint_signals,
        endpoint_labels=np.array(endpoint_labels),
        endpoint_designs=[record.name] * len(kept_names),
    )


def combine_path_datasets(datasets: Sequence[PathDataset]) -> PathDataset:
    """Concatenate per-design datasets, re-indexing endpoint groups."""
    datasets = [d for d in datasets if d.n_endpoints > 0]
    if not datasets:
        raise ValueError("no non-empty datasets to combine")
    features = np.vstack([d.features for d in datasets])
    tokens: List[np.ndarray] = []
    groups: List[np.ndarray] = []
    names: List[str] = []
    signals: List[str] = []
    labels: List[np.ndarray] = []
    designs: List[str] = []
    offset = 0
    for dataset in datasets:
        tokens.extend(dataset.tokens)
        groups.append(dataset.groups + offset)
        names.extend(dataset.endpoint_names)
        signals.extend(dataset.endpoint_signals)
        labels.append(dataset.endpoint_labels)
        designs.extend(dataset.endpoint_designs)
        offset += dataset.n_endpoints
    return PathDataset(
        design="+".join(sorted({d.design for d in datasets})),
        variant=datasets[0].variant,
        features=features,
        groups=np.concatenate(groups),
        tokens=tokens,
        endpoint_names=names,
        endpoint_signals=signals,
        endpoint_labels=np.concatenate(labels),
        endpoint_designs=designs,
    )


# ---------------------------------------------------------------------------
# Per-path features
# ---------------------------------------------------------------------------


def _design_statistics(network: TimingNetwork) -> Dict[str, float]:
    kind = network.compiled().kind
    n_sequential = float(np.count_nonzero(kind == KIND_REGISTER))
    n_combinational = float(np.count_nonzero(kind == KIND_GATE))
    return {
        "n_sequential": n_sequential,
        "n_combinational": n_combinational,
        "n_total": n_sequential + n_combinational,
    }


def _endpoint_rank_percent(report: STAReport, names: Sequence[str]) -> Dict[str, float]:
    """Criticality rank (0 = most critical) of each endpoint, as a percentage."""
    arrivals = []
    for name in names:
        try:
            arrivals.append((name, report.endpoint(name).arrival))
        except KeyError:
            continue
    arrivals.sort(key=lambda pair: -pair[1])
    total = max(len(arrivals) - 1, 1)
    return {name: 100.0 * index / total for index, (name, _) in enumerate(arrivals)}


# ---------------------------------------------------------------------------
# Design-level features and GNN graphs
# ---------------------------------------------------------------------------


def design_feature_vector(record: DesignRecord, variant: str = "sog") -> np.ndarray:
    """Design-level features used by the overall TNS/WNS model."""
    network = record.pseudo_networks[variant]
    report = record.pseudo_reports[variant]
    arrivals = np.array([e.arrival for e in report.endpoints if e.kind == "register"])
    stats = _design_statistics(network)
    if arrivals.size == 0:
        arrivals = np.zeros(1)
    return np.array(
        [
            stats["n_sequential"],
            stats["n_combinational"],
            stats["n_total"],
            float(len(record.labels)),
            float(arrivals.max()),
            float(arrivals.mean()),
            float(arrivals.std()),
            float(np.percentile(arrivals, 95)),
            record.clock.period,
        ]
    )


DESIGN_FEATURE_NAMES: Tuple[str, ...] = (
    "n_sequential",
    "n_combinational",
    "n_total",
    "n_endpoints",
    "pseudo_arrival_max",
    "pseudo_arrival_mean",
    "pseudo_arrival_std",
    "pseudo_arrival_p95",
    "clock_period",
)


def bog_graph_data(record: DesignRecord, variant: str = "sog") -> GraphData:
    """Whole-design graph record for the customized GNN baseline."""
    network = record.pseudo_networks[variant]
    fanouts = network.fanouts()
    levels = _vertex_levels(network)

    n = len(network.vertices)
    features = np.zeros((n, len(TOKEN_FUNCTIONS) + 2))
    for vertex in network.vertices:
        label = vertex.cell.function if vertex.cell is not None else vertex.kind.value
        if label not in TOKEN_FUNCTIONS:
            label = "const"
        features[vertex.id, TOKEN_FUNCTIONS.index(label)] = 1.0
        features[vertex.id, len(TOKEN_FUNCTIONS)] = len(fanouts[vertex.id])
        features[vertex.id, len(TOKEN_FUNCTIONS) + 1] = levels[vertex.id] / 10.0

    edge_src: List[int] = []
    edge_dst: List[int] = []
    for vertex in network.vertices:
        for fanin in vertex.fanins:
            edge_src.append(fanin)
            edge_dst.append(vertex.id)

    endpoint_nodes: List[int] = []
    endpoint_targets: List[float] = []
    endpoint_names: List[str] = []
    for endpoint in network.endpoints:
        if endpoint.kind != "register" or endpoint.name not in record.labels:
            continue
        endpoint_nodes.append(endpoint.driver)
        endpoint_targets.append(record.labels[endpoint.name])
        endpoint_names.append(endpoint.name)

    graph = GraphData(
        name=record.name,
        node_features=features,
        edge_src=np.array(edge_src, dtype=int),
        edge_dst=np.array(edge_dst, dtype=int),
        endpoint_nodes=np.array(endpoint_nodes, dtype=int),
        endpoint_targets=np.array(endpoint_targets),
    )
    # Stash the endpoint names for downstream evaluation.
    graph.endpoint_names = endpoint_names  # type: ignore[attr-defined]
    return graph


def _vertex_levels(network: TimingNetwork) -> List[int]:
    levels = [0] * len(network.vertices)
    for vertex_id in network.topological_order():
        vertex = network.vertices[vertex_id]
        if vertex.fanins:
            levels[vertex_id] = 1 + max(levels[f] for f in vertex.fanins)
    return levels
