"""Reference path extractor: the per-endpoint, per-path Python implementation.

This is the straightforward form of register-oriented path sampling and the
Table 2 path features that :mod:`repro.core.path_index` vectorizes: a DFS
over each endpoint's input cone, a per-step ``max`` over fanin delays for the
slowest path, and per-path loops building the feature and token rows.  It is
kept here as the oracle the array-native extractor must match byte for byte
(``tests/test_path_extraction.py``).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.features import PATH_FEATURE_NAMES, PathDataset, _endpoint_rank_percent
from repro.core.path_index import TOKEN_FUNCTIONS
from repro.core.sampling import EndpointSamples, PathSample, SamplingConfig, sample_count
from repro.sta.engine import STAReport, arrival_delay_of
from repro.sta.network import TimingNetwork, VertexKind
from repro.sta.paths import trace_critical_path

# ---------------------------------------------------------------------------
# Cones and paths
# ---------------------------------------------------------------------------


def input_cone(network: TimingNetwork, driver: int) -> Set[int]:
    """All vertices in the transitive fanin of ``driver`` (inclusive)."""
    seen: Set[int] = set()
    stack = [driver]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(network.vertices[current].fanins)
    return seen


def driving_launch_points(network: TimingNetwork, driver: int) -> List[int]:
    """Launch points (registers / primary inputs) in the cone of ``driver``."""
    cone = input_cone(network, driver)
    return [v for v in cone if network.vertices[v].is_launch_point]


def sample_random_path(network: TimingNetwork, driver: int, rng: random.Random) -> List[int]:
    """One path from a launch point to ``driver``: a random fanin per step."""
    vertices = [driver]
    current = driver
    while True:
        vertex = network.vertices[current]
        if vertex.kind is not VertexKind.GATE or not vertex.fanins:
            break
        current = rng.choice(vertex.fanins)
        vertices.append(current)
    vertices.reverse()
    return vertices


def path_arrival(network: TimingNetwork, report: STAReport, vertices: Sequence[int]) -> float:
    """Arrival time accumulated along an explicit path under ``report``."""
    if not vertices:
        return 0.0
    arrival = float(report.arrivals[vertices[0]])
    for previous, current in zip(vertices, vertices[1:]):
        arrival += arrival_delay_of(network, report, current, previous)
    return arrival


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_endpoint_paths(
    network: TimingNetwork,
    report: STAReport,
    endpoint_name: str,
    config: SamplingConfig,
    rng: random.Random,
) -> EndpointSamples:
    """Sample the slowest path plus K random paths for one endpoint."""
    endpoint = next(e for e in network.endpoints if e.name == endpoint_name)
    launch_points = driving_launch_points(network, endpoint.driver)
    samples = EndpointSamples(
        endpoint=endpoint.name,
        signal=endpoint.signal,
        bit=endpoint.bit,
        driver=endpoint.driver,
        n_driving_registers=len(launch_points),
    )
    critical = trace_critical_path(network, report, endpoint_name)
    samples.paths.append(PathSample(endpoint=endpoint.name, vertices=critical.vertices, is_critical=True))
    for _ in range(sample_count(len(launch_points), config)):
        vertices = sample_random_path(network, endpoint.driver, rng)
        samples.paths.append(PathSample(endpoint=endpoint.name, vertices=vertices, is_critical=False))
    return samples


def sample_design_paths(
    network: TimingNetwork,
    report: STAReport,
    config: Optional[SamplingConfig] = None,
    endpoint_names: Optional[Sequence[str]] = None,
) -> Dict[str, EndpointSamples]:
    """Sample paths for every (or the selected) register endpoint of a design."""
    config = config or SamplingConfig()
    rng = random.Random(config.seed)
    wanted = set(endpoint_names) if endpoint_names is not None else None
    result: Dict[str, EndpointSamples] = {}
    for endpoint in network.endpoints:
        if endpoint.kind != "register":
            continue
        if wanted is not None and endpoint.name not in wanted:
            continue
        result[endpoint.name] = sample_endpoint_paths(network, report, endpoint.name, config, rng)
    return result


# ---------------------------------------------------------------------------
# Per-path features
# ---------------------------------------------------------------------------


def design_statistics(network: TimingNetwork) -> Dict[str, float]:
    n_sequential = float(network.register_count())
    n_combinational = float(network.gate_count())
    return {
        "n_sequential": n_sequential,
        "n_combinational": n_combinational,
        "n_total": n_sequential + n_combinational,
    }


def path_feature_vector(
    network: TimingNetwork,
    report: STAReport,
    vertices: Sequence[int],
    design_stats: Dict[str, float],
    rank_percent: float,
    endpoint_samples: EndpointSamples,
    fanouts: List[List[int]],
) -> np.ndarray:
    gate_vertices = [v for v in vertices if network.vertices[v].kind is VertexKind.GATE]
    functions = [network.vertices[v].cell.function for v in gate_vertices]
    fanout_counts = np.array([len(fanouts[v]) for v in vertices], dtype=float)
    loads = np.array([report.loads[v] for v in vertices], dtype=float)
    slews = np.array([report.slews[v] for v in vertices], dtype=float)
    arrival = path_arrival(network, report, list(vertices))
    driver = endpoint_samples.driver

    def count(function: str) -> float:
        return float(sum(1 for f in functions if f == function))

    values = {
        "design_rank_percent": rank_percent,
        "design_n_sequential": design_stats["n_sequential"],
        "design_n_combinational": design_stats["n_combinational"],
        "design_n_total": design_stats["n_total"],
        "cone_n_driving_regs": float(endpoint_samples.n_driving_registers),
        "path_pseudo_arrival": arrival,
        "path_n_levels": float(len(vertices)),
        "path_n_operators": float(len(gate_vertices)),
        "path_n_and": count("AND"),
        "path_n_or": count("OR"),
        "path_n_xor": count("XOR"),
        "path_n_not": count("NOT"),
        "path_n_mux": count("MUX"),
        "path_fanout_sum": float(fanout_counts.sum()),
        "path_fanout_avg": float(fanout_counts.mean()) if len(fanout_counts) else 0.0,
        "path_fanout_std": float(fanout_counts.std()) if len(fanout_counts) else 0.0,
        "path_load_sum": float(loads.sum()),
        "path_load_avg": float(loads.mean()) if len(loads) else 0.0,
        "path_load_std": float(loads.std()) if len(loads) else 0.0,
        "path_slew_avg": float(slews.mean()) if len(slews) else 0.0,
        "endpoint_fanout": float(len(fanouts[driver])),
        "endpoint_pseudo_arrival": float(report.arrivals[driver]),
    }
    return np.array([values[name] for name in PATH_FEATURE_NAMES])


def path_tokens(
    network: TimingNetwork,
    report: STAReport,
    vertices: Sequence[int],
    fanouts: List[List[int]],
) -> np.ndarray:
    """Per-vertex token features along a path (for the transformer model)."""
    tokens = np.zeros((len(vertices), len(TOKEN_FUNCTIONS) + 2))
    for row, vertex_id in enumerate(vertices):
        vertex = network.vertices[vertex_id]
        if vertex.cell is not None:
            label = vertex.cell.function
        else:
            label = vertex.kind.value
        if label not in TOKEN_FUNCTIONS:
            label = "const"
        tokens[row, TOKEN_FUNCTIONS.index(label)] = 1.0
        tokens[row, len(TOKEN_FUNCTIONS)] = len(fanouts[vertex_id])
        tokens[row, len(TOKEN_FUNCTIONS) + 1] = report.loads[vertex_id] / 10.0
    return tokens


def extract_path_dataset(
    record,
    variant: str = "sog",
    sampling: Optional[SamplingConfig] = None,
    endpoint_names: Optional[Sequence[str]] = None,
) -> PathDataset:
    """Reference ``extract_path_dataset`` (uncached)."""
    sampling = sampling or SamplingConfig()
    network = record.pseudo_networks[variant]
    report = record.pseudo_reports[variant]

    wanted = list(endpoint_names) if endpoint_names is not None else record.endpoint_names
    samples = sample_design_paths(network, report, sampling, wanted)

    design_stats = design_statistics(network)
    rank_percent = _endpoint_rank_percent(report, wanted)
    fanouts = network.fanouts()

    feature_rows: List[np.ndarray] = []
    token_rows: List[np.ndarray] = []
    groups: List[int] = []
    endpoint_labels: List[float] = []
    endpoint_signals: List[str] = []
    kept_names: List[str] = []

    for name in wanted:
        endpoint_samples = samples.get(name)
        if endpoint_samples is None:
            continue
        kept_names.append(name)
        endpoint_signals.append(endpoint_samples.signal)
        endpoint_labels.append(record.labels[name])
        local_index = len(kept_names) - 1
        for path in endpoint_samples.paths:
            feature_rows.append(
                path_feature_vector(
                    network,
                    report,
                    path.vertices,
                    design_stats,
                    rank_percent.get(name, 0.0),
                    endpoint_samples,
                    fanouts,
                )
            )
            token_rows.append(path_tokens(network, report, path.vertices, fanouts))
            groups.append(local_index)

    return PathDataset(
        design=record.name,
        variant=variant,
        features=np.array(feature_rows) if feature_rows else np.zeros((0, len(PATH_FEATURE_NAMES))),
        groups=np.array(groups, dtype=int),
        tokens=token_rows,
        endpoint_names=kept_names,
        endpoint_signals=endpoint_signals,
        endpoint_labels=np.array(endpoint_labels),
        endpoint_designs=[record.name] * len(kept_names),
    )
