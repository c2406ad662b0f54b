"""Register-oriented RTL processing: endpoint cones and path sampling.

Implements step 1 of the RTL-Timer workflow (Section 3.2 of the paper).  For
every register bit endpoint of a BOG "pseudo netlist":

* the endpoint's *input cone* is the transitive fanin up to driving registers
  and primary inputs,
* the *slowest path* is extracted by running pseudo-STA on the representation
  and backtracking from the endpoint,
* ``K`` additional *random paths* are sampled inside the cone, with ``K``
  proportional to the number of driving registers, so wide cones (whose
  post-synthesis restructuring is hardest to anticipate) contribute more
  evidence.

Cone widths and slowest paths come from a :class:`~repro.core.path_index.PathIndex`
built once per design; the per-endpoint reference sampler it replaced lives
in ``tests/path_oracle.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.path_index import PathIndex
from repro.sta.engine import STAReport
from repro.sta.network import TimingNetwork


@dataclass
class PathSample:
    """One sampled path ending at an endpoint."""

    endpoint: str
    vertices: List[int]
    is_critical: bool  # True for the pseudo-STA slowest path


@dataclass
class EndpointSamples:
    """All sampled paths plus cone statistics for one endpoint."""

    endpoint: str
    signal: str
    bit: int
    driver: int
    n_driving_registers: int
    paths: List[PathSample] = field(default_factory=list)


@dataclass(frozen=True)
class SamplingConfig:
    """Path sampling knobs.

    ``k_scale`` scales the number of random paths with the square root of the
    number of driving registers; ``k_max`` caps it (the paper only states the
    count is proportional to the driving-register count).  ``use_sampling``
    switches the random paths off entirely for the "w/o sample" ablation of
    Table 4.
    """

    k_scale: float = 1.0
    k_min: int = 1
    k_max: int = 4
    use_sampling: bool = True
    seed: int = 0


def sample_count(n_driving_registers: int, config: SamplingConfig) -> int:
    """Number of random paths for an endpoint with the given cone width."""
    if not config.use_sampling:
        return 0
    k = int(round(config.k_scale * math.sqrt(max(n_driving_registers, 1))))
    return max(config.k_min, min(config.k_max, k))


def sample_design_paths(
    network: TimingNetwork,
    report: STAReport,
    config: Optional[SamplingConfig] = None,
    endpoint_names: Optional[Sequence[str]] = None,
    index: Optional[PathIndex] = None,
) -> Dict[str, EndpointSamples]:
    """Sample paths for every (or the selected) register endpoint of a design.

    Endpoints are visited in network order and share one ``random.Random``
    seeded from ``config``, so the random paths of an endpoint depend on the
    exact endpoint subset.  Each endpoint name resolves to the first network
    endpoint of that name.  Pass ``index`` to reuse a :class:`PathIndex`
    already built for ``(network, report)``.
    """
    config = config or SamplingConfig()
    index = index or PathIndex(network, report)
    rng = random.Random(config.seed)
    wanted = set(endpoint_names) if endpoint_names is not None else None
    first_by_name: Dict[str, object] = {}
    for endpoint in network.endpoints:
        first_by_name.setdefault(endpoint.name, endpoint)
    result: Dict[str, EndpointSamples] = {}
    for endpoint in network.endpoints:
        if endpoint.kind != "register":
            continue
        if wanted is not None and endpoint.name not in wanted:
            continue
        target = first_by_name[endpoint.name]
        n_launch = index.launch_count[target.driver]
        samples = EndpointSamples(
            endpoint=target.name,
            signal=target.signal,
            bit=target.bit,
            driver=target.driver,
            n_driving_registers=n_launch,
        )
        samples.paths.append(
            PathSample(target.name, index.critical_path(target.driver), is_critical=True)
        )
        for _ in range(sample_count(n_launch, config)):
            samples.paths.append(
                PathSample(target.name, index.random_path(target.driver, rng), is_critical=False)
            )
        result[endpoint.name] = samples
    return result
