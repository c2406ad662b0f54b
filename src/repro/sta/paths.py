"""Timing path extraction.

Provides "slowest path" tracing: starting from an endpoint, walk backwards
always choosing the fanin that determined the max arrival, until a launch
point (register output or primary input) is reached.  The synthesis sizing
pass and the incremental what-if engine trace paths of gate-level netlists
this way.  Path sampling on the pseudo netlist (Section 3.2 of the paper)
runs on the array-native :class:`repro.core.path_index.PathIndex` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sta.engine import STAReport, arrival_delay_of
from repro.sta.network import TimingNetwork, VertexKind


@dataclass
class TimingPath:
    """A single timing path from a launch point to an endpoint driver.

    ``vertices`` is ordered from the launch point to the endpoint driver.
    """

    endpoint: str
    vertices: List[int]
    arrival: float

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def launch(self) -> int:
        return self.vertices[0]


def trace_critical_path(
    network: TimingNetwork, report: STAReport, endpoint_name: str
) -> TimingPath:
    """Trace the slowest path ending at ``endpoint_name``."""
    endpoint = next(e for e in network.endpoints if e.name == endpoint_name)
    vertices: List[int] = []
    current = endpoint.driver
    vertices.append(current)
    while True:
        vertex = network.vertices[current]
        if vertex.kind is not VertexKind.GATE or not vertex.fanins:
            break
        best_fanin = max(
            vertex.fanins,
            key=lambda f: report.arrivals[f] + arrival_delay_of(network, report, current, f),
        )
        vertices.append(best_fanin)
        current = best_fanin
    vertices.reverse()
    return TimingPath(
        endpoint=endpoint_name,
        vertices=vertices,
        arrival=float(report.arrivals[endpoint.driver]),
    )
