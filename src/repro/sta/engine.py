"""Static timing analysis engine.

A single-corner, setup-only STA over :class:`~repro.sta.network.TimingNetwork`
graphs.  It propagates arrival times and transition times (slews) in
topological order using the NLDM-style cell delay model of
:mod:`repro.synth.library`, computes per-endpoint slack against a
:class:`~repro.sta.constraints.ClockConstraint`, and reports WNS / TNS —
the quantities PrimeTime provides in the paper's flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sta.constraints import ClockConstraint
from repro.sta.network import TimingNetwork, VertexKind

#: Retired knob: nothing in ``repro`` reads it; kept for callers that log it.
STA_KERNEL_ENV_VAR = "REPRO_STA_KERNEL"


@dataclass(slots=True)
class EndpointTiming:
    """Timing result at one endpoint."""

    name: str
    signal: str
    bit: int
    kind: str
    arrival: float
    slack: float
    driver: int

    @property
    def is_violated(self) -> bool:
        return self.slack < 0.0


@dataclass
class STAReport:
    """Complete result of one STA run."""

    design: str
    clock: ClockConstraint
    arrivals: np.ndarray
    slews: np.ndarray
    loads: np.ndarray
    endpoints: List[EndpointTiming]
    wns: float
    tns: float

    _by_name: Dict[str, EndpointTiming] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._by_name = {e.name: e for e in self.endpoints}

    def endpoint(self, name: str) -> EndpointTiming:
        """Look up one endpoint's timing by bit-level name."""
        return self._by_name[name]

    def register_endpoints(self) -> List[EndpointTiming]:
        return [e for e in self.endpoints if e.kind == "register"]

    def endpoint_arrivals(self) -> Dict[str, float]:
        """Bit-level endpoint name -> arrival time."""
        return {e.name: e.arrival for e in self.endpoints}

    def endpoint_slacks(self) -> Dict[str, float]:
        """Bit-level endpoint name -> slack."""
        return {e.name: e.slack for e in self.endpoints}

    def signal_arrivals(self) -> Dict[str, float]:
        """Word-level signal name -> max arrival time over its bits."""
        arrivals: Dict[str, float] = {}
        for endpoint in self.endpoints:
            current = arrivals.get(endpoint.signal)
            if current is None or endpoint.arrival > current:
                arrivals[endpoint.signal] = endpoint.arrival
        return arrivals

    def signal_slacks(self) -> Dict[str, float]:
        """Word-level signal name -> worst slack over its bits."""
        slacks: Dict[str, float] = {}
        for endpoint in self.endpoints:
            current = slacks.get(endpoint.signal)
            if current is None or endpoint.slack < current:
                slacks[endpoint.signal] = endpoint.slack
        return slacks

    def violated_endpoints(self) -> List[EndpointTiming]:
        return [e for e in self.endpoints if e.is_violated]

    def summary(self) -> Dict[str, float]:
        return {
            "wns": self.wns,
            "tns": self.tns,
            "n_endpoints": float(len(self.endpoints)),
            "n_violated": float(len(self.violated_endpoints())),
            "max_arrival": float(max((e.arrival for e in self.endpoints), default=0.0)),
        }


def compute_loads(network: TimingNetwork) -> np.ndarray:
    """Output load of every vertex: fanin pin caps of consumers plus wire load."""
    loads = np.zeros(len(network.vertices))
    for vertex in network.vertices:
        if vertex.cell is None:
            continue
        for fanin in vertex.fanins:
            loads[fanin] += vertex.cell.input_cap
    for endpoint in network.endpoints:
        loads[endpoint.driver] += endpoint.pin_capacitance
    for vertex in network.vertices:
        loads[vertex.id] += vertex.extra_load
    return loads


def propagate_vertex(vertex, clock: ClockConstraint, arrivals, slews, load) -> tuple:
    """The per-vertex NLDM update rule: (arrival, slew) given fanin state.

    This is the scalar statement of the timing recurrence that the array
    kernel vectorizes; :func:`analyze_reference` and the incremental oracle
    in ``tests/sta_oracle.py`` run it one vertex at a time.
    """
    if vertex.kind is VertexKind.CONST:
        return 0.0, clock.input_slew
    if vertex.kind is VertexKind.INPUT:
        return clock.input_delay, clock.input_slew
    if vertex.kind is VertexKind.REGISTER:
        cell = vertex.cell
        clk_to_q = cell.clk_to_q if cell is not None else 0.0
        resistance = cell.resistance if cell is not None else 0.0
        arrival = clk_to_q + resistance * load
        slew = cell.output_slew(load) if cell is not None else clock.input_slew
        return arrival, slew
    # Combinational gate.
    cell = vertex.cell
    assert cell is not None
    best = 0.0
    for fanin in vertex.fanins:
        candidate = arrivals[fanin] + vertex.derate * cell.delay(slews[fanin], load)
        if candidate > best:
            best = candidate
    return best, cell.output_slew(load)


def endpoint_timing(endpoint, clock: ClockConstraint, arrivals) -> EndpointTiming:
    """Slack of one endpoint under the given arrival state."""
    arrival = float(arrivals[endpoint.driver])
    required = clock.required_time(endpoint.setup_time)
    return EndpointTiming(
        name=endpoint.name,
        signal=endpoint.signal,
        bit=endpoint.bit,
        kind=endpoint.kind,
        arrival=arrival,
        slack=required - arrival,
        driver=endpoint.driver,
    )


def summarize_slacks(endpoints: Sequence[EndpointTiming]) -> tuple:
    """(WNS, TNS) over a list of endpoint timings."""
    negative = [e.slack for e in endpoints if e.slack < 0.0]
    wns = float(min(negative)) if negative else 0.0
    tns = float(sum(negative)) if negative else 0.0
    return wns, tns


def analyze(
    network: TimingNetwork,
    clock: ClockConstraint,
    loads: Optional[np.ndarray] = None,
) -> STAReport:
    """Run setup STA on ``network`` against ``clock``.

    The array kernel evaluates the :func:`propagate_vertex` recurrence one
    whole logic level per numpy sweep over the compiled CSR graph; it is
    bit-identical to :func:`analyze_reference` by contract.
    """
    n = len(network.vertices)
    arrivals = np.zeros(n)
    slews = np.full(n, clock.input_slew)
    compiled = network.compiled()
    cols = compiled.columns(network)
    if loads is None:
        loads = compiled.compute_loads(network, cols)
    compiled.sweep_all(cols, clock, arrivals, slews, loads)
    return _report(network, clock, arrivals, slews, loads)


def analyze_reference(
    network: TimingNetwork,
    clock: ClockConstraint,
    loads: Optional[np.ndarray] = None,
) -> STAReport:
    """The per-vertex :func:`propagate_vertex` loop: the test oracle of :func:`analyze`."""
    n = len(network.vertices)
    arrivals = np.zeros(n)
    slews = np.full(n, clock.input_slew)
    if loads is None:
        loads = compute_loads(network)
    for vertex_id in network.topological_order():
        vertex = network.vertices[vertex_id]
        arrivals[vertex_id], slews[vertex_id] = propagate_vertex(
            vertex, clock, arrivals, slews, loads[vertex_id]
        )
    return _report(network, clock, arrivals, slews, loads)


def _report(network, clock, arrivals, slews, loads) -> STAReport:
    endpoints: List[EndpointTiming] = [
        endpoint_timing(endpoint, clock, arrivals) for endpoint in network.endpoints
    ]
    wns, tns = summarize_slacks(endpoints)
    return STAReport(
        design=network.name,
        clock=clock,
        arrivals=arrivals,
        slews=slews,
        loads=loads,
        endpoints=endpoints,
        wns=wns,
        tns=tns,
    )


def arrival_delay_of(
    network: TimingNetwork, report: STAReport, vertex_id: int, fanin: int
) -> float:
    """Delay contribution of edge ``fanin -> vertex`` under the analyzed state."""
    vertex = network.vertices[vertex_id]
    if vertex.cell is None:
        return 0.0
    return vertex.derate * vertex.cell.delay(report.slews[fanin], report.loads[vertex_id])
