"""Static timing analysis substrate (PrimeTime stand-in plus pseudo-STA)."""

from repro.sta.constraints import ClockConstraint
from repro.sta.network import (
    TimingEndpoint,
    TimingNetwork,
    TimingVertex,
    VertexKind,
    from_bog,
)
from repro.sta.csr import AttributeColumns, CSRTimingGraph
from repro.sta.engine import EndpointTiming, STAReport, analyze, compute_loads
from repro.sta.paths import TimingPath, trace_critical_path

__all__ = [
    "ClockConstraint",
    "TimingEndpoint",
    "TimingNetwork",
    "TimingVertex",
    "VertexKind",
    "from_bog",
    "AttributeColumns",
    "CSRTimingGraph",
    "EndpointTiming",
    "STAReport",
    "analyze",
    "compute_loads",
    "TimingPath",
    "trace_critical_path",
]
