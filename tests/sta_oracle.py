"""Reference incremental re-timing: the per-vertex dirty-cone worklist.

This is the straightforward form of what :class:`repro.incremental.IncrementalSTA`
does with level-bucketed array sweeps: a heap of dirty vertices keyed by
topological position, one :func:`~repro.sta.engine.propagate_vertex` call per
pop, and a branch stopped as soon as a vertex reproduces its old arrival and
slew.  It is kept here as the oracle the array path must match in every float
and in ``n_recomputed`` (``tests/test_sta_kernels.py``).
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.incremental import IncrementalSTA
from repro.incremental.patches import TimingPatch
from repro.sta.engine import (
    STAReport,
    compute_loads,
    endpoint_timing,
    propagate_vertex,
    summarize_slacks,
)


def reference_what_if(
    engine: IncrementalSTA, patches: Sequence[TimingPatch]
) -> Tuple[STAReport, int]:
    """Re-time ``patches`` against ``engine``'s committed report, then revert.

    Returns the patched network's report and the number of vertices the
    worklist re-propagated.  Loads come from a full
    :func:`~repro.sta.engine.compute_loads` of the patched network, so the
    oracle shares no load bookkeeping with the engine it checks.
    """
    network = engine.network
    base = engine.report()
    applied: List[TimingPatch] = []
    try:
        for patch in patches:
            patch.apply(network)
            applied.append(patch)
        seeds: Set[int] = set()
        for patch in patches:
            seeds.update(patch.dirty_delay_vertices(network))
            seeds.update(patch.dirty_load_vertices(network))
        n = len(network.vertices)
        fanouts = network.fanouts()
        position = np.empty(n, dtype=np.int64)
        position[network.topological_order()] = np.arange(n)
        loads = compute_loads(network)
        arrivals = base.arrivals.copy()
        slews = base.slews.copy()

        heap = [(int(position[v]), v) for v in seeds]
        heapq.heapify(heap)
        queued: Set[int] = set(seeds)
        recomputed = 0
        while heap:
            _, vertex_id = heapq.heappop(heap)
            queued.discard(vertex_id)
            arrival, slew = propagate_vertex(
                network.vertices[vertex_id], engine.clock, arrivals, slews, loads[vertex_id]
            )
            recomputed += 1
            if arrival == arrivals[vertex_id] and slew == slews[vertex_id]:
                continue  # downstream values are unchanged by construction
            arrivals[vertex_id] = arrival
            slews[vertex_id] = slew
            for consumer in fanouts[vertex_id]:
                if consumer not in queued:
                    queued.add(consumer)
                    heapq.heappush(heap, (int(position[consumer]), consumer))

        endpoints = [
            endpoint_timing(endpoint, engine.clock, arrivals)
            for endpoint in network.endpoints
        ]
        wns, tns = summarize_slacks(endpoints)
        report = STAReport(
            design=network.name,
            clock=engine.clock,
            arrivals=arrivals,
            slews=slews,
            loads=loads,
            endpoints=endpoints,
            wns=wns,
            tns=tns,
        )
    finally:
        for patch in reversed(applied):
            patch.revert(network)
    return report, recomputed
