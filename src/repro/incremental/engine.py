"""Dirty-cone incremental static timing analysis.

:class:`IncrementalSTA` keeps a :class:`~repro.sta.engine.STAReport` for a
:class:`~repro.sta.network.TimingNetwork` up to date under local edits
described by :mod:`repro.incremental.patches` patch objects.  Instead of
re-propagating the whole graph, it

1. recomputes the output load of exactly the vertices a patch declares
   load-dirty, summing the contributions in the same order as
   :func:`repro.sta.engine.compute_loads` so the result is bit-identical,
2. buckets the patches' dirty vertices by logic level and re-sweeps them
   level by level with the full analysis' array kernel, using the frozen
   values of the previous report outside the affected cone, and stopping a
   branch as soon as a recomputed vertex reproduces its old arrival *and*
   slew exactly,
3. rebuilds only the endpoint timings whose driver arrival changed and
   re-derives WNS/TNS.

Because step 2 applies the same kernel to the same operands in the same
order as a full :func:`~repro.sta.engine.analyze` run, the incremental
report matches a from-scratch re-analysis of the patched network exactly —
the property tests in ``tests/test_incremental.py`` check agreement to 1e-9
over random patch sequences, and ``tests/sta_oracle.py`` holds the
per-vertex worklist it must match vertex for vertex.

The :meth:`IncrementalSTA.what_if` context manager applies a patch set,
yields the re-timed report, and reverts the patches on exit, which makes
multi-candidate optimization sweeps cheap: one frozen baseline, K small
cones, no re-synthesis.
"""

from __future__ import annotations

import contextlib
import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro.faults import fault_active
from repro.incremental.patches import TimingPatch
from repro.runtime import report as report_mod
from repro.sta.constraints import ClockConstraint
from repro.sta.csr import AttributeColumns
from repro.sta.engine import (
    STAReport,
    analyze,
    endpoint_timing,
    summarize_slacks,
)
from repro.sta.network import TimingNetwork


@dataclass(slots=True)
class PropagationStats:
    """Work accounting for one incremental re-timing pass."""

    n_patches: int
    n_dirty_seeds: int
    n_recomputed: int
    n_vertices: int
    n_endpoints_updated: int

    @property
    def cone_fraction(self) -> float:
        """Fraction of the graph actually re-propagated."""
        if self.n_vertices == 0:
            return 0.0
        return self.n_recomputed / self.n_vertices


class IncrementalSTA:
    """Incrementally maintained STA state for one network under one clock."""

    def __init__(
        self,
        network: TimingNetwork,
        clock: ClockConstraint,
        baseline: Optional[STAReport] = None,
    ):
        self.network = network
        self.clock = clock
        if baseline is not None and (
            baseline.clock != clock or len(baseline.arrivals) != len(network.vertices)
        ):
            baseline = None  # stale baseline: recompute rather than trust it
        self._report = baseline if baseline is not None else analyze(network, clock)
        self.last_stats: Optional[PropagationStats] = None
        self._endpoint_caps_cache: Optional[Dict[int, List[float]]] = None
        # Attribute-column cache of the array kernel path: valid for one
        # compiled structure; rows a patch set touched are re-gathered at the
        # start of the next pass (covering both committed and reverted edits).
        self._columns: Optional[AttributeColumns] = None
        self._columns_csr = None
        self._stale_columns: Set[int] = set()

    # -- public API ----------------------------------------------------------

    def report(self) -> STAReport:
        """The report for the network's current state."""
        return self._report

    def refresh(self) -> STAReport:
        """Recompute from scratch (e.g. after un-patched external edits)."""
        self._endpoint_caps_cache = None
        self._columns = None
        self._columns_csr = None
        self._stale_columns = set()
        self._report = analyze(self.network, self.clock)
        return self._report

    def apply(self, patches: Sequence[TimingPatch]) -> STAReport:
        """Apply ``patches`` permanently and re-time the affected cone."""
        for patch in patches:
            patch.apply(self.network)
        self._report = self._propagate(patches)
        return self._report

    @contextlib.contextmanager
    def what_if(self, patches: Sequence[TimingPatch]) -> Iterator[STAReport]:
        """Evaluate ``patches`` without committing them.

        Yields the re-timed report of the patched network; on exit every
        patch is reverted (in reverse order) and the engine's committed
        report is untouched.  The yielded report stays valid after exit as a
        *prediction* artifact — it describes the hypothetical network, not
        the restored one.
        """
        applied: List[TimingPatch] = []
        try:
            for patch in patches:
                patch.apply(self.network)
                applied.append(patch)
            yield self._propagate(patches)
        finally:
            for patch in reversed(applied):
                patch.revert(self.network)

    # -- internals -----------------------------------------------------------

    def _endpoint_caps(self) -> Dict[int, List[float]]:
        """Per-driver endpoint pin capacitances, in endpoint-list order.

        Cached for the engine's lifetime: patches never add, remove or
        re-drive endpoints (size changes are rejected), and external edits
        require :meth:`refresh`, which drops the cache.
        """
        if self._endpoint_caps_cache is None:
            caps: Dict[int, List[float]] = {}
            for endpoint in self.network.endpoints:
                caps.setdefault(endpoint.driver, []).append(endpoint.pin_capacitance)
            self._endpoint_caps_cache = caps
        return self._endpoint_caps_cache

    def _recompute_load(
        self, vertex_id: int, fanouts: List[List[int]], endpoint_caps: Dict[int, List[float]]
    ) -> float:
        """One vertex's output load, summed in :func:`compute_loads` order."""
        vertices = self.network.vertices
        total = 0.0
        for consumer_id in fanouts[vertex_id]:
            cell = vertices[consumer_id].cell
            if cell is not None:
                total += cell.input_cap
        for cap in endpoint_caps.get(vertex_id, ()):
            total += cap
        if not fault_active("incremental.extra_load"):
            # Debug fault point: dropping the extra-load term makes this
            # path disagree with compute_loads, which the fuzz campaign's
            # incremental-vs-full oracle must catch (see repro.faults).
            total += vertices[vertex_id].extra_load
        return total

    def _columns_for(self, compiled, dirty: Set[int]) -> AttributeColumns:
        """Cached attribute columns, with the patch-touched rows re-gathered.

        Rows touched by the previous pass are also refreshed: a ``what_if``
        reverts its patches *after* propagation, so the values gathered for
        that pass are stale by the time the next one starts.
        """
        if self._columns is None or self._columns_csr is not compiled:
            self._columns = compiled.columns(self.network)
            self._columns_csr = compiled
        else:
            refresh = self._stale_columns | dirty
            if refresh:
                self._columns.refresh(self.network, sorted(refresh))
        self._stale_columns = set(dirty)
        return self._columns

    def _propagate_array(self, seeds: Set[int], arrivals, slews, loads):
        """Dirty level-slice re-sweep sharing the full analysis' array kernel.

        Dirty vertices are bucketed by logic level and each bucket is
        re-evaluated with one :meth:`~repro.sta.csr.CSRTimingGraph.sweep`
        call; consumers of vertices whose values changed join the bucket of
        their (strictly higher) level.  Visit set, early stopping and every
        float are identical to the per-vertex worklist of
        ``tests/sta_oracle.py``.
        """
        compiled = self.network.compiled()
        cols = self._columns_for(compiled, seeds)
        level = compiled.level
        fo_ptr = compiled.fanout_indptr
        fo_idx = compiled.fanout_indices
        buckets: Dict[int, Set[int]] = {}
        pending: List[int] = []
        for v in seeds:
            lvl = int(level[v])
            bucket = buckets.get(lvl)
            if bucket is None:
                buckets[lvl] = {v}
                heapq.heappush(pending, lvl)
            else:
                bucket.add(v)
        changed_drivers: Set[int] = set()
        recomputed = 0
        while pending:
            lvl = heapq.heappop(pending)
            members = buckets.pop(lvl)
            ids = np.fromiter(sorted(members), dtype=np.int64, count=len(members))
            old_arrivals = arrivals[ids]
            old_slews = slews[ids]
            compiled.sweep(ids, cols, self.clock, arrivals, slews, loads)
            recomputed += len(ids)
            changed = ids[(arrivals[ids] != old_arrivals) | (slews[ids] != old_slews)]
            for v in changed:
                vertex_id = int(v)
                changed_drivers.add(vertex_id)
                for consumer in fo_idx[fo_ptr[vertex_id] : fo_ptr[vertex_id + 1]]:
                    consumer_id = int(consumer)
                    consumer_level = int(level[consumer_id])
                    bucket = buckets.get(consumer_level)
                    if bucket is None:
                        buckets[consumer_level] = {consumer_id}
                        heapq.heappush(pending, consumer_level)
                    else:
                        bucket.add(consumer_id)
        return changed_drivers, recomputed

    def _propagate(self, patches: Sequence[TimingPatch]) -> STAReport:
        network = self.network
        base = self._report
        n = len(network.vertices)
        if n != len(base.arrivals):
            raise ValueError(
                "network size changed under the incremental engine; patches must "
                "not add or remove vertices — call refresh() instead"
            )

        with report_mod.stage("incremental.propagate"):
            # Structural patches invalidated the adjacency caches on apply;
            # this call rebuilds them once if needed (raising on a cycle).
            fanouts = network.fanouts()

            dirty_delay: Set[int] = set()
            dirty_load: Set[int] = set()
            for patch in patches:
                dirty_delay.update(patch.dirty_delay_vertices(network))
                dirty_load.update(patch.dirty_load_vertices(network))

            arrivals = base.arrivals.copy()
            slews = base.slews.copy()
            loads = base.loads.copy()

            if dirty_load:
                endpoint_caps = self._endpoint_caps()
                for vertex_id in dirty_load:
                    loads[vertex_id] = self._recompute_load(vertex_id, fanouts, endpoint_caps)

            seeds = dirty_delay | dirty_load
            changed_drivers, recomputed = self._propagate_array(
                seeds, arrivals, slews, loads
            )

            endpoints = [
                endpoint_timing(endpoint, self.clock, arrivals)
                if endpoint.driver in changed_drivers
                else base.endpoints[index]
                for index, endpoint in enumerate(network.endpoints)
            ]
            updated = sum(1 for e in network.endpoints if e.driver in changed_drivers)
            wns, tns = summarize_slacks(endpoints)

        self.last_stats = PropagationStats(
            n_patches=len(patches),
            n_dirty_seeds=len(seeds),
            n_recomputed=recomputed,
            n_vertices=n,
            n_endpoints_updated=updated,
        )
        report_mod.incr("incremental_runs")
        report_mod.incr("incremental_patches", len(patches))
        report_mod.incr("incremental_recomputed_vertices", recomputed)

        return STAReport(
            design=network.name,
            clock=self.clock,
            arrivals=arrivals,
            slews=slews,
            loads=loads,
            endpoints=endpoints,
            wns=wns,
            tns=tns,
        )
