"""Array-native index over one pseudo netlist for path sampling and features.

Path-feature extraction (Table 2 of the paper) used to walk the timing
network one Python object at a time: a DFS over every endpoint's input cone
to count its launch points, a per-step ``max`` over fanin delays to trace the
slowest path, and per-path loops building feature and token rows.
:class:`PathIndex` replaces all three with arrays built once per
(network, report) pair:

* per-vertex fanout counts, operator codes and a token-row table;
* the launch-point count of every vertex's input cone, from one bitset pass
  in topological order;
* each vertex's critical fanin, from one vectorized pass over the CSR fanin
  edges using the array STA kernel's ``arrival + derate*d`` expression and
  picking the first maximum, as Python ``max`` does.

Critical paths are then walks of that array, random paths keep the caller's
``random.Random`` draw order, and :meth:`PathIndex.path_columns` computes the
path-level feature columns and token rows of all paths of one length at
once.  Every value is computed with the same float64 operations in the same
order as the per-path reference extractor kept in ``tests/path_oracle.py``,
so the resulting datasets are byte-identical to it.

An index holds per-vertex arrays for one analysis state; it is built inside
one extraction and dropped with it, never cached on the network.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.sta.csr import KIND_GATE, KIND_INPUT, KIND_REGISTER, gather_edges
from repro.sta.engine import STAReport
from repro.sta.network import TimingNetwork, VertexKind

#: Token alphabet of the transformer path model; unknown labels map to "const".
TOKEN_FUNCTIONS: Tuple[str, ...] = ("AND", "OR", "XOR", "NOT", "MUX", "REG", "input", "const")

#: Gate functions counted per path (the ``path_n_<function>`` features).
OPERATOR_FUNCTIONS: Tuple[str, ...] = ("AND", "OR", "XOR", "NOT", "MUX")

#: Operator classes beyond :data:`OPERATOR_FUNCTIONS` (see ``PathIndex.op_code``).
_OTHER_GATE = len(OPERATOR_FUNCTIONS)
_NOT_A_GATE = _OTHER_GATE + 1

_OP_CLASSES = np.arange(_NOT_A_GATE + 1, dtype=np.int8)

#: Width of one launch-point bitset chunk, in 64-bit words.  Bounds the
#: bitset pass to ``n_vertices * 8 * _BITSET_WORDS`` bytes at a time.
_BITSET_WORDS = 16


class PathIndex:
    """Per-vertex arrays of one (network, report) pair for path extraction."""

    def __init__(self, network: TimingNetwork, report: STAReport):
        graph = network.compiled()
        cols = graph.columns(network)
        n = graph.n
        self.network = network
        self.report = report

        fanout_count = np.diff(graph.fanout_indptr).astype(np.float64)
        self.fanout_count = fanout_count
        is_gate = graph.kind == KIND_GATE
        fanin_counts = np.diff(graph.fanin_indptr)
        self._walkable: List[bool] = (is_gate & (fanin_counts > 0)).tolist()

        # Per-cell tables (row 0 = no cell): operator class and token code.
        functions = [cell.function for cell in cols.cells[1:]]
        op_of_row = np.array(
            [_OTHER_GATE]
            + [OPERATOR_FUNCTIONS.index(f) if f in OPERATOR_FUNCTIONS else _OTHER_GATE for f in functions],
            dtype=np.int8,
        )
        token_of_row = np.array([0] + [_token_code(f) for f in functions])
        token_of_kind = np.array([_token_code(kind.value) for kind in VertexKind])  # by KIND_* code
        # Operator class per vertex: a counted function, another gate, or no gate.
        self.op_code = np.where(is_gate, op_of_row[cols.cell_row], _NOT_A_GATE).astype(np.int8)
        # Token label: the cell function, else the vertex kind.
        token_code = np.where(cols.cell_row != 0, token_of_row[cols.cell_row], token_of_kind[graph.kind])

        width = len(TOKEN_FUNCTIONS)
        self.token_rows = np.zeros((n, width + 2))
        self.token_rows[np.arange(n), token_code] = 1.0
        self.token_rows[:, width] = fanout_count
        self.token_rows[:, width + 1] = report.loads / 10.0

        # Per-vertex constants of the edge delay into a vertex:
        #   d = derate * ((intrinsic + resistance*load) + slew_factor*slew_of_fanin)
        self._base = cols.param("intrinsic_delay") + cols.param("resistance") * report.loads
        self._slew_factor = cols.param("slew_factor")
        self._derate = cols.derate

        # Every vertex with fanins, in level-major order, with its CSR fanin
        # edges flattened in the same order (one segment per vertex).
        owners = graph.order[fanin_counts[graph.order] > 0].astype(np.int64)
        positions, counts = gather_edges(graph.fanin_indptr, owners)
        sources = graph.fanin_indices[positions].astype(np.int64)
        starts = np.zeros(owners.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        self.launch_count: List[int] = self._launch_counts(graph, owners, sources, starts).tolist()
        self._critical_fanin: List[int] = self._critical_fanins(n, owners, sources, counts, starts)

    # -- index passes ----------------------------------------------------------

    def _launch_counts(self, graph, owners, sources, starts) -> np.ndarray:
        """Launch points (inputs / registers) in every vertex's input cone.

        The cone is inclusive, as in the reference cone DFS, so a launch
        point counts itself.  Bitsets are OR-ed over fanins one level at a
        time; wide designs run the pass once per chunk of launch points.
        """
        n = graph.n
        launch = np.flatnonzero((graph.kind == KIND_INPUT) | (graph.kind == KIND_REGISTER))
        counts = np.zeros(n, dtype=np.int64)
        if not launch.size:
            return counts
        levels = graph.level[owners]
        bounds = [0, *(np.flatnonzero(np.diff(levels)) + 1).tolist(), owners.size]
        edge_bounds = np.append(starts, sources.size)[bounds].tolist()
        per_level = [
            (owners[v0:v1], sources[e0:e1], starts[v0:v1] - e0)
            for v0, v1, e0, e1 in zip(bounds, bounds[1:], edge_bounds, edge_bounds[1:])
        ]
        chunk_bits = 64 * _BITSET_WORDS
        for first in range(0, launch.size, chunk_bits):
            members = launch[first : first + chunk_bits]
            offset = np.arange(members.size)
            bits = np.zeros((n, (members.size + 63) // 64), dtype=np.uint64)
            bits[members, offset // 64] = np.left_shift(np.uint64(1), (offset % 64).astype(np.uint64))
            for ids, level_sources, level_starts in per_level:
                bits[ids] |= np.bitwise_or.reduceat(bits[level_sources], level_starts, axis=0)
            counts += np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
        return counts

    def _critical_fanins(self, n, owners, sources, counts, starts) -> List[int]:
        """Fanin of each vertex with the largest ``arrival + delay`` (first on ties)."""
        critical = np.full(n, -1, dtype=np.int64)
        if owners.size:
            owner = np.repeat(owners, counts)
            report = self.report
            cand = report.arrivals[sources] + self._derate[owner] * (
                self._base[owner] + self._slew_factor[owner] * report.slews[sources]
            )
            seg_max = np.maximum.reduceat(cand, starts)
            edge = np.arange(cand.size, dtype=np.int64)
            first = np.minimum.reduceat(
                np.where(cand == np.repeat(seg_max, counts), edge, cand.size), starts
            )
            critical[owners] = sources[first]
        return critical.tolist()

    # -- walks -----------------------------------------------------------------

    def critical_path(self, driver: int) -> List[int]:
        """Slowest path into ``driver``, launch point first."""
        walkable = self._walkable
        critical = self._critical_fanin
        vertices = [driver]
        current = driver
        while walkable[current]:
            current = critical[current]
            vertices.append(current)
        vertices.reverse()
        return vertices

    def random_path(self, driver: int, rng: random.Random) -> List[int]:
        """Random walk back from ``driver``: one ``rng.choice`` per gate."""
        walkable = self._walkable
        vertices = self.network.vertices
        choice = rng.choice
        path = [driver]
        current = driver
        while walkable[current]:
            current = choice(vertices[current].fanins)
            path.append(current)
        path.reverse()
        return path

    # -- path features ---------------------------------------------------------

    def path_columns(
        self, paths: Sequence[Sequence[int]]
    ) -> Tuple[Dict[str, np.ndarray], List[np.ndarray]]:
        """Path-level feature columns and per-path token rows.

        Paths of one length are stacked into one ``(n_paths, length)`` vertex
        matrix, so every statistic is a 2-D gather plus a row reduction and
        the path arrival accumulates column by column, left to right.
        """
        report = self.report
        n_paths = len(paths)
        names = (
            "path_pseudo_arrival",
            "path_n_levels",
            "path_n_operators",
            *(f"path_n_{f.lower()}" for f in OPERATOR_FUNCTIONS),
            "path_fanout_sum",
            "path_fanout_avg",
            "path_fanout_std",
            "path_load_sum",
            "path_load_avg",
            "path_load_std",
            "path_slew_avg",
        )
        columns = {name: np.zeros(n_paths) for name in names}
        tokens: List[np.ndarray] = [None] * n_paths  # type: ignore[list-item]
        lengths = np.fromiter((len(p) for p in paths), dtype=np.int64, count=n_paths)
        for length in np.unique(lengths).tolist():
            rows = np.flatnonzero(lengths == length)
            V = np.array([paths[i] for i in rows.tolist()], dtype=np.int64).reshape(rows.size, length)

            # Launch arrival, then one delay per edge; ``add.accumulate`` sums
            # each row strictly left to right, like the scalar reference.
            heads, tails = V[:, 1:], V[:, :-1]
            terms = np.empty((rows.size, length))
            terms[:, 0] = report.arrivals[V[:, 0]]
            terms[:, 1:] = self._derate[heads] * (
                self._base[heads] + self._slew_factor[heads] * report.slews[tails]
            )
            columns["path_pseudo_arrival"][rows] = np.add.accumulate(terms, axis=1)[:, -1]
            columns["path_n_levels"][rows] = float(length)
            op_counts = (self.op_code[V][:, :, None] == _OP_CLASSES).sum(axis=1)
            columns["path_n_operators"][rows] = op_counts[:, :_NOT_A_GATE].sum(axis=1)
            for code, function in enumerate(OPERATOR_FUNCTIONS):
                columns[f"path_n_{function.lower()}"][rows] = op_counts[:, code]
            for name, table in (("fanout", self.fanout_count), ("load", report.loads)):
                values = table[V]
                # ``np.mean``/``np.std`` evaluate exactly these ufuncs (sum,
                # divide by the count, squared deviations, sum, divide, sqrt).
                total = values.sum(axis=1)
                mean = total / length
                deviation = values - mean[:, None]
                columns[f"path_{name}_sum"][rows] = total
                columns[f"path_{name}_avg"][rows] = mean
                columns[f"path_{name}_std"][rows] = np.sqrt((deviation * deviation).sum(axis=1) / length)
            columns["path_slew_avg"][rows] = report.slews[V].sum(axis=1) / length

            group_tokens = self.token_rows[V]
            for k, row in enumerate(rows.tolist()):
                tokens[row] = group_tokens[k]
        return columns, tokens


def _token_code(label) -> int:
    return TOKEN_FUNCTIONS.index(label if label in TOKEN_FUNCTIONS else "const")
