"""Regression trees (CART) used standalone and inside gradient boosting.

Splits are found LightGBM-style: every feature column is bucketed once per
``fit`` into at most 256 bins, per-bin statistics are accumulated with
``np.bincount`` and child histograms are derived from the parent with the
histogram-subtraction trick, so each node costs one pass over its rows
instead of one argsort per feature.  Trees grow straight into parallel
numpy arrays (feature / threshold / left / right / value) and predict
level-by-level over whole matrices (:class:`FlatTree`).  Leaf values can be
plain means (standalone use) or Newton steps from per-sample
gradients/hessians (XGBoost-style boosting).

The exact split search over sorted feature columns survives once, as the
test oracle :func:`fit_tree_reference` (with :func:`predict_tree_reference`,
a per-row walk of a :class:`FlatTree`).  When a column has at most 256
distinct values the histogram cut points coincide with its candidate
thresholds, so both searches see identical split gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.faults import fault_active
from repro.ml.base import Estimator, as_1d_array, as_2d_array

#: Bin budget per feature column — bin codes must fit in uint8.
MAX_BINS = 256


# ---------------------------------------------------------------------------
# Feature binning
# ---------------------------------------------------------------------------


@dataclass
class BinnedMatrix:
    """Per-fit uint8 bin codes of a feature matrix plus the cut points.

    ``codes[i, f]`` is the bin of row ``i`` in feature ``f``; ``cuts[f]`` holds
    the increasing split thresholds between consecutive bins, so splitting
    after bin ``b`` corresponds to the predicate ``x <= cuts[f][b]`` and a
    feature with ``k`` cut points has ``k + 1`` bins.
    """

    codes: np.ndarray  # (n_rows, n_features) uint8
    cuts: List[np.ndarray]  # per feature, len(cuts[f]) == n_bins_f - 1

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]

    @property
    def n_bins(self) -> int:
        """Bin-axis size of the histogram arrays (max bins over features)."""
        return max((len(c) + 1 for c in self.cuts), default=1)

    def flat_codes(self) -> np.ndarray:
        """Codes with per-feature bin offsets added (int64), memoized.

        Computed lazily once per matrix so boosting loops that share one
        ``BinnedMatrix`` across rounds do not redo the O(rows x features)
        widening per tree.
        """
        flat = self.__dict__.get("_flat_codes")
        if flat is None:
            offsets = np.arange(self.n_features, dtype=np.int64) * self.n_bins
            flat = self.codes.astype(np.int64) + offsets
            self.__dict__["_flat_codes"] = flat
        return flat

    def cut_valid(self) -> np.ndarray:
        """Boolean (features, bins) mask of existing cut positions, memoized."""
        valid = self.__dict__.get("_cut_valid")
        if valid is None:
            lengths = np.array([len(cut) for cut in self.cuts])
            valid = np.arange(self.n_bins) < lengths[:, None]
            self.__dict__["_cut_valid"] = valid
        return valid

    def take(self, rows: np.ndarray) -> "BinnedMatrix":
        """Row-subset view sharing the cut points (for row-subsampled fits)."""
        subset = BinnedMatrix(codes=self.codes[rows], cuts=self.cuts)
        flat = self.__dict__.get("_flat_codes")
        if flat is not None:
            subset.__dict__["_flat_codes"] = flat[rows]
        valid = self.__dict__.get("_cut_valid")
        if valid is not None:
            subset.__dict__["_cut_valid"] = valid
        return subset


def bin_feature_matrix(features: np.ndarray) -> BinnedMatrix:
    """Bucket every feature column into at most :data:`MAX_BINS` ordered bins.

    Columns with few distinct values get one bin per value with cut points at
    the midpoints between consecutive values — exactly the exact split
    search's candidate thresholds.  Wider columns are quantized over their
    distinct values, evenly in distinct-value space.
    """
    X = as_2d_array(features)
    codes = np.empty(X.shape, dtype=np.uint8)
    cuts: List[np.ndarray] = []
    for feature in range(X.shape[1]):
        column = X[:, feature]
        uniques = np.unique(column)
        if len(uniques) <= MAX_BINS:
            cut = 0.5 * (uniques[:-1] + uniques[1:])
        else:
            boundaries = np.linspace(0, len(uniques) - 1, MAX_BINS + 1).round().astype(int)
            boundaries = np.unique(boundaries)[1:-1]
            cut = 0.5 * (uniques[boundaries - 1] + uniques[boundaries])
        # Adjacent floats can collapse a midpoint onto a value; deduplicate so
        # the cut points stay strictly increasing (empty bins are harmless).
        cut = np.unique(cut)
        codes[:, feature] = np.searchsorted(cut, column, side="left")
        cuts.append(cut)
    return BinnedMatrix(codes=codes, cuts=cuts)


# ---------------------------------------------------------------------------
# Flattened trees
# ---------------------------------------------------------------------------


@dataclass
class FlatTree:
    """A fitted tree as parallel arrays, predicted level by level.

    ``feature[i] == -1`` marks node ``i`` as a leaf; interior nodes route rows
    with ``x[feature] <= threshold`` to ``left`` and the rest to ``right``.
    Nodes are stored in pre-order (left child first), so every child has a
    larger index than its parent.
    """

    feature: np.ndarray  # (n_nodes,) int32, -1 at leaves
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray  # (n_nodes,) int32
    right: np.ndarray  # (n_nodes,) int32
    value: np.ndarray  # (n_nodes,) float64

    @property
    def n_nodes(self) -> int:
        return len(self.value)

    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    def depth(self) -> int:
        """Longest root-to-leaf edge count (a single leaf has depth 0)."""
        depth = np.zeros(self.n_nodes, dtype=np.int64)
        for node in np.flatnonzero(self.feature >= 0):  # parents before children
            depth[self.left[node]] = depth[self.right[node]] = depth[node] + 1
        return int(depth.max())

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Route all rows level-by-level; one numpy pass per tree level."""
        X = as_2d_array(features)
        node = np.zeros(len(X), dtype=np.int32)
        while True:
            split_feature = self.feature[node]
            active = np.nonzero(split_feature >= 0)[0]
            if active.size == 0:
                break
            current = node[active]
            go_left = X[active, split_feature[active]] <= self.threshold[current]
            node[active] = np.where(go_left, self.left[current], self.right[current])
        return self.value[node]

    def to_state(self) -> dict:
        """The five parallel arrays as a plain dict (copies, not views)."""
        return {
            "feature": self.feature.copy(),
            "threshold": self.threshold.copy(),
            "left": self.left.copy(),
            "right": self.right.copy(),
            "value": self.value.copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "FlatTree":
        """Rebuild a :class:`FlatTree` from :meth:`to_state` output."""
        return cls(
            feature=np.asarray(state["feature"], dtype=np.int32),
            threshold=np.asarray(state["threshold"], dtype=float),
            left=np.asarray(state["left"], dtype=np.int32),
            right=np.asarray(state["right"], dtype=np.int32),
            value=np.asarray(state["value"], dtype=float),
        )

    @classmethod
    def from_lists(cls, feature, threshold, left, right, value) -> "FlatTree":
        """Pack per-node lists (appended in pre-order) into arrays."""
        return cls(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
            value=np.array(value, dtype=float),
        )


# ---------------------------------------------------------------------------
# Split objective and histogram split finding
# ---------------------------------------------------------------------------


@dataclass
class _Objective:
    """What one tree fit optimizes, in the gain form ``num^2 / (den + lam)``.

    The variance tree uses ``num = w*y`` and ``den = w`` (with a denominator
    floor) and the weighted mean as node value; the Newton tree uses
    ``num = g`` and ``den = h`` with the L2 regularizer as ``lam`` and the
    Newton step as node value.  ``pure`` stops splitting a node early.
    """

    num: np.ndarray
    den: np.ndarray
    lam: float
    floor: float
    node_value: Callable[[np.ndarray], float]  # node rows -> value
    pure: Callable[[np.ndarray], bool]  # node rows -> nothing left to split

    def score(self, num, den):
        denominator = den + self.lam
        if self.floor > 0.0:
            denominator = np.maximum(denominator, self.floor)
        return num * num / denominator


class _HistogramContext:
    """Per-fit state of the histogram splitter."""

    def __init__(self, binned: BinnedMatrix, objective: _Objective):
        self.binned = binned
        self.objective = objective
        self._bins = binned.n_bins
        self._size = binned.n_features * self._bins
        # Both memoized on the binned matrix, so boosting rounds sharing one
        # BinnedMatrix pay for them once per fit, not once per tree.
        self._flat_codes = binned.flat_codes()
        self.cut_valid = binned.cut_valid()

    def histograms(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-bin (num, den, count) sums for the given rows, one bincount each."""
        flat = self._flat_codes[rows].ravel()
        reps = self.binned.n_features
        shape = (reps, self._bins)
        count = np.bincount(flat, minlength=self._size).reshape(shape)
        num = np.bincount(
            flat, weights=np.repeat(self.objective.num[rows], reps), minlength=self._size
        ).reshape(shape)
        den = np.bincount(
            flat, weights=np.repeat(self.objective.den[rows], reps), minlength=self._size
        ).reshape(shape)
        return num, den, count

    def partition(self, rows: np.ndarray, hist, feature: int, cut_index: int):
        """Split rows at a cut; the bigger child's histogram comes by subtraction."""
        mask = self.binned.codes[rows, feature] <= cut_index
        left_rows = rows[mask]
        right_rows = rows[~mask]
        if len(left_rows) <= len(right_rows):
            left_hist = self.histograms(left_rows)
            right_hist = tuple(parent - child for parent, child in zip(hist, left_hist))
        else:
            right_hist = self.histograms(right_rows)
            left_hist = tuple(parent - child for parent, child in zip(hist, right_hist))
        return left_rows, right_rows, left_hist, right_hist


class DecisionTreeRegressor(Estimator):
    """CART regression tree with histogram split finding.

    A fit additionally exposes ``training_predictions_`` — the leaf value of
    every training row, assigned during growth — so boosting loops can skip
    re-routing the training matrix after each round (bit-identical to
    ``predict`` on the training data by construction).
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 8,
        min_samples_leaf: int = 3,
        max_features: Optional[float] = None,
        min_impurity_decrease: float = 1e-9,
        seed: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.seed = seed

    # -- public ---------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
        binned: Optional[BinnedMatrix] = None,
    ) -> "DecisionTreeRegressor":
        X = as_2d_array(features)
        y = as_1d_array(targets)
        if len(X) != len(y):
            raise ValueError("features and targets must have the same number of rows")
        if len(X) == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        return self._fit(X, self._objective(y, sample_weight), binned)

    def predict(self, features: np.ndarray) -> np.ndarray:
        self._check_fitted("flat_")
        return self.flat_.predict(features)

    def depth(self) -> int:
        """Depth of the fitted tree (a single leaf has depth 0)."""
        self._check_fitted("flat_")
        return self.flat_.depth()

    def n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        self._check_fitted("flat_")
        return self.flat_.n_leaves()

    # -- serialization ----------------------------------------------------------

    def _fitted_state(self) -> dict:
        """Flat arrays + feature count: a restored tree *is* its arrays."""
        self._check_fitted("flat_")
        return {"flat": self.flat_.to_state(), "n_features": int(self.n_features_)}

    def _restore_fitted(self, fitted) -> None:
        self.flat_ = FlatTree.from_state(fitted["flat"])
        self.n_features_ = int(fitted["n_features"])

    # -- internals --------------------------------------------------------------

    def _objective(self, targets, sample_weight=None) -> _Objective:
        y = as_1d_array(targets)
        weights = np.ones(len(y)) if sample_weight is None else as_1d_array(sample_weight)

        def node_value(rows: np.ndarray) -> float:
            node_y, node_w = y[rows], weights[rows]
            total = node_w.sum()
            if total <= 0:
                return float(node_y.mean()) if len(node_y) else 0.0
            return float(np.dot(node_y, node_w) / total)

        return _Objective(
            num=weights * y,
            den=weights,
            lam=0.0,
            floor=1e-12,
            node_value=node_value,
            pure=lambda rows: bool(np.all(y[rows] == y[rows[0]])),
        )

    def _fit(
        self, X: np.ndarray, objective: _Objective, binned: Optional[BinnedMatrix]
    ) -> "DecisionTreeRegressor":
        self.n_features_ = X.shape[1]
        if binned is None:
            binned = bin_feature_matrix(X)
        elif binned.codes.shape != X.shape:
            raise ValueError("pre-binned matrix does not match the feature matrix shape")
        self.flat_ = self._grow(_HistogramContext(binned, objective), np.random.default_rng(self.seed))
        return self

    def _grow(self, context: _HistogramContext, rng: np.random.Generator) -> FlatTree:
        """Grow depth-first straight into flat arrays; sets ``training_predictions_``.

        Nodes are appended in pre-order, left child first: a split node's
        left child is the next node, and its right child's index is filled
        in when the right subtree's root is popped.
        """
        objective = context.objective
        feature: List[int] = []
        threshold: List[float] = []
        left: List[int] = []
        right: List[int] = []
        value: List[float] = []
        self.training_predictions_ = np.empty(context.binned.n_rows)
        root = np.arange(context.binned.n_rows)
        stack = [(root, context.histograms(root), 0, -1)]
        while stack:
            rows, hist, depth, parent = stack.pop()
            index = len(value)
            if parent >= 0:
                right[parent] = index
            value.append(objective.node_value(rows))
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            split = None
            if (
                depth < self.max_depth
                and len(rows) >= self.min_samples_split
                and not objective.pure(rows)
            ):
                split = self._best_split(context, hist, rng)
            if split is None:
                self.training_predictions_[rows] = value[index]
                continue
            feature[index], cut_index, threshold[index] = split
            left[index] = index + 1
            left_rows, right_rows, left_hist, right_hist = context.partition(
                rows, hist, feature[index], cut_index
            )
            stack.append((right_rows, right_hist, depth + 1, index))
            stack.append((left_rows, left_hist, depth + 1, -1))
        return FlatTree.from_lists(feature, threshold, left, right, value)

    def _candidate_features(self, rng: np.random.Generator, n_features: int) -> np.ndarray:
        if self.max_features is None:
            return np.arange(n_features)
        count = max(1, int(round(self.max_features * n_features)))
        return rng.choice(n_features, size=count, replace=False)

    def _best_split(
        self, context: _HistogramContext, hist, rng: np.random.Generator
    ) -> Optional[Tuple[int, int, float]]:
        """Best (feature, cut index, threshold) from the node's histograms.

        All candidate features are scored in one vectorized pass over the
        (features, bins) histogram arrays; ties go to the first feature in
        candidate order, then the first cut position.
        """
        num_h, den_h, cnt_h = hist
        candidates = self._candidate_features(rng, context.binned.n_features)
        min_leaf = max(self.min_samples_leaf, 1)
        score = context.objective.score

        left_num = np.cumsum(num_h[candidates], axis=1)
        left_den = np.cumsum(den_h[candidates], axis=1)
        left_cnt = np.cumsum(cnt_h[candidates], axis=1)
        total_num = left_num[:, -1]
        total_den = left_den[:, -1]
        total_cnt = left_cnt[:, -1]

        valid = (
            context.cut_valid[candidates]
            & (left_cnt >= min_leaf)
            & (total_cnt[:, None] - left_cnt >= min_leaf)
        )
        if not valid.any():
            return None

        with np.errstate(divide="ignore", invalid="ignore"):
            children = score(left_num, left_den) + score(
                total_num[:, None] - left_num, total_den[:, None] - left_den
            )
            gain = np.where(valid, children - score(total_num, total_den)[:, None], -np.inf)

        best_cut = np.argmax(gain, axis=1)
        per_feature = np.take_along_axis(gain, best_cut[:, None], axis=1)[:, 0]
        position = int(np.argmax(per_feature))
        if not per_feature[position] > self.min_impurity_decrease:
            return None
        feature = int(candidates[position])
        cut_index = int(best_cut[position])
        if fault_active("gbm.hist_threshold") and cut_index + 1 < len(
            context.binned.cuts[feature]
        ):
            # Debug fault point: shifting the chosen cut one bin over
            # re-partitions the node's rows, so the histogram fit diverges
            # from the exact reference under the fuzz campaign's
            # hist-vs-exact oracle (see repro.faults).
            cut_index += 1
        return feature, cut_index, float(context.binned.cuts[feature][cut_index])


class NewtonTreeRegressor(DecisionTreeRegressor):
    """Tree fitted on gradients/hessians with Newton-step leaf values.

    Used by :class:`repro.ml.gbm.GradientBoostingRegressor` in XGBoost mode:
    splits maximize the standard second-order gain
    ``G_l^2/(H_l + lambda) + G_r^2/(H_r + lambda) - G^2/(H + lambda)`` and the
    leaf value is ``-G/(H + lambda)``.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_split: int = 8,
        min_samples_leaf: int = 3,
        max_features: Optional[float] = None,
        reg_lambda: float = 1.0,
        min_gain: float = 1e-9,
        seed: int = 0,
    ):
        super().__init__(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            min_impurity_decrease=min_gain,
            seed=seed,
        )
        self.reg_lambda = reg_lambda

    def _state_params(self) -> dict:
        # The constructor spells the gain threshold ``min_gain`` while the
        # attribute keeps the base class name, so map it back for from_state.
        params = super()._state_params()
        params["min_gain"] = params.pop("min_impurity_decrease")
        return params

    def fit_gradients(
        self,
        features: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        binned: Optional[BinnedMatrix] = None,
    ) -> "NewtonTreeRegressor":
        """Fit the tree from per-sample gradients and hessians."""
        X = as_2d_array(features)
        grad = as_1d_array(gradients)
        hess = as_1d_array(hessians)
        if not (len(X) == len(grad) == len(hess)):
            raise ValueError("features, gradients and hessians must align")
        return self._fit(X, self._objective(grad, hess), binned)

    def fit(self, features, targets, sample_weight=None, binned=None):  # type: ignore[override]
        """Plain regression fit: equivalent to one Newton step on squared loss."""
        y = as_1d_array(targets)
        gradients = -y
        hessians = np.ones_like(y)
        return self.fit_gradients(features, gradients, hessians, binned=binned)

    def _objective(self, gradients, hessians) -> _Objective:  # type: ignore[override]
        grad = as_1d_array(gradients)
        hess = as_1d_array(hessians)
        return _Objective(
            num=grad,
            den=hess,
            lam=self.reg_lambda,
            floor=0.0,
            node_value=lambda rows: float(-grad[rows].sum() / (hess[rows].sum() + self.reg_lambda)),
            pure=lambda rows: False,
        )


# ---------------------------------------------------------------------------
# Exact reference (test oracle)
# ---------------------------------------------------------------------------


def fit_tree_reference(tree: DecisionTreeRegressor, features: np.ndarray, *statistics) -> FlatTree:
    """Fit ``tree``'s hyperparameters with the exact split search.

    ``statistics`` are what the tree's fit takes after the features:
    ``(targets[, sample_weight])`` for a :class:`DecisionTreeRegressor`,
    ``(gradients, hessians)`` for a :class:`NewtonTreeRegressor`.  Every
    candidate threshold is a midpoint between consecutive distinct values of
    a sorted column; the objective, stopping rules and tie-breaking are the
    histogram fit's.  Test oracle only: ``tree`` is left unfitted.
    """
    X = as_2d_array(features)
    objective = tree._objective(*statistics)
    rng = np.random.default_rng(tree.seed)
    min_leaf = max(tree.min_samples_leaf, 1)
    nodes: List[list] = []  # [feature, threshold, left, right, value] per node

    def best_split(rows: np.ndarray) -> Optional[Tuple[int, float]]:
        total_num = objective.num[rows].sum()
        total_den = objective.den[rows].sum()
        best_gain, best = tree.min_impurity_decrease, None
        for feature in tree._candidate_features(rng, X.shape[1]):
            column = X[rows, feature]
            order = np.argsort(column, kind="stable")
            sorted_x = column[order]
            distinct = np.nonzero(np.diff(sorted_x) > 0)[0]
            valid = (distinct + 1 >= min_leaf) & (len(rows) - distinct - 1 >= min_leaf)
            if not valid.any():
                continue
            left_num = np.cumsum(objective.num[rows[order]])[distinct]
            left_den = np.cumsum(objective.den[rows[order]])[distinct]
            with np.errstate(divide="ignore", invalid="ignore"):
                children = objective.score(left_num, left_den) + objective.score(
                    total_num - left_num, total_den - left_den
                )
                gain = np.where(valid, children - objective.score(total_num, total_den), -np.inf)
            index = int(np.argmax(gain))
            if gain[index] > best_gain:
                best_gain = float(gain[index])
                position = distinct[index]
                best = (int(feature), float(0.5 * (sorted_x[position] + sorted_x[position + 1])))
        return best

    def build(rows: np.ndarray, depth: int) -> int:
        index = len(nodes)
        nodes.append([-1, 0.0, -1, -1, objective.node_value(rows)])
        if depth >= tree.max_depth or len(rows) < tree.min_samples_split or objective.pure(rows):
            return index
        split = best_split(rows)
        if split is not None:
            mask = X[rows, split[0]] <= split[1]
            nodes[index][:2] = split
            nodes[index][2] = build(rows[mask], depth + 1)
            nodes[index][3] = build(rows[~mask], depth + 1)
        return index

    build(np.arange(len(X)), 0)
    return FlatTree.from_lists(*zip(*nodes))


def predict_tree_reference(flat: FlatTree, features: np.ndarray) -> np.ndarray:
    """Per-row walk of a :class:`FlatTree` — the reference for its ``predict``."""
    X = as_2d_array(features)
    out = np.empty(len(X))
    for i, row in enumerate(X):
        node = 0
        while flat.feature[node] >= 0:
            go_left = row[flat.feature[node]] <= flat.threshold[node]
            node = flat.left[node] if go_left else flat.right[node]
        out[i] = flat.value[node]
    return out
