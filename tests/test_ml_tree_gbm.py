"""Tests for regression trees and gradient boosting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    GroupedMaxSquaredError,
    HuberObjective,
    NewtonTreeRegressor,
    bin_feature_matrix,
    group_max,
)
from repro.ml.tree import fit_tree_reference, predict_tree_reference


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(600, 6))
    y = 2.0 * X[:, 0] - 1.5 * X[:, 1] + np.sin(X[:, 2]) + 0.1 * rng.normal(size=600)
    return X, y


class TestDecisionTree:
    def test_fits_constant_data(self):
        X = np.zeros((20, 3))
        y = np.full(20, 5.0)
        tree = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(tree.predict(X), 5.0)

    def test_perfect_split_on_single_feature(self):
        X = np.array([[0.0], [0.1], [0.9], [1.0]] * 5)
        y = np.array([0.0, 0.0, 1.0, 1.0] * 5)
        tree = DecisionTreeRegressor(max_depth=2, min_samples_leaf=1, min_samples_split=2).fit(X, y)
        assert np.allclose(tree.predict(X), y)

    def test_max_depth_zero_gives_single_leaf(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=0).fit(X, y)
        assert tree.n_leaves() == 1
        assert tree.depth() == 0

    def test_depth_respected(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=1).fit(X, y)
        assert tree.depth() <= 3

    def test_min_samples_leaf(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=50).fit(X, y)
        assert tree.n_leaves() <= len(y) // 50 + 1

    def test_improves_over_mean_prediction(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=6).fit(X[:400], y[:400])
        pred = tree.predict(X[400:])
        mse_tree = np.mean((pred - y[400:]) ** 2)
        mse_mean = np.mean((y[:400].mean() - y[400:]) ** 2)
        assert mse_tree < mse_mean

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((5, 2)), np.zeros(4))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((2, 2)))


class TestNewtonTree:
    def test_newton_leaf_value_matches_mean_for_squared_loss(self):
        X = np.zeros((10, 1))
        y = np.arange(10, dtype=float)
        tree = NewtonTreeRegressor(max_depth=0, reg_lambda=0.0).fit(X, y)
        assert tree.predict(X[:1])[0] == pytest.approx(y.mean())

    def test_regularization_shrinks_leaves(self):
        X = np.zeros((10, 1))
        y = np.full(10, 4.0)
        tree = NewtonTreeRegressor(max_depth=0, reg_lambda=10.0).fit(X, y)
        assert 0 < tree.predict(X[:1])[0] < 4.0


class TestGradientBoosting:
    def test_beats_single_tree(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=3).fit(X[:400], y[:400])
        gbm = GradientBoostingRegressor(n_estimators=50, max_depth=3).fit(X[:400], y[:400])
        mse_tree = np.mean((tree.predict(X[400:]) - y[400:]) ** 2)
        mse_gbm = np.mean((gbm.predict(X[400:]) - y[400:]) ** 2)
        assert mse_gbm < mse_tree

    def test_training_loss_decreases(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(n_estimators=30).fit(X, y)
        assert gbm.train_losses_[-1] < gbm.train_losses_[0]

    def test_early_stopping_limits_trees(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(
            n_estimators=200, learning_rate=0.5, early_stopping_rounds=3
        ).fit(X[:100], y[:100])
        assert len(gbm.trees_) <= 200

    def test_feature_importances_sum_to_one(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(n_estimators=20).fit(X, y)
        importances = gbm.feature_importances()
        assert importances.shape == (X.shape[1],)
        assert importances.sum() == pytest.approx(1.0)
        assert importances[0] > importances[-1]  # x0 is the dominant feature

    def test_huber_objective_robust_to_outliers(self, regression_data):
        X, y = regression_data
        y_out = y.copy()
        y_out[::25] += 50.0
        huber = GradientBoostingRegressor(n_estimators=40, objective=HuberObjective(1.0))
        huber.fit(X[:400], y_out[:400])
        pred = huber.predict(X[400:])
        assert np.corrcoef(pred, y[400:])[0, 1] > 0.8

    def test_subsample_and_colsample(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(n_estimators=20, subsample=0.5, colsample=0.5).fit(X, y)
        assert np.corrcoef(gbm.predict(X), y)[0, 1] > 0.7

    def test_staged_predict_shape(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(n_estimators=10).fit(X[:100], y[:100])
        stages = gbm.staged_predict(X[:20])
        assert stages.shape == (10, 20)


class TestGroupedMaxObjective:
    def test_recovers_max_structure(self):
        rng = np.random.default_rng(2)
        groups = np.repeat(np.arange(150), 3)
        X = rng.normal(size=(450, 4))
        path_value = X @ np.array([2.0, -1.0, 0.5, 0.0])
        labels = np.array([path_value[groups == g].max() for g in range(150)])
        objective = GroupedMaxSquaredError(groups, labels)
        gbm = GradientBoostingRegressor(n_estimators=60, max_depth=3, objective=objective)
        gbm.fit(X, objective.row_targets())
        predicted = group_max(gbm.predict(X), groups, 150)
        assert np.corrcoef(predicted, labels)[0, 1] > 0.95

    def test_invalid_group_ids_rejected(self):
        with pytest.raises(ValueError):
            GroupedMaxSquaredError(np.array([0, 1, 5]), np.array([1.0, 2.0]))


def _variance_split_gain(X, y, weights, feature, threshold):
    """Reference weighted variance-reduction gain of one split."""

    def half_score(mask):
        w = weights[mask]
        return float(np.dot(y[mask], w)) ** 2 / max(float(w.sum()), 1e-12)

    mask = X[:, feature] <= threshold
    parent = float(np.dot(y, weights)) ** 2 / max(float(weights.sum()), 1e-12)
    return half_score(mask) + half_score(~mask) - parent


class TestBinning:
    def test_low_cardinality_gets_one_bin_per_value(self):
        X = np.array([[0.0], [2.0], [2.0], [5.0], [9.0]])
        binned = bin_feature_matrix(X)
        assert len(binned.cuts[0]) == 3  # 4 distinct values -> 3 cut points
        assert list(binned.codes[:, 0]) == [0, 1, 1, 2, 3]

    def test_codes_are_monotone_in_value(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3000, 2))  # 3000 distinct values per column
        binned = bin_feature_matrix(X)
        for feature in range(2):
            order = np.argsort(X[:, feature])
            codes = binned.codes[order, feature].astype(int)
            assert np.all(np.diff(codes) >= 0)
            assert codes.max() <= 255

    def test_cut_points_partition_like_thresholds(self):
        rng = np.random.default_rng(1)
        column = rng.normal(size=(500, 1))  # more distinct values than bins
        binned = bin_feature_matrix(column)
        assert len(binned.cuts[0]) == 255
        for index, cut in enumerate(binned.cuts[0]):
            assert np.array_equal(
                binned.codes[:, 0] <= index, column[:, 0] <= cut
            )


def _boost_reference(X, y, n_estimators, learning_rate=0.1, max_depth=6, min_samples_leaf=3):
    """Squared-error boosting with exact-reference trees (GBM defaults otherwise)."""
    base = float(np.mean(y))
    trees, predictions = [], np.full(len(y), base)
    for _ in range(n_estimators):
        tree = NewtonTreeRegressor(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
        flat = fit_tree_reference(tree, X, predictions - y, np.ones_like(y))
        predictions = predictions + learning_rate * flat.predict(X)
        trees.append(flat)
    return lambda Z: base + learning_rate * sum(flat.predict(Z) for flat in trees)


def _fit_flat(splitter, X, y, **params):
    """The flat tree of a production (``hist``) or exact-reference fit."""
    tree = DecisionTreeRegressor(**params)
    if splitter == "exact":
        return fit_tree_reference(tree, X, y)
    return tree.fit(X, y).flat_


class TestSplitterEquivalence:
    """Histogram fit vs the exact reference on bin-exact (low-cardinality) data."""

    def _data(self, seed=3, rows=400):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 25, size=(rows, 5)).astype(float)
        y = X @ np.array([1.0, -2.0, 0.5, 0.0, 3.0]) + rng.normal(size=rows)
        return X, y

    def test_identical_predictions_with_tied_values(self):
        X, y = self._data()
        exact = fit_tree_reference(DecisionTreeRegressor(max_depth=6), X, y)
        hist = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert np.array_equal(exact.predict(X), hist.predict(X))
        assert exact.n_leaves() == hist.n_leaves()

    def test_constant_column_never_split(self):
        X, y = self._data()
        X[:, 3] = 7.0
        for splitter in ("exact", "hist"):
            flat = _fit_flat(splitter, X, y, max_depth=6)
            assert flat.n_leaves() > 1
            assert not np.any(flat.feature == 3)

    def test_all_constant_features_give_single_leaf(self):
        X = np.full((30, 3), 2.0)
        y = np.arange(30, dtype=float)
        for splitter in ("exact", "hist"):
            flat = _fit_flat(splitter, X, y, max_depth=5, min_samples_split=2)
            assert flat.n_leaves() == 1

    def test_root_split_gains_match_with_weights(self):
        X, y = self._data(seed=11)
        rng = np.random.default_rng(4)
        weights = rng.uniform(0.1, 3.0, size=len(y))
        params = dict(max_depth=1, min_samples_leaf=1)
        exact = fit_tree_reference(DecisionTreeRegressor(**params), X, y, weights)
        hist = DecisionTreeRegressor(**params).fit(X, y, sample_weight=weights).flat_
        assert exact.feature[0] >= 0 and hist.feature[0] >= 0
        gain_exact = _variance_split_gain(X, y, weights, exact.feature[0], exact.threshold[0])
        gain_hist = _variance_split_gain(X, y, weights, hist.feature[0], hist.threshold[0])
        assert gain_hist == pytest.approx(gain_exact, rel=1e-9)
        # The chosen partitions are identical, not just equally good.
        assert exact.feature[0] == hist.feature[0]
        assert np.array_equal(
            X[:, exact.feature[0]] <= exact.threshold[0],
            X[:, hist.feature[0]] <= hist.threshold[0],
        )

    def test_weighted_fit_predictions_match(self):
        X, y = self._data(seed=5)
        rng = np.random.default_rng(6)
        weights = rng.uniform(0.1, 4.0, size=len(y))
        exact = fit_tree_reference(DecisionTreeRegressor(max_depth=5), X, y, weights)
        hist = DecisionTreeRegressor(max_depth=5).fit(X, y, sample_weight=weights)
        assert np.allclose(exact.predict(X), hist.predict(X))

    def test_newton_trees_identical_on_binned_data(self):
        X, y = self._data(seed=7)
        rng = np.random.default_rng(8)
        grad = y - rng.normal(size=len(y))
        hess = rng.uniform(0.5, 2.0, size=len(y))
        exact = fit_tree_reference(NewtonTreeRegressor(max_depth=5), X, grad, hess)
        hist = NewtonTreeRegressor(max_depth=5)
        hist.fit_gradients(X, grad, hess)
        assert np.array_equal(exact.predict(X), hist.predict(X))

    def test_gbm_metrics_close_on_continuous_data(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(800, 6))
        y = 2.0 * X[:, 0] - X[:, 1] + np.sin(X[:, 2]) + 0.1 * rng.normal(size=800)
        exact_predict = _boost_reference(X[:600], y[:600], n_estimators=30)
        hist = GradientBoostingRegressor(n_estimators=30).fit(X[:600], y[:600])
        mse_exact = np.mean((exact_predict(X[600:]) - y[600:]) ** 2)
        mse_hist = np.mean((hist.predict(X[600:]) - y[600:]) ** 2)
        assert mse_hist <= mse_exact * 1.25
        assert np.corrcoef(exact_predict(X[600:]), hist.predict(X[600:]))[0, 1] > 0.98


class TestFlatPredict:
    """``FlatTree.predict`` against the per-row walk, for both fits."""

    def test_flat_matches_recursive_on_randomized_trees(self):
        rng = np.random.default_rng(12)
        for seed in range(8):
            X = rng.normal(size=(300, 4))
            y = rng.normal(size=300) + X[:, seed % 4]
            flat = _fit_flat(
                "hist" if seed % 2 == 0 else "exact",
                X,
                y,
                max_depth=int(rng.integers(1, 9)),
                min_samples_leaf=int(rng.integers(1, 6)),
                seed=seed,
            )
            fresh = rng.normal(size=(200, 4))
            assert np.array_equal(flat.predict(X), predict_tree_reference(flat, X))
            assert np.array_equal(flat.predict(fresh), predict_tree_reference(flat, fresh))

    def test_flat_tree_arrays_consistent(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(200, 3))
        y = X[:, 0] * 2.0 + rng.normal(size=200)
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        flat = tree.flat_
        leaves = flat.feature < 0
        assert leaves.sum() == tree.n_leaves()
        interior = ~leaves
        # Children of interior nodes point strictly forward (preorder layout).
        assert np.all(flat.left[interior] > np.nonzero(interior)[0])
        assert np.all(flat.right[interior] > np.nonzero(interior)[0])

    def test_training_predictions_match_predict(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(250, 4))
        y = X[:, 1] - X[:, 2] + rng.normal(size=250)
        tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
        assert np.array_equal(tree.training_predictions_, tree.predict(X))
        newton = NewtonTreeRegressor(max_depth=5).fit(X, y)
        assert np.array_equal(newton.training_predictions_, newton.predict(X))

    def test_single_leaf_tree_predicts_constant(self):
        X = np.zeros((10, 2))
        y = np.full(10, 3.5)
        tree = DecisionTreeRegressor(max_depth=0).fit(X, y)
        assert np.allclose(tree.predict(np.random.default_rng(0).normal(size=(5, 2))), 3.5)

    @pytest.mark.parametrize("splitter", ["hist", "exact"])
    def test_single_leaf_flat_matches_recursive(self, splitter):
        """A one-node FlatTree routes nothing and still mirrors the reference."""
        X = np.arange(12, dtype=float).reshape(-1, 2)
        y = np.full(6, -2.25)
        flat = _fit_flat(splitter, X, y, max_depth=4)
        assert flat.n_nodes == 1
        fresh = np.random.default_rng(1).normal(size=(7, 2))
        assert np.array_equal(flat.predict(fresh), predict_tree_reference(flat, fresh))

    @pytest.mark.parametrize("splitter", ["hist", "exact"])
    def test_empty_predict_matrix(self, splitter, regression_data):
        """Predicting zero rows returns an empty vector, bit-identical paths."""
        X, y = regression_data
        flat = _fit_flat(splitter, X, y, max_depth=4)
        empty = np.empty((0, X.shape[1]))
        level_wise = flat.predict(empty)
        per_row = predict_tree_reference(flat, empty)
        assert level_wise.shape == per_row.shape == (0,)
        assert np.array_equal(level_wise, per_row)

    @pytest.mark.parametrize("splitter", ["hist", "exact"])
    def test_all_constant_feature_column_never_split(self, splitter):
        """A constant column offers no cut; both predict paths still agree."""
        rng = np.random.default_rng(21)
        X = np.column_stack([np.full(120, 7.5), rng.normal(size=120)])
        y = 3.0 * X[:, 1] + rng.normal(size=120) * 0.1
        flat = _fit_flat(splitter, X, y, max_depth=5)
        assert not np.any(flat.feature == 0), "constant column must never split"
        assert np.array_equal(flat.predict(X), predict_tree_reference(flat, X))

    @pytest.mark.parametrize("splitter", ["hist", "exact"])
    @pytest.mark.parametrize("max_depth", [1, 2])
    def test_depth_limit_boundary(self, splitter, max_depth, regression_data):
        """At the depth cap the deepest interior node still flattens correctly."""
        X, y = regression_data
        flat = _fit_flat(splitter, X, y, max_depth=max_depth, min_samples_leaf=1)
        assert flat.depth() == max_depth
        assert flat.n_nodes <= 2 ** (max_depth + 1) - 1
        fresh = np.random.default_rng(22).normal(size=(150, X.shape[1]))
        assert np.array_equal(flat.predict(X), predict_tree_reference(flat, X))
        assert np.array_equal(flat.predict(fresh), predict_tree_reference(flat, fresh))


@given(
    st.lists(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=10, max_size=40
    )
)
def test_tree_predictions_within_target_range(pairs):
    """A regression tree never extrapolates beyond the observed target range."""
    X = np.array([[a] for a, _ in pairs])
    y = np.array([b for _, b in pairs])
    tree = DecisionTreeRegressor(max_depth=4, min_samples_leaf=1, min_samples_split=2).fit(X, y)
    predictions = tree.predict(X)
    assert predictions.min() >= y.min() - 1e-6
    assert predictions.max() <= y.max() + 1e-6
