"""LambdaMART: pairwise learning-to-rank with gradient boosted trees.

Used by RTL-Timer's signal-wise *ranking* model (Section 3.4.2): each design
is a query, its signal-wise endpoints are the documents, and the relevance
label is the criticality level (more critical endpoints get higher
relevance).  Training follows the standard LambdaMART recipe: per-pair
lambda gradients weighted by the NDCG change of swapping the pair, fitted by
Newton-step regression trees.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.base import Estimator, as_1d_array, as_2d_array
from repro.ml.tree import NewtonTreeRegressor, bin_feature_matrix
from repro.runtime.report import stage as _stage


def dcg_at_k(relevance_in_rank_order: np.ndarray, k: Optional[int] = None) -> float:
    """Discounted cumulative gain of a relevance list already in rank order."""
    relevance = np.asarray(relevance_in_rank_order, dtype=float)
    if k is not None:
        relevance = relevance[:k]
    if relevance.size == 0:
        return 0.0
    gains = 2.0**relevance - 1.0
    discounts = 1.0 / np.log2(np.arange(2, len(relevance) + 2))
    return float(np.dot(gains, discounts))


def ndcg(scores: np.ndarray, relevance: np.ndarray, k: Optional[int] = None) -> float:
    """Normalized DCG of ranking ``scores`` against ``relevance`` labels."""
    scores = as_1d_array(scores)
    relevance = as_1d_array(relevance)
    order = np.argsort(-scores, kind="stable")
    ideal = np.sort(relevance)[::-1]
    ideal_dcg = dcg_at_k(ideal, k)
    if ideal_dcg == 0.0:
        return 1.0
    return dcg_at_k(relevance[order], k) / ideal_dcg


class LambdaMARTRanker(Estimator):
    """Pairwise LambdaMART ranker (boosted Newton trees on lambda gradients)."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_samples_leaf: int = 2,
        reg_lambda: float = 1.0,
        max_pairs_per_query: int = 5000,
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.max_pairs_per_query = max_pairs_per_query
        self.seed = seed

    # -- training ---------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        relevance: np.ndarray,
        query_groups: Optional[Sequence] = None,
    ) -> "LambdaMARTRanker":
        """Fit the ranker.

        ``relevance`` holds integer relevance labels (larger = should rank
        higher); ``query_groups`` assigns each row to a query (a design).  If
        omitted, all rows form one query.
        """
        X = as_2d_array(features)
        rel = as_1d_array(relevance)
        if query_groups is None:
            groups = np.zeros(len(rel), dtype=int)
        else:
            labels = np.asarray(query_groups)
            _, groups = np.unique(labels, return_inverse=True)
        if not (len(X) == len(rel) == len(groups)):
            raise ValueError("features, relevance and query_groups must align")

        rng = np.random.default_rng(self.seed)
        self._query_rows_ = [np.where(groups == q)[0] for q in range(groups.max() + 1)]
        scores = np.zeros(len(rel))
        self.trees_: List[NewtonTreeRegressor] = []
        self.train_ndcg_: List[float] = []

        # One binning pass shared by every boosting round (no row subsampling
        # here, so the codes can be reused verbatim).
        binned = bin_feature_matrix(X)

        # The BENCH trend history is keyed on this stage name.
        with _stage("ml.fit_hist"):
            for _ in range(self.n_estimators):
                grad, hess = self._lambda_gradients(scores, rel, rng)
                tree = NewtonTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    reg_lambda=self.reg_lambda,
                    seed=int(rng.integers(2**31)),
                )
                tree.fit_gradients(X, grad, hess, binned=binned)
                scores = scores + self.learning_rate * tree.training_predictions_
                self.trees_.append(tree)
                self.train_ndcg_.append(self._mean_ndcg(scores, rel))
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Ranking scores (higher = predicted more critical)."""
        self._check_fitted("trees_")
        X = as_2d_array(features)
        with _stage("ml.predict_flat"):
            scores = np.zeros(len(X))
            for tree in self.trees_:
                scores += self.learning_rate * tree.predict(X)
        return scores

    # -- serialization ------------------------------------------------------------

    def _fitted_state(self) -> dict:
        """Boosted trees + training NDCG curve; query rows are training-only."""
        self._check_fitted("trees_")
        return {
            "trees": [tree.to_state() for tree in self.trees_],
            "train_ndcg": [float(value) for value in self.train_ndcg_],
        }

    def _restore_fitted(self, fitted) -> None:
        self.trees_ = [NewtonTreeRegressor.from_state(state) for state in fitted["trees"]]
        self.train_ndcg_ = list(fitted.get("train_ndcg", []))

    def rank(self, features: np.ndarray) -> np.ndarray:
        """Rank positions (0 = most critical) for the given rows."""
        scores = self.predict(features)
        order = np.argsort(-scores, kind="stable")
        ranks = np.empty(len(scores), dtype=int)
        ranks[order] = np.arange(len(scores))
        return ranks

    # -- internals ---------------------------------------------------------------

    def _mean_ndcg(self, scores: np.ndarray, relevance: np.ndarray) -> float:
        values = [
            ndcg(scores[rows], relevance[rows])
            for rows in self._query_rows_
            if len(rows) > 1
        ]
        return float(np.mean(values)) if values else 1.0

    def _lambda_gradients(
        self, scores: np.ndarray, relevance: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        grad = np.zeros_like(scores)
        hess = np.full_like(scores, 1e-3)

        for rows in self._query_rows_:
            if len(rows) < 2:
                continue
            query_scores = scores[rows]
            query_rel = relevance[rows]
            ideal_dcg = dcg_at_k(np.sort(query_rel)[::-1])
            if ideal_dcg == 0.0:
                continue
            order = np.argsort(-query_scores, kind="stable")
            positions = np.empty(len(rows), dtype=int)
            positions[order] = np.arange(len(rows))
            discounts = 1.0 / np.log2(positions + 2.0)
            gains = 2.0**query_rel - 1.0

            # All (better, worse) pairs at once; nonzero yields them in the
            # same row-major order the seed's nested loop produced, so the
            # subsampling RNG draws stay identical.
            better, worse = np.nonzero(query_rel[:, None] > query_rel[None, :])
            if len(better) == 0:
                continue
            if len(better) > self.max_pairs_per_query:
                chosen = rng.choice(len(better), size=self.max_pairs_per_query, replace=False)
                better, worse = better[chosen], worse[chosen]

            delta_ndcg = (
                np.abs(gains[better] - gains[worse])
                * np.abs(discounts[better] - discounts[worse])
                / ideal_dcg
            )
            score_diff = np.clip(query_scores[better] - query_scores[worse], -35.0, 35.0)
            rho = 1.0 / (1.0 + np.exp(score_diff))
            weight = np.maximum(delta_ndcg, 1e-6)
            push = rho * weight
            curvature = np.maximum(rho * (1.0 - rho) * weight, 1e-6)
            np.subtract.at(grad, rows[better], push)
            np.add.at(grad, rows[worse], push)
            np.add.at(hess, rows[better], curvature)
            np.add.at(hess, rows[worse], curvature)
        return grad, hess
