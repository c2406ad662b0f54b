"""Signal-wise endpoint modelling: max-arrival regression and LTR ranking.

Section 3.4.2 of the paper: the arrival time of a word-level RTL signal is
the maximum over its bits, so the signal-wise models are built *on top of*
the bit-wise predictions.  Two models are provided:

* a tree-based regression model for the signal max arrival time,
* a pairwise LambdaMART learning-to-rank model whose queries are designs,
  documents are signal-wise endpoints and relevance labels are criticality
  levels — this is what drives the ``group_path`` optimization groups.

The ``use_bitwise=False`` mode implements the paper's "w/o bit-wise" ablation
(modelling signals directly from aggregate signal features).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import DesignRecord
from repro.core.features import PATH_FEATURE_NAMES, extract_path_dataset
from repro.core.metrics import criticality_groups
from repro.core.sampling import SamplingConfig
from repro.core.state import config_from_state, config_to_state
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.lambdamart import LambdaMARTRanker
from repro.ml.preprocessing import StandardScaler, TargetScaler
from repro.ml.serialize import estimator_from_state, estimator_to_state


@dataclass(frozen=True)
class SignalwiseConfig:
    """Configuration of the signal-wise models."""

    use_bitwise: bool = True
    n_estimators: int = 60
    max_depth: int = 5
    ranker_estimators: int = 80
    ranker_depth: int = 4
    relevance_levels: int = 4
    seed: int = 0


def _signal_feature_matrix(
    record: DesignRecord,
    bitwise_predictions: Optional[Dict[str, float]],
    use_bitwise: bool,
) -> Tuple[np.ndarray, List[str]]:
    """Per-signal feature rows (and the signal order)."""
    dataset = extract_path_dataset(record, "sog", SamplingConfig(use_sampling=False))
    by_signal: Dict[str, List[int]] = {}
    for index, signal in enumerate(dataset.endpoint_signals):
        by_signal.setdefault(signal, []).append(index)

    cone_col = PATH_FEATURE_NAMES.index("cone_n_driving_regs")
    rank_col = PATH_FEATURE_NAMES.index("design_rank_percent")
    arr_col = PATH_FEATURE_NAMES.index("endpoint_pseudo_arrival")
    total_col = PATH_FEATURE_NAMES.index("design_n_total")
    levels_col = PATH_FEATURE_NAMES.index("path_n_levels")

    signals = sorted(by_signal)
    rows: List[np.ndarray] = []
    for signal in signals:
        indices = by_signal[signal]
        features = dataset.features[indices]
        names = [dataset.endpoint_names[i] for i in indices]
        if use_bitwise and bitwise_predictions is not None:
            bit_preds = np.array(
                [bitwise_predictions.get(name, 0.0) for name in names]
            )
        else:
            bit_preds = features[:, arr_col]
        rows.append(
            np.array(
                [
                    float(bit_preds.max()),
                    float(bit_preds.mean()),
                    float(bit_preds.std()),
                    float(len(indices)),
                    float(features[:, cone_col].max()),
                    float(features[:, rank_col].min()),
                    float(features[:, arr_col].max()),
                    float(features[:, levels_col].max()),
                    float(features[0, total_col]),
                ]
            )
        )
    return np.vstack(rows), signals


def _relevance_from_labels(labels: np.ndarray, levels: int) -> np.ndarray:
    """Criticality relevance labels: most critical group gets the highest value."""
    groups = criticality_groups(labels)
    relevance = np.zeros(len(labels), dtype=int)
    for group_index, members in enumerate(groups):
        relevance[members] = max(levels - 1 - group_index, 0)
    return relevance


class SignalwiseModel:
    """Signal max-arrival regression plus LambdaMART criticality ranking."""

    def __init__(self, config: Optional[SignalwiseConfig] = None):
        self.config = config or SignalwiseConfig()

    # -- training ------------------------------------------------------------------

    def fit(
        self,
        records: Sequence[DesignRecord],
        bitwise_predictions: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> "SignalwiseModel":
        """Fit on training designs.

        ``bitwise_predictions`` maps design name -> endpoint name -> predicted
        arrival (typically produced by :class:`BitwiseArrivalModel`).
        """
        config = self.config
        feature_rows: List[np.ndarray] = []
        labels: List[float] = []
        relevance: List[int] = []
        queries: List[str] = []

        for record in records:
            bit_preds = (bitwise_predictions or {}).get(record.name)
            features, signals = _signal_feature_matrix(record, bit_preds, config.use_bitwise)
            signal_labels = record.signal_labels()
            values = np.array([signal_labels[s] for s in signals])
            feature_rows.append(features)
            labels.extend(values.tolist())
            relevance.extend(_relevance_from_labels(values, config.relevance_levels).tolist())
            queries.extend([record.name] * len(signals))

        X = np.vstack(feature_rows)
        y = np.array(labels)
        self.scaler_ = StandardScaler()
        self.target_scaler_ = TargetScaler()
        Xs = self.scaler_.fit_transform(X)
        ys = self.target_scaler_.fit_transform(y)

        self.regressor_ = GradientBoostingRegressor(
            n_estimators=config.n_estimators,
            max_depth=config.max_depth,
            min_samples_leaf=3,
            seed=config.seed,
        )
        self.regressor_.fit(Xs, ys)

        self.ranker_ = LambdaMARTRanker(
            n_estimators=config.ranker_estimators,
            max_depth=config.ranker_depth,
            seed=config.seed,
        )
        self.ranker_.fit(Xs, np.array(relevance), queries)
        return self

    # -- inference ------------------------------------------------------------------

    def predict(
        self,
        record: DesignRecord,
        bitwise_predictions: Optional[Dict[str, float]] = None,
    ) -> Dict[str, Dict[str, float]]:
        """Predict signal max arrivals and ranking scores for one design.

        Returns ``{"arrival": {signal: value}, "ranking": {signal: score}}``
        where a larger ranking score means *more critical*.
        """
        if not hasattr(self, "regressor_"):
            raise RuntimeError("SignalwiseModel must be fitted before predict()")
        features, signals = _signal_feature_matrix(
            record, bitwise_predictions, self.config.use_bitwise
        )
        scaled = self.scaler_.transform(features)
        arrivals = self.target_scaler_.inverse_transform(self.regressor_.predict(scaled))
        scores = self.ranker_.predict(scaled)
        return {
            "arrival": dict(zip(signals, arrivals)),
            "ranking": dict(zip(signals, scores)),
        }

    def ranked_signals(
        self,
        record: DesignRecord,
        bitwise_predictions: Optional[Dict[str, float]] = None,
        use_ranker: bool = True,
    ) -> List[str]:
        """Signals ordered from most critical to least critical."""
        prediction = self.predict(record, bitwise_predictions)
        key = "ranking" if use_ranker else "arrival"
        scores = prediction[key]
        return sorted(scores, key=lambda s: -scores[s])

    # -- serialization ------------------------------------------------------------

    def to_state(self) -> dict:
        """Snapshot the fitted regression + ranking stage."""
        if not hasattr(self, "regressor_"):
            raise RuntimeError("SignalwiseModel must be fitted before to_state()")
        return {
            "model": "SignalwiseModel",
            "config": config_to_state(self.config),
            "scaler": self.scaler_.to_state(),
            "target_scaler": self.target_scaler_.to_state(),
            "regressor": estimator_to_state(self.regressor_),
            "ranker": estimator_to_state(self.ranker_),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SignalwiseModel":
        """Rebuild a fitted model; predictions are bit-identical to the source."""
        model = cls(config_from_state(state["config"]))
        model.scaler_ = StandardScaler.from_state(state["scaler"])
        model.target_scaler_ = TargetScaler.from_state(state["target_scaler"])
        model.regressor_ = estimator_from_state(state["regressor"])
        model.ranker_ = estimator_from_state(state["ranker"])
        return model
