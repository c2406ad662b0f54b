"""Design-level overall timing (WNS / TNS) modelling and baselines.

Section 3.4.3 of the paper: TNS and WNS are functions of the negative
register slacks, so an accurate fine-grained model makes the overall model
straightforward — its features are aggregates of the predicted endpoint
slacks plus design-level features, fed to a small tree-based regressor.

Three feature modes reproduce the paper's Table 4 comparison:

* ``"full"``      — RTL-Timer: aggregates of the ensemble bit-wise predictions,
* ``"sog_only"``  — a MasterRTL-like baseline using a single representation,
* ``"design_only"`` — an SNS-like baseline using only design-level features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.dataset import DesignRecord
from repro.core.features import design_feature_vector
from repro.core.state import config_from_state, config_to_state
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.preprocessing import StandardScaler, TargetScaler
from repro.ml.serialize import estimator_from_state, estimator_to_state

FEATURE_MODES = ("full", "sog_only", "design_only")


@dataclass(frozen=True)
class OverallConfig:
    """Configuration of the overall WNS/TNS model."""

    feature_mode: str = "full"
    n_estimators: int = 40
    max_depth: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"feature_mode must be one of {FEATURE_MODES}")


def _slack_aggregates(record: DesignRecord, arrivals: Dict[str, float]) -> np.ndarray:
    """Aggregate predicted endpoint slacks into design-level features."""
    required = record.clock.required_time(record._setup_time())
    slacks = np.array([required - arrivals[name] for name in sorted(arrivals)])
    if slacks.size == 0:
        slacks = np.zeros(1)
    negative = slacks[slacks < 0.0]
    return np.array(
        [
            float(negative.sum()) if negative.size else 0.0,
            float(slacks.min()),
            float(negative.size),
            float(negative.size) / float(len(slacks)),
            float(slacks.mean()),
            float(np.percentile(slacks, 5)),
        ]
    )


class OverallTimingModel:
    """Predicts design WNS and TNS from fine-grained predictions."""

    def __init__(self, config: Optional[OverallConfig] = None):
        self.config = config or OverallConfig()

    # -- features --------------------------------------------------------------------

    def _features(
        self, record: DesignRecord, bitwise_predictions: Optional[Dict[str, float]]
    ) -> np.ndarray:
        mode = self.config.feature_mode
        design_features = design_feature_vector(record, "sog")
        if mode == "design_only":
            return design_features
        if mode == "sog_only" or bitwise_predictions is None:
            # Fall back to the raw pseudo-STA arrivals of the SOG representation.
            report = record.pseudo_reports["sog"]
            arrivals = {
                e.name: e.arrival for e in report.endpoints if e.kind == "register"
            }
            # Pseudo arrivals live on a different scale; normalise by their max
            # so the aggregates remain comparable across designs.
            scale = max(arrivals.values()) or 1.0
            target_scale = record.clock.period / 0.82
            arrivals = {k: v / scale * target_scale for k, v in arrivals.items()}
            aggregates = _slack_aggregates(record, arrivals)
        else:
            aggregates = _slack_aggregates(record, bitwise_predictions)
        return np.concatenate([aggregates, design_features])

    # -- training --------------------------------------------------------------------

    def fit(
        self,
        records: Sequence[DesignRecord],
        bitwise_predictions: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> "OverallTimingModel":
        rows = []
        wns_labels = []
        tns_labels = []
        for record in records:
            predictions = (bitwise_predictions or {}).get(record.name)
            rows.append(self._features(record, predictions))
            wns_labels.append(record.wns_label)
            tns_labels.append(record.tns_label)
        X = np.vstack(rows)
        self.scaler_ = StandardScaler()
        Xs = self.scaler_.fit_transform(X)

        self.wns_scaler_ = TargetScaler()
        self.tns_scaler_ = TargetScaler()
        wns = self.wns_scaler_.fit_transform(np.array(wns_labels))
        tns = self.tns_scaler_.fit_transform(np.array(tns_labels))

        self.wns_model_ = GradientBoostingRegressor(
            n_estimators=self.config.n_estimators,
            max_depth=self.config.max_depth,
            min_samples_leaf=2,
            seed=self.config.seed,
        )
        self.tns_model_ = GradientBoostingRegressor(
            n_estimators=self.config.n_estimators,
            max_depth=self.config.max_depth,
            min_samples_leaf=2,
            seed=self.config.seed + 1,
        )
        self.wns_model_.fit(Xs, wns)
        self.tns_model_.fit(Xs, tns)
        return self

    # -- inference --------------------------------------------------------------------

    def predict(
        self,
        record: DesignRecord,
        bitwise_predictions: Optional[Dict[str, float]] = None,
    ) -> Dict[str, float]:
        """Predicted design WNS and TNS."""
        if not hasattr(self, "wns_model_"):
            raise RuntimeError("OverallTimingModel must be fitted before predict()")
        features = self._features(record, bitwise_predictions).reshape(1, -1)
        scaled = self.scaler_.transform(features)
        wns = float(self.wns_scaler_.inverse_transform(self.wns_model_.predict(scaled))[0])
        tns = float(self.tns_scaler_.inverse_transform(self.tns_model_.predict(scaled))[0])
        return {"wns": min(wns, 0.0), "tns": min(tns, 0.0)}

    # -- serialization ------------------------------------------------------------

    def to_state(self) -> dict:
        """Snapshot the fitted WNS/TNS models."""
        if not hasattr(self, "wns_model_"):
            raise RuntimeError("OverallTimingModel must be fitted before to_state()")
        return {
            "model": "OverallTimingModel",
            "config": config_to_state(self.config),
            "scaler": self.scaler_.to_state(),
            "wns_scaler": self.wns_scaler_.to_state(),
            "tns_scaler": self.tns_scaler_.to_state(),
            "wns_model": estimator_to_state(self.wns_model_),
            "tns_model": estimator_to_state(self.tns_model_),
        }

    @classmethod
    def from_state(cls, state: dict) -> "OverallTimingModel":
        """Rebuild a fitted model; predictions are bit-identical to the source."""
        model = cls(config_from_state(state["config"]))
        model.scaler_ = StandardScaler.from_state(state["scaler"])
        model.wns_scaler_ = TargetScaler.from_state(state["wns_scaler"])
        model.tns_scaler_ = TargetScaler.from_state(state["tns_scaler"])
        model.wns_model_ = estimator_from_state(state["wns_model"])
        model.tns_model_ = estimator_from_state(state["tns_model"])
        return model
