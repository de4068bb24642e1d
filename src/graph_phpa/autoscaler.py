"""Proactive pod sizing: turn predicted vCPU demand into replicas.

The rule is deliberately small. Clamp each predicted demand into its
service's resource band, and give the service the whole pods that cover it,
never fewer than one and never more than the per-service ceiling. Nothing is
carried from one minute to the next, so a minute's pods depend on its
prediction alone. Everything that knows about models or clusters lives
elsewhere; the rule is pure arithmetic so it can be fuzzed hard.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError, ValidationError
from .forecast_lstm import LstmModel, forecast_services
from .predict_gcn import GcnModel, ServiceGraph, predict_resource, resource_features


@dataclass(frozen=True)
class ScalingBounds:
    """Per-service resource band and pod limits."""

    r_lb: float
    r_ub: float
    pod_capacity: float = 1.0
    max_pods: int = field(kw_only=True)

    def __post_init__(self):
        if self.r_lb <= 0:
            raise ValidationError(f"r_lb must be positive, got {self.r_lb}")
        if self.r_ub < self.r_lb:
            raise ValidationError(f"r_ub {self.r_ub} below r_lb {self.r_lb}")
        if self.pod_capacity <= 0:
            raise ValidationError(f"pod_capacity must be positive, got {self.pod_capacity}")
        if self.max_pods < 1:
            raise ValidationError(f"max_pods must be >= 1, got {self.max_pods}")


def size_pods(predicted, bounds: Sequence[ScalingBounds]) -> tuple[np.ndarray, np.ndarray]:
    """The allocation and pod count for a grid of predicted vCPU demand.

    Column j of predicted (its last axis) is sized under bounds[j]. The
    allocation, float64, is the prediction clamped to [r_lb, r_ub]; the pods,
    int64, are ceil(allocation / pod_capacity) bounded to [1, max_pods]. Both
    have predicted's shape.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    if predicted.ndim == 0 or predicted.shape[-1] != len(bounds):
        raise ShapeError(f"predicted demand shape {predicted.shape}, expected one column "
                         f"per bounds entry ({len(bounds)})")
    bad = np.argwhere(~np.isfinite(predicted))
    if len(bad):
        raise ValidationError(f"demand {predicted[tuple(bad[0])]} at "
                              f"{tuple(bad[0].tolist())} is not finite")
    r_lb, r_ub, capacity, max_pods = (np.array([getattr(b, name) for b in bounds],
                                               dtype=np.float64)
                                      for name in ("r_lb", "r_ub", "pod_capacity", "max_pods"))
    allocation = np.minimum(np.maximum(predicted, r_lb), r_ub)
    pods = np.minimum(np.maximum(np.ceil(allocation / capacity), 1.0), max_pods)
    return allocation, pods.astype(np.int64)


def predict_demand(lstm: LstmModel, gcn_model: GcnModel, graph: ServiceGraph,
                   rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Next-minute forecasts and predicted vCPU demand for every k-window of rates.

    rates is a (T, N) grid of request rates, T >= k, column j being
    graph.nodes[j]. Row j of both (T-k+1, N) results, in the same columns,
    belongs to the window that ends at row j+k-1: the forecaster reads its k
    rates under the service's scaler (the forecast is clamped at zero), the
    graph predictor the last k-1 plus the forecast. A grid of exactly k rows
    is a batch of one. Every service forecasts in one forecast_services call
    through the forecaster's one set of weights, so services whose scaled
    windows are equal share one LSTM forward. A node without a scaler in the
    forecaster is a ValidationError naming it.
    """
    k = gcn_model.config.window
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 2 or rates.shape[1] != graph.size or len(rates) < k:
        raise ShapeError(f"history shape {rates.shape}, expected (T, {graph.size}) with "
                         f"T >= {k}: the rates of graph.nodes {list(graph.nodes)}")
    windows = sliding_window_view(rates, k, axis=0)  # (T-k+1, N, k)
    forecasts = np.column_stack(forecast_services(lstm, graph.nodes,
                                                  [windows[:, ni] for ni in range(graph.size)]))
    features = resource_features(rates, forecasts, graph.nodes, k)
    return forecasts, predict_resource(gcn_model, graph, features)
