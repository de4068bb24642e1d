"""Proactive pod sizing: from request rates to predicted vCPU demand, and
from that demand to replicas.

forecast_features is the one place that builds the graph predictor's
features from request rates: per node, a window's last k-1 rates followed by
the forecaster's forecast for the next minute. Training
(build_resource_dataset) and replay (predict_demand) both call it, so the
GCN predicts from inputs built exactly as the ones it was trained on, over
the call graph it was trained on: the replay takes it from the GCN.

The sizing rule is deliberately small. Clamp each predicted demand into its
service's resource band, and give the service the whole pods that cover it,
never fewer than one and never more than the per-service ceiling. Nothing is
carried from one minute to the next, so a minute's pods depend on its
prediction alone. The rule knows nothing of models or clusters; it is pure
arithmetic so it can be fuzzed hard.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyDatasetError, ShapeError, ValidationError
from .forecast_lstm import LstmModel, forecast_services
from .predict_gcn import GcnModel, ServiceGraph, predict_resource


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


def forecast_features(lstm: LstmModel, graph: ServiceGraph,
                      rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Next-minute forecasts and graph predictor features for every k-window
    of rates, k being the forecaster's window.

    rates is a (T, N) grid of request rates, T >= k, column j being
    graph.nodes[j]. Row s of the (T-k+1, N) forecasts and of the
    (T-k+1, N, k) features belongs to the window of rows s .. s+k-1. The
    forecaster reads those k rates under the service's scaler and forecasts
    row s+k, clamped at zero; the features are the window's last k-1 rates
    followed by that forecast. Every service forecasts in one
    forecast_services call through the forecaster's one set of weights, so
    services whose scaled windows are equal share one LSTM forward. A node
    without a scaler in the forecaster is a ValidationError naming it, and so
    is a forecast that is not finite, with its minute index.
    """
    k = lstm.config.window
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 2 or rates.shape[1] != graph.size or len(rates) < k:
        raise ShapeError(f"history shape {rates.shape}, expected (T, {graph.size}) with "
                         f"T >= {k}: the rates of graph.nodes {list(graph.nodes)}")
    windows = sliding_window_view(rates, k, axis=0)  # (T-k+1, N, k)
    forecasts = np.column_stack(forecast_services(lstm, graph.nodes,
                                                  [windows[:, ni] for ni in range(graph.size)]))
    bad = np.argwhere(~np.isfinite(forecasts))
    if len(bad):
        s, ni = bad[0]
        raise ValidationError(f"forecast for {graph.nodes[ni]!r} at minute index {s + k} "
                              f"is not finite")
    return forecasts, np.concatenate([windows[:, :, 1:], forecasts[:, :, None]], axis=2)


def predict_demand(lstm: LstmModel, gcn_model: GcnModel,
                   rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """forecast_features' forecasts and the predicted vCPU demand of its
    features, both (T-k+1, N) for a (T, N) grid of rates over gcn_model.graph's
    nodes. A grid of exactly k rows is a batch of one."""
    forecasts, features = forecast_features(lstm, gcn_model.graph, rates)
    return forecasts, predict_resource(gcn_model, features)


def build_resource_dataset(lstm: LstmModel, graph: ServiceGraph, rates: np.ndarray,
                           usage: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The graph predictor's training (features, targets), (T-k, N, k) and
    (T-k, N, 1), from a segment's (T, N) grids of request rates and vCPU
    usage, T > k.

    Every k-window of rates gives a sample but the last, whose forecast minute
    lies past the segment. The features are forecast_features', as the
    replay predicts from, and each target is the node's peak usage over the k
    minutes that end at the forecast minute.
    """
    k = lstm.config.window
    rates, usage = (np.asarray(a, dtype=np.float64) for a in (rates, usage))
    if rates.ndim != 2 or usage.shape != rates.shape:
        raise ShapeError(f"rates {rates.shape} and usage {usage.shape} must be "
                         f"(T, {graph.size}) grids of one shape")
    if len(rates) <= k:
        raise EmptyDatasetError(f"{len(rates)} minutes yield no samples for k={k}")
    _, features = forecast_features(lstm, graph, rates[:-1])
    return features, sliding_window_view(usage[1:], k, axis=0).max(axis=-1)[:, :, None]
