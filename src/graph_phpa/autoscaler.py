"""Proactive pod-count integration: turn predicted vCPU demand into replicas.

The step is deliberately small. Clamp the predicted demand into the allowed
resource band, compare it with what is currently allocated, and move the pod
count by the number of whole pods needed to cover the difference, never below
one and never above the per-service ceiling. Everything that knows about
models or clusters lives elsewhere; this module is pure arithmetic so it can
be fuzzed hard.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError, ValidationError
from .forecast_lstm import LstmModel, forecast_rates
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


def integrate_step(r_cur: float, n_cur: int, predicted: float,
                   bounds: ScalingBounds) -> tuple[float, int]:
    """One service's scaling step from its predicted vCPU demand: the new
    allocation and pod count.

    The prediction is clamped to [r_lb, r_ub]; the pod count then moves by
    ceil(|clamped - r_cur| / pod_capacity) in the direction of the change,
    bounded to [1, max_pods]. Equal demand leaves the count untouched.
    """
    if not 1 <= n_cur <= bounds.max_pods:
        raise ValidationError(f"current pod count outside [1, {bounds.max_pods}]: {n_cur}")
    if not bounds.r_lb <= r_cur <= bounds.r_ub:
        raise ValidationError(f"current allocation outside [{bounds.r_lb}, {bounds.r_ub}]: "
                              f"{r_cur}")
    if not math.isfinite(predicted):
        raise ValidationError(f"predicted demand {predicted} is not finite")
    r_new = min(max(predicted, bounds.r_lb), bounds.r_ub)
    if r_new > r_cur:
        return r_new, min(n_cur + math.ceil((r_new - r_cur) / bounds.pod_capacity),
                          bounds.max_pods)
    if r_new < r_cur:
        return r_new, max(n_cur - math.ceil((r_cur - r_new) / bounds.pod_capacity), 1)
    return r_new, n_cur


def predict_demand(lstm_models: Mapping[str, LstmModel],
                   gcn_model: GcnModel,
                   graph: ServiceGraph,
                   rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Next-minute forecasts and predicted vCPU demand for every k-window of rates.

    rates is a (T, N) grid of request rates, T >= k, column j being
    graph.nodes[j]. Row j of both (T-k+1, N) results, in the same columns,
    belongs to the window that ends at row j+k-1: the forecaster reads its k
    rates (the forecast is clamped at zero), the graph predictor the last k-1
    plus the forecast. A grid of exactly k rows is a batch of one.
    """
    k = gcn_model.config.window
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 2 or rates.shape[1] != graph.size or len(rates) < k:
        raise ShapeError(f"history shape {rates.shape}, expected (T, {graph.size}) with "
                         f"T >= {k}: the rates of graph.nodes {list(graph.nodes)}")
    for service in graph.nodes:
        if service not in lstm_models:
            raise ValidationError(f"no forecaster for service {service!r}")
    windows = sliding_window_view(rates, k, axis=0)  # (T-k+1, N, k)
    forecasts = np.column_stack([forecast_rates(lstm_models[s], windows[:, ni])
                                 for ni, s in enumerate(graph.nodes)])
    features = resource_features(rates, forecasts, graph.nodes, k)
    return forecasts, predict_resource(gcn_model, graph, features)
