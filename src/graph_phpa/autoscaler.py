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


@dataclass(frozen=True)
class ScalingDecision:
    service: str
    r_prev: float
    r_new: float
    n_prev: int
    n_new: int

    @property
    def delta(self) -> int:
        return self.n_new - self.n_prev


def _check_aligned(current_r, current_n, predicted, bounds):
    keys = set(current_r)
    for name, table in (("current_n", current_n), ("predicted", predicted),
                        ("bounds", bounds)):
        if set(table) != keys:
            missing = sorted(keys.symmetric_difference(table))
            raise ValidationError(f"{name} keys do not match current_r: {missing}")


def integrate_step(current_r: Mapping[str, float],
                   current_n: Mapping[str, int],
                   predicted: Mapping[str, float],
                   bounds: Mapping[str, ScalingBounds]) -> dict[str, ScalingDecision]:
    """One scaling decision per service from predicted vCPU demand.

    The prediction is clamped to [r_lb, r_ub]; the pod count then moves by
    ceil(|clamped - current| / pod_capacity) in the direction of the change,
    bounded to [1, max_pods]. Equal demand leaves the count untouched.
    """
    _check_aligned(current_r, current_n, predicted, bounds)
    decisions = {}
    for service in current_r:
        b = bounds[service]
        r_cur = float(current_r[service])
        n_cur = int(current_n[service])
        if not 1 <= n_cur <= b.max_pods:
            raise ValidationError(f"current pod count for {service!r} outside "
                                  f"[1, {b.max_pods}]: {n_cur}")
        if not b.r_lb <= r_cur <= b.r_ub:
            raise ValidationError(f"current allocation for {service!r} outside "
                                  f"[{b.r_lb}, {b.r_ub}]: {r_cur}")
        raw = float(predicted[service])
        if not math.isfinite(raw):
            raise ValidationError(f"predicted demand for {service!r} is not finite")
        r_new = min(max(raw, b.r_lb), b.r_ub)
        if r_new > r_cur:
            n_new = min(n_cur + math.ceil((r_new - r_cur) / b.pod_capacity), b.max_pods)
        elif r_new < r_cur:
            n_new = max(n_cur - math.ceil((r_cur - r_new) / b.pod_capacity), 1)
            n_new = min(n_new, b.max_pods)
        else:
            n_new = min(max(n_cur, 1), b.max_pods)
        decisions[service] = ScalingDecision(service=service, r_prev=r_cur, r_new=r_new,
                                             n_prev=n_cur, n_new=n_new)
    return decisions


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
