"""Independent reference implementations used to check the real ones.

The forward references are deliberately written with plain Python lists,
loops, and the math module: no numpy, no shared code with the package. Slow
and simple beats fast and entangled, because these are the arbiters. The
finite-difference gradient takes and returns numpy arrays, since it perturbs
the package's own parameter tensors, but computes nothing with them beyond
one entry at a time. The resource-dataset loop and the per-minute predictive
policy are the sample-by-sample and minute-by-minute forms of the batched
code: they arbitrate the batching, not the arithmetic, so the policy reuses
the package's predict_demand (as a batch of one) and integrate_step. The
per-minute demand propagation likewise draws one freshly seeded Rng per
service and minute and walks the demand model's own topological order.
"""
import math

import numpy as np

from graph_phpa.autoscaler import integrate_step, predict_demand
from graph_phpa.cluster_sim import DecisionRow, ScalingPolicy
from graph_phpa.errors import DivergenceError, ValidationError
from graph_phpa.tensor import Rng, mix_seed


def rel_err(a, b, floor=1e-12):
    """Norm-based relative error between two same-shaped nested structures."""
    fa, fb = _flatten(a), _flatten(b)
    assert len(fa) == len(fb)
    diff = math.sqrt(sum((x - y) ** 2 for x, y in zip(fa, fb)))
    scale = math.sqrt(sum(x * x for x in fa)) + math.sqrt(sum(y * y for y in fb))
    return diff / max(scale, floor)


def _flatten(x):
    if isinstance(x, (int, float)):
        return [float(x)]
    out = []
    for item in x:
        out.extend(_flatten(item))
    return out


def finite_diff_gradient(f, param, eps):
    """Central-difference gradient estimate of a scalar function, entry by entry."""
    if eps <= 0.0:
        raise ValidationError(f"eps must be positive, got {eps}")
    param = np.asarray(param, dtype=np.float64)
    grad = np.zeros_like(param)
    for idx in np.ndindex(param.shape):
        bumped = param.copy()
        bumped[idx] = param[idx] + eps
        hi = float(f(bumped))
        bumped[idx] = param[idx] - eps
        lo = float(f(bumped))
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise DivergenceError(f"objective non-finite at perturbed index {idx}")
        grad[idx] = (hi - lo) / (2.0 * eps)
    return grad


def _sigmoid(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _column(matrix, j):
    return [row[j] for row in matrix]


def lstm_forward_oracle(layers, head_w, head_b, window):
    """Step-by-step stacked LSTM recurrence on one scaled window.

    layers: list of dicts {"w": {gate: rows}, "u": {...}, "b": {...}} with
    gates named input/forget/output/candidate; head_w is a column as a flat
    list. Returns tanh(h_last . head_w + head_b).
    """
    xs = [[float(v)] for v in window]
    for layer in layers:
        hidden = len(layer["b"]["input"])
        h = [0.0] * hidden
        c = [0.0] * hidden
        outputs = []
        for x in xs:
            gates = {}
            for name in ("input", "forget", "output", "candidate"):
                pre = [_dot(x, _column(layer["w"][name], j))
                       + _dot(h, _column(layer["u"][name], j))
                       + layer["b"][name][j]
                       for j in range(hidden)]
                if name == "candidate":
                    gates[name] = [math.tanh(p) for p in pre]
                else:
                    gates[name] = [_sigmoid(p) for p in pre]
            c = [gates["forget"][j] * c[j] + gates["input"][j] * gates["candidate"][j]
                 for j in range(hidden)]
            h = [gates["output"][j] * math.tanh(c[j]) for j in range(hidden)]
            outputs.append(h)
        xs = outputs
    z = _dot(xs[-1], head_w) + head_b
    return math.tanh(z)


def normalized_adjacency_oracle(a):
    """D^{-1/2} (A + I) D^{-1/2} computed with explicit loops."""
    n = len(a)
    a_tilde = [[a[i][j] + (1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    degree = [sum(row) for row in a_tilde]
    return [[a_tilde[i][j] / math.sqrt(degree[i]) / math.sqrt(degree[j])
             for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik == 0.0:
                continue
            for j in range(cols):
                out[i][j] += aik * b[k][j]
    return out


def _activate(m, kind):
    def f(v):
        if kind == "relu":
            return v if v > 0 else 0.0
        if kind == "tanh":
            return math.tanh(v)
        if kind == "sigmoid":
            return _sigmoid(v)
        if kind == "linear":
            return v
        raise AssertionError(f"oracle got unknown activation {kind}")
    return [[f(v) for v in row] for row in m]


def gcn_forward_oracle(a, weights, activations, x):
    """Layer-by-layer propagation H <- act(A_hat H W) with dense loops.

    a is the raw 0/1 adjacency (no self loops); normalization happens here so
    the oracle shares nothing with the implementation.
    """
    a_hat = normalized_adjacency_oracle(a)
    h = [list(map(float, row)) for row in x]
    for w, kind in zip(weights, activations):
        h = _activate(_mat_mul(a_hat, _mat_mul(h, w)), kind)
    return h


def windowed_max_oracle(series, k):
    """For every window of k consecutive values, its maximum; plain loops."""
    out = []
    for end in range(k - 1, len(series)):
        best = series[end - k + 1]
        for v in series[end - k + 2:end + 1]:
            if v > best:
                best = v
        out.append(best)
    return out


def resource_dataset_oracle(workloads, forecasts, resources, nodes, k):
    """(features, targets) of build_resource_dataset, one sample and node at a time."""
    t_total = len(workloads[nodes[0]])
    count = t_total - k
    x = np.empty((count, len(nodes), k))
    y = np.empty((count, len(nodes), 1))
    for s, t in enumerate(range(k - 1, t_total - 1)):
        for ni, name in enumerate(nodes):
            past = workloads[name][t - k + 2:t + 1]
            ahead = forecasts[name][t + 1]
            if not np.isfinite(ahead):
                raise ValidationError(f"forecast for {name!r} at minute index {t + 1} is not finite")
            x[s, ni, :k - 1] = past
            x[s, ni, k - 1] = ahead
            y[s, ni, 0] = np.max(resources[name][t - k + 2:t + 2])
    return x, y


def propagate_minute_oracle(demand, external_rps, minute, seed, with_noise=True):
    """One minute of DemandModel propagation in Python floats.

    Each internal service's inbound rate is scaled by a lognormal factor whose
    normal comes from Rng(mix_seed(seed, minute, service index)), a generator
    seeded for that minute and service alone.
    """
    rates = {s: 0.0 for s in demand.services}
    rates[demand.entry] = float(external_rps)
    sigma = demand.noise_sigma
    for u in demand._topo:
        if with_noise and sigma > 0 and u != demand.entry:
            z = Rng(mix_seed(seed, minute, demand.services.index(u))).normal()
            rates[u] *= math.exp(sigma * z - 0.5 * sigma * sigma)
        for v, mult in demand.fan_out.get(u, {}).items():
            rates[v] += rates[u] * mult
    return rates


class PerMinutePredictivePolicy(ScalingPolicy):
    """The predictive policy with one predict_demand call per minute on the
    last k rates, instead of one batched call over the run."""

    name = "phpa"

    def __init__(self, lstm_models, gcn_model, graph, bounds):
        self.lstm_models = lstm_models
        self.gcn_model = gcn_model
        self.graph = graph
        self.bounds = bounds
        self.min_history = gcn_model.config.window
        self._r = None

    def begin(self, start_minute, rates):
        self._r = None

    def decide(self, minute, history, utilization, pods):
        k = self.min_history
        nodes = self.graph.nodes
        window = {s: list(history[s][-k:]) for s in nodes}
        forecasts, demand = predict_demand(self.lstm_models, self.gcn_model, self.graph,
                                           window)
        forecasts = {s: float(v) for s, v in zip(nodes, forecasts[0])}
        demand = {s: float(v) for s, v in zip(nodes, demand[0])}
        if self._r is None:
            # The first decision only seeds the allocation state.
            self._r = {s: min(max(demand[s], self.bounds[s].r_lb), self.bounds[s].r_ub)
                       for s in nodes}
            records = [DecisionRow(minute=minute, service=s, forecast_rps=forecasts[s],
                                   predicted_vcpu=demand[s], r_prev=self._r[s],
                                   r_new=self._r[s], n_prev=pods[s], n_new=pods[s], delta=0)
                       for s in nodes]
            return dict(pods), records
        decisions = integrate_step(self._r, pods, demand, self.bounds)
        self._r = {s: d.r_new for s, d in decisions.items()}
        records = [DecisionRow(minute=minute, service=s, forecast_rps=forecasts[s],
                               predicted_vcpu=demand[s], r_prev=d.r_prev, r_new=d.r_new,
                               n_prev=d.n_prev, n_new=d.n_new, delta=d.delta)
                   for s, d in decisions.items()]
        return {s: d.n_new for s, d in decisions.items()}, records
