"""Graph-convolutional predictor of per-service resource demand.

Every microservice is a node in an undirected call graph. A sample stacks, per
node, the last k-1 observed request rates plus the forecast for the next
minute; the target is the peak vCPU usage of the window that ends at the
forecast minute. Layers propagate features through the symmetrically
normalized adjacency (self loops added), so each service sees its neighbors'
load, which is what makes cascaded demand visible before it arrives.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DivergenceError, EmptyDatasetError, ShapeError, ValidationError
from .tensor import AdamState, MinMaxScaler, Rng, activation, adam_step, glorot_init

log = logging.getLogger(__name__)

GCN_SCHEMA = "graph-phpa/gcn-model/v1"


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalization with self loops: D^{-1/2} (A + I) D^{-1/2}."""
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"adjacency must be square, got {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValidationError("adjacency must be symmetric")
    a_tilde = a + np.eye(a.shape[0])
    degree = a_tilde.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degree)
    return a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]


@dataclass(frozen=True)
class ServiceGraph:
    """Undirected call graph over named services."""

    nodes: tuple[str, ...]
    adjacency: np.ndarray
    a_hat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        if len(nodes) == 0:
            raise ValidationError("graph needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValidationError("duplicate node names in graph")
        a = np.asarray(self.adjacency, dtype=np.float64)
        if a.shape != (len(nodes), len(nodes)):
            raise ShapeError(f"adjacency shape {a.shape} does not match {len(nodes)} nodes")
        if not np.array_equal(a, a.T):
            raise ValidationError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValidationError("adjacency must have a zero diagonal")
        if not np.all(np.isin(a, (0.0, 1.0))):
            raise ValidationError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(self, "a_hat", normalize_adjacency(a))

    @property
    def size(self) -> int:
        return len(self.nodes)

    @classmethod
    def from_edges(cls, nodes, edges) -> "ServiceGraph":
        nodes = tuple(nodes)
        a = np.zeros((len(nodes), len(nodes)))
        pos = {n: i for i, n in enumerate(nodes)}
        for u, v in edges:
            if u not in pos or v not in pos:
                raise ValidationError(f"edge ({u!r}, {v!r}) references unknown node")
            if u == v:
                raise ValidationError(f"self edge on {u!r} not allowed")
            a[pos[u], pos[v]] = 1.0
            a[pos[v], pos[u]] = 1.0
        return cls(nodes=nodes, adjacency=a)


@dataclass(frozen=True)
class GcnConfig:
    window: int = 10
    hidden: tuple[int, ...] = (32,)
    learning_rate: float = 0.001
    epochs: int = 100
    batch_size: int = 256
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.window < 2:
            raise ValidationError(f"window must be >= 2, got {self.window}")
        if any(h < 1 for h in self.hidden):
            raise ValidationError(f"hidden widths must be >= 1, got {self.hidden}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")

    @property
    def widths(self) -> tuple[int, ...]:
        """Feature width at every layer boundary: input k, hidden..., 1 output."""
        return (self.window,) + self.hidden + (1,)

    @property
    def activations(self) -> tuple[str, ...]:
        return ("relu",) * len(self.hidden) + ("linear",)

    def to_dict(self) -> dict:
        return {"window": self.window, "hidden": list(self.hidden),
                "learning_rate": self.learning_rate, "epochs": self.epochs,
                "batch_size": self.batch_size, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "GcnConfig":
        d = dict(d)
        d["hidden"] = tuple(d.get("hidden", (32,)))
        return cls(**d)


class GcnModel:
    """Trained resource predictor tied to a fixed node ordering.

    Features share one scaler (they mix through a_hat, so they must live on a
    common scale); targets get one scaler per node, because per-service usage
    magnitudes differ by multiples and the layers share weights across nodes.
    """

    def __init__(self, config: GcnConfig, nodes: tuple[str, ...], weights: list[np.ndarray],
                 feature_scaler: MinMaxScaler, target_scalers,
                 activations: tuple[str, ...] | None = None):
        self.config = config
        self.nodes = tuple(nodes)
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.activations = tuple(activations) if activations is not None else config.activations
        self.feature_scaler = feature_scaler
        self.target_scalers = tuple(target_scalers)
        if len(self.target_scalers) != len(self.nodes):
            raise ShapeError(f"{len(self.target_scalers)} target scalers for "
                             f"{len(self.nodes)} nodes")
        if len(self.activations) != len(self.weights):
            raise ShapeError(f"{len(self.weights)} weight matrices need as many "
                             f"activations, got {len(self.activations)}")
        if self.weights[0].shape[0] != config.window:
            raise ShapeError(f"first weight expects {self.weights[0].shape[0]} features, "
                             f"config window is {config.window}")
        if self.weights[-1].shape[1] != 1:
            raise ShapeError("last weight must map to a single output feature")
        for idx in range(len(self.weights) - 1):
            if self.weights[idx].shape[1] != self.weights[idx + 1].shape[0]:
                raise ShapeError(f"weights {idx} and {idx + 1} do not chain: "
                                 f"{self.weights[idx].shape} -> {self.weights[idx + 1].shape}")

    def to_json_dict(self) -> dict:
        return {
            "schema": GCN_SCHEMA,
            "config": self.config.to_dict(),
            "nodes": list(self.nodes),
            "weights": [w.tolist() for w in self.weights],
            "activations": list(self.activations),
            "feature_scaler": self.feature_scaler.to_dict(),
            "target_scalers": [s.to_dict() for s in self.target_scalers],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GcnModel":
        if d.get("schema") != GCN_SCHEMA:
            raise ValidationError(f"unexpected model schema {d.get('schema')!r}")
        return cls(config=GcnConfig.from_dict(d["config"]), nodes=tuple(d["nodes"]),
                   weights=[np.asarray(w) for w in d["weights"]],
                   feature_scaler=MinMaxScaler.from_dict(d["feature_scaler"]),
                   target_scalers=[MinMaxScaler.from_dict(s) for s in d["target_scalers"]],
                   activations=tuple(d["activations"]))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True) + "\n",
                              encoding="utf-8", newline="\n")

    @classmethod
    def load(cls, path: str | Path) -> "GcnModel":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _forward_scaled(weights: list[np.ndarray], activations, a_hat: np.ndarray,
                    z: np.ndarray, keep_cache: bool = False):
    """Propagate scaled features (batch, N, D) through every layer."""
    h = z
    cache = [] if keep_cache else None
    for w, kind in zip(weights, activations):
        agg = np.matmul(a_hat, h)  # (batch, N, D_l)
        pre = agg @ w
        if keep_cache:
            cache.append({"agg": agg, "pre": pre, "kind": kind})
        h = activation(pre, kind)
    return h, cache


def gcn_forward(model: GcnModel, graph: ServiceGraph, x: np.ndarray) -> np.ndarray:
    """Layer-by-layer propagation of scaled features.

    One sample (N, D) gives (N, 1); a batch (S, N, D) gives (S, N, 1). Pure
    network evaluation: scalers do not apply here, they belong to
    predict_resource.
    """
    if tuple(graph.nodes) != model.nodes:
        raise ValidationError(f"graph nodes {graph.nodes} do not match model nodes {model.nodes}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-2:] != (graph.size, model.weights[0].shape[0]):
        raise ShapeError(f"features shape {x.shape}, expected "
                         f"{(graph.size, model.weights[0].shape[0])} or a batch of those")
    out, _ = _forward_scaled(model.weights, model.activations, graph.a_hat, x)
    return out


def predict_resource(model: GcnModel, graph: ServiceGraph, features: np.ndarray) -> np.ndarray:
    """Per-node demand in original units, clamped at zero.

    features are raw samples (S, N, k), giving (S, N), or one sample (N, k),
    giving (N,).
    """
    out = gcn_forward(model, graph, model.feature_scaler.transform(features))[..., 0]
    raw = np.stack([s.inverse_transform(out[..., ni])
                    for ni, s in enumerate(model.target_scalers)], axis=-1)
    return np.maximum(raw, 0.0)


def scale_targets(scalers, y: np.ndarray) -> np.ndarray:
    """Apply per-node target scalers to a (S, N, 1) tensor."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 3 or y.shape[1] != len(scalers):
        raise ShapeError(f"targets shape {y.shape}, expected (S, {len(scalers)}, 1)")
    return np.stack([scalers[ni].transform(y[:, ni, :]) for ni in range(len(scalers))],
                    axis=1)


def build_resource_dataset(workloads: dict[str, np.ndarray],
                           forecasts: dict[str, np.ndarray],
                           resources: dict[str, np.ndarray],
                           nodes: tuple[str, ...] | list[str],
                           k: int) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (features, targets) tensors for every timestep with full context.

    For a reference minute t the node row holds workloads[t-k+2 .. t] followed
    by the forecast for t+1, and the target is the windowed peak of the
    resource series over [t-k+2 .. t+1]. Arrays must all have the same length
    T >= k+1; the result holds T-k samples, shapes (S, N, k) and (S, N, 1).
    """
    nodes = tuple(nodes)
    if k < 2:
        raise ValidationError(f"window must be >= 2, got {k}")
    lengths = set()
    for name in nodes:
        for table, label in ((workloads, "workload"), (forecasts, "forecast"),
                             (resources, "resource")):
            if name not in table:
                raise ValidationError(f"missing {label} series for service {name!r}")
            lengths.add(len(table[name]))
    if len(lengths) != 1:
        raise ValidationError(f"series lengths differ across services: {sorted(lengths)}")
    t_total = lengths.pop()
    if t_total < k + 1:
        raise EmptyDatasetError(f"series length {t_total} yields no samples for k={k}")

    def stacked(table):
        return np.column_stack([np.asarray(table[name], dtype=np.float64) for name in nodes])

    x = resource_features(stacked(workloads), stacked(forecasts)[k:], nodes, k)
    y = sliding_window_view(stacked(resources)[1:], k, axis=0).max(axis=-1)
    return x, y[:, :, None]


def resource_features(workloads: np.ndarray, ahead: np.ndarray,
                      nodes: tuple[str, ...] | list[str], k: int) -> np.ndarray:
    """Graph features (S, N, k) from request rates (T, N) and forecasts (S, N).

    Sample s holds, per node, workloads[s+1 .. s+k-1] followed by ahead[s],
    the forecast for minute index s+k; T must be at least S+k-1. Training
    datasets and the replay's predictions both build their features here.
    """
    bad = np.argwhere(~np.isfinite(ahead))
    if len(bad):
        s, ni = bad[0]
        raise ValidationError(f"forecast for {nodes[ni]!r} at minute index {s + k} "
                              f"is not finite")
    count = len(ahead)
    x = np.empty((count, len(nodes), k))
    x[:, :, :k - 1] = sliding_window_view(workloads[1:count + k - 1], k - 1, axis=0)
    x[:, :, k - 1] = ahead
    return x


def _loss_and_grads(weights: list[np.ndarray], activations, a_hat: np.ndarray,
                    z: np.ndarray, targets: np.ndarray):
    """Batch MSE over all node outputs plus per-weight gradients."""
    out, cache = _forward_scaled(weights, activations, a_hat, z, keep_cache=True)
    err = out - targets
    denom = err.size
    loss = float(np.mean(err ** 2))

    d_out = 2.0 * err / denom
    grads = [None] * len(weights)
    for li in range(len(weights) - 1, -1, -1):
        entry = cache[li]
        if entry["kind"] == "relu":
            d_pre = d_out * (entry["pre"] > 0)
        else:
            d_pre = d_out
        grads[li] = np.einsum("bnd,bno->do", entry["agg"], d_pre)
        if li:  # the input features need no gradient
            # a_hat is symmetric, so the transpose in the chain rule is itself.
            d_out = np.matmul(a_hat, d_pre @ weights[li].T)
    return loss, grads


def train_gcn(train: tuple[np.ndarray, np.ndarray], graph: ServiceGraph, config: GcnConfig,
              valid: tuple[np.ndarray, np.ndarray] | None = None
              ) -> tuple[GcnModel, list[tuple[float, float | None]]]:
    """Fit the predictor with mini-batch Adam; returns model and per-epoch losses.

    Min-max scalers to [0, 1] are fitted on the training tensors: one shared
    scaler for features, one per node for targets. History entries are
    (train MSE, valid MSE or None) in scaled units, deterministic for a fixed
    config seed.
    """
    x_train = np.asarray(train[0], dtype=np.float64)
    y_train = np.asarray(train[1], dtype=np.float64)
    if x_train.ndim != 3 or x_train.shape[1] != graph.size or x_train.shape[2] != config.window:
        raise ShapeError(f"features shape {x_train.shape}, expected "
                         f"(S, {graph.size}, {config.window})")
    if y_train.shape != (x_train.shape[0], graph.size, 1):
        raise ShapeError(f"targets shape {y_train.shape}, expected "
                         f"{(x_train.shape[0], graph.size, 1)}")
    if len(x_train) == 0:
        raise EmptyDatasetError("training set is empty")

    feature_scaler = MinMaxScaler.fit(x_train, out_lo=0.0, out_hi=1.0)
    target_scalers = tuple(MinMaxScaler.fit(y_train[:, ni, :], out_lo=0.0, out_hi=1.0)
                           for ni in range(graph.size))
    xs = feature_scaler.transform(x_train)
    ys = scale_targets(target_scalers, y_train)
    has_valid = valid is not None and len(valid[0]) > 0
    if has_valid:
        xv = feature_scaler.transform(np.asarray(valid[0], dtype=np.float64))
        yv = scale_targets(target_scalers, np.asarray(valid[1], dtype=np.float64))

    rng = Rng(config.seed)
    widths = config.widths
    weights = [glorot_init(widths[i], widths[i + 1], rng) for i in range(len(widths) - 1)]
    states = [AdamState.fresh(w, config.learning_rate) for w in weights]
    shuffle_rng = rng.child(1)

    n = len(xs)
    history: list[tuple[float, float | None]] = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, grads = _loss_and_grads(weights, config.activations, graph.a_hat,
                                          xs[idx], ys[idx])
            if not np.isfinite(loss):
                raise DivergenceError(f"training loss diverged at epoch {epoch}", epoch=epoch)
            sq_sum += loss * len(idx)
            for weight, grad, state in zip(weights, grads, states):
                adam_step(weight, grad, state)
        train_mse = sq_sum / n
        valid_mse = None
        if has_valid:
            out, _ = _forward_scaled(weights, config.activations, graph.a_hat, xv)
            valid_mse = float(np.mean((out - yv) ** 2))
            if not np.isfinite(valid_mse):
                raise DivergenceError(f"validation loss diverged at epoch {epoch}", epoch=epoch)
        history.append((train_mse, valid_mse))
        log.debug("gcn epoch %d: train=%.6g valid=%s", epoch, train_mse, valid_mse)
    model = GcnModel(config, graph.nodes, weights, feature_scaler, target_scalers)
    return model, history


def evaluate_gcn(model: GcnModel, graph: ServiceGraph,
                 dataset: tuple[np.ndarray, np.ndarray]) -> float:
    """MSE in scaled units over a dataset, comparable with training history."""
    x = model.feature_scaler.transform(np.asarray(dataset[0], dtype=np.float64))
    y = scale_targets(model.target_scalers, dataset[1])
    out, _ = _forward_scaled(model.weights, model.activations, graph.a_hat, x)
    return float(np.mean((out - y) ** 2))


def evaluate_gcn_per_node(model: GcnModel, graph: ServiceGraph,
                          dataset: tuple[np.ndarray, np.ndarray]) -> dict[str, float]:
    """Scaled MSE broken down by service."""
    x = model.feature_scaler.transform(np.asarray(dataset[0], dtype=np.float64))
    y = scale_targets(model.target_scalers, dataset[1])
    out, _ = _forward_scaled(model.weights, model.activations, graph.a_hat, x)
    sq = (out - y) ** 2
    return {node: float(np.mean(sq[:, ni, :])) for ni, node in enumerate(graph.nodes)}
