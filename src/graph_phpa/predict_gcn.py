"""Graph-convolutional predictor of per-service resource demand.

Every microservice is a node in an undirected call graph. A sample stacks, per
node, the last k-1 observed request rates plus the forecast for the next
minute; the target is the peak vCPU usage of the window that ends at the
forecast minute. Layers propagate features through the symmetrically
normalized adjacency (self loops added), so each service sees its neighbors'
load, which is what makes cascaded demand visible before it arrives.

The fit computes in float32 (tensor.DTYPE): the aggregated training features,
the scaled targets, a_hat, the weights, their gradients and Adam state, and
every per-batch array. A model holds its weights in float64, cast exactly from
the fit's, so the forward pass of evaluation and of the replay computes in
float64 as it always did. The kernels compute in the dtype of the weights they
are given, so the tests can drive a fit in float64 too.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DivergenceError, EmptyDatasetError, ShapeError, ValidationError,
                     check_keys, check_name, check_value, float_array, read, read_json_file)
from .tensor import (BLOCK, DTYPE, MinMaxScaler, Rng, blocks, check_learning_rate, check_seed,
                     fit_adam, glorot_init)

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
            raise ValidationError("nodes must name at least one service")
        if len(set(nodes)) != len(nodes):
            raise ValidationError(f"nodes must be unique, got {list(nodes)}")
        for i, name in enumerate(nodes):
            check_name(name, f"nodes[{i}]")
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
    def from_edges(cls, nodes: tuple[str, ...], edges) -> "ServiceGraph":
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
        for i, h in enumerate(self.hidden):
            if h < 1:
                raise ValidationError(f"hidden[{i}] must be >= 1, got {h}")
        check_learning_rate(self.learning_rate)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        check_seed(self.seed)

    @property
    def widths(self) -> tuple[int, ...]:
        """Feature width at every layer boundary: input k, hidden..., 1 output."""
        return (self.window,) + self.hidden + (1,)

    @property
    def activations(self) -> tuple[str, ...]:
        """What every layer applies to its output: _forward's fixed rule."""
        return ("relu",) * len(self.hidden) + ("linear",)


class GcnModel:
    """Trained resource predictor tied to a fixed node ordering.

    Features share one scaler (they mix through a_hat, so they must live on a
    common scale); targets get one scaler per node, because per-service usage
    magnitudes differ by multiples and the layers share weights across nodes.
    The config fixes the layers: their widths and their activations.
    """

    def __init__(self, config: GcnConfig, nodes: tuple[str, ...], weights: list[np.ndarray],
                 feature_scaler: MinMaxScaler, target_scalers):
        self.config = config
        self.nodes = tuple(nodes)
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        for idx, w in enumerate(self.weights):
            if w.ndim != 2:
                raise ShapeError(f"weights[{idx}] must be a matrix, got shape {w.shape}")
        self.feature_scaler = feature_scaler
        self.target_scalers = tuple(target_scalers)
        if len(self.target_scalers) != len(self.nodes):
            raise ShapeError(f"{len(self.target_scalers)} target scalers for "
                             f"{len(self.nodes)} nodes")
        shapes = [w.shape for w in self.weights]
        widths = config.widths
        if shapes != list(zip(widths, widths[1:])):
            raise ShapeError(f"weight shapes {shapes} do not chain the config's layer "
                             f"widths {widths}")

    def to_json_dict(self) -> dict:
        return {
            "schema": GCN_SCHEMA,
            "config": asdict(self.config),
            "nodes": list(self.nodes),
            "weights": [w.tolist() for w in self.weights],
            "activations": list(self.config.activations),
            "feature_scaler": asdict(self.feature_scaler),
            "target_scalers": [asdict(s) for s in self.target_scalers],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GcnModel":
        if check_value(d, dict, "gcn model").get("schema") != GCN_SCHEMA:
            raise ValidationError(f"schema must be {GCN_SCHEMA!r}, got {d.get('schema')!r}")
        keys = ("schema", "config", "nodes", "weights", "activations", "feature_scaler",
                "target_scalers")
        check_keys(d, "gcn model", required=keys, allowed=keys)
        config = read(GcnConfig, d["config"], "config")
        if d["activations"] != list(config.activations):
            raise ValidationError(f"activations must be {list(config.activations)} "
                                  f"for its config, got {d['activations']!r}")
        return cls(config=config, nodes=check_value(d["nodes"], tuple[str, ...], "nodes"),
                   weights=[float_array(w, f"weights[{i}]")
                            for i, w in enumerate(check_value(d["weights"], list, "weights"))],
                   feature_scaler=MinMaxScaler.from_dict(d["feature_scaler"], "feature_scaler"),
                   target_scalers=[MinMaxScaler.from_dict(s, f"target_scalers[{i}]")
                                   for i, s in enumerate(check_value(d["target_scalers"], list,
                                                                     "target_scalers"))])

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True) + "\n",
                              encoding="utf-8", newline="\n")

    @classmethod
    def load(cls, path: str | Path) -> "GcnModel":
        return read_json_file(path, cls.from_json_dict)


def _layer_buffers(weights: list[np.ndarray], samples: int, nodes: int):
    """Empty per-layer arrays for a forward pass, in the weights' dtype: each
    layer's aggregated input (samples, nodes, D) and its output (samples,
    nodes, O)."""
    dtype = weights[0].dtype
    return ([np.empty((samples, nodes, w.shape[0]), dtype) for w in weights],
            [np.empty((samples, nodes, w.shape[1]), dtype) for w in weights])


def _forward(weights: list[np.ndarray], a_hat: np.ndarray,
             agg: list[np.ndarray], out: list[np.ndarray]) -> np.ndarray:
    """Propagate samples through every layer in place; returns out[-1] (S, N, 1).

    agg[0] holds the input aggregation a_hat @ X of scaled features X
    (S, N, D). Layer l writes its activated output into out[l] (relu on the
    hidden layers, linear on the last: GcnConfig.activations) and, past the
    first, its input aggregation a_hat @ out[l-1] into agg[l]. Every product
    is one small product per sample. A single GEMM over all S*N rows would
    round differently wherever the BLAS blocks rows across sample boundaries:
    the OpenBLAS that numpy ships does for single-column weights, and for 16
    or more inputs, whenever N is not a multiple of 4. Per sample, the forward
    keeps the bits that every prediction was made with.
    """
    for li, w in enumerate(weights):
        if li:
            np.matmul(a_hat, out[li - 1], out=agg[li])
        np.matmul(agg[li], w, out=out[li])
        if li < len(weights) - 1:
            np.maximum(out[li], 0.0, out=out[li])
    return out[-1]


def _samples(model: GcnModel, graph: ServiceGraph, x: np.ndarray) -> np.ndarray:
    """x, checked to be model input on graph, as a batch (S, N, D): one sample
    (N, D) is a batch of one."""
    if tuple(graph.nodes) != model.nodes:
        raise ValidationError(f"graph nodes {graph.nodes} do not match model nodes {model.nodes}")
    if x.ndim not in (2, 3) or x.shape[-2:] != (graph.size, model.weights[0].shape[0]):
        raise ShapeError(f"features shape {x.shape}, expected "
                         f"{(graph.size, model.weights[0].shape[0])} or a batch of those")
    return x if x.ndim == 3 else x[None]


def _forward_blocks(model: GcnModel, a_hat: np.ndarray, x: np.ndarray,
                    transform=None) -> np.ndarray:
    """Outputs (S, N, 1) of samples x (S, N, D), a block of samples at a time
    through one set of layer buffers, sized for a block of at most BLOCK
    samples. transform, when given, maps each block of raw features to scaled
    ones first."""
    result = np.empty(x.shape[:2] + (1,))
    agg, out = _layer_buffers(model.weights, min(len(x), BLOCK), len(a_hat))
    for lo, hi in blocks(len(x)):
        block = x[lo:hi] if transform is None else transform(x[lo:hi])
        front = [a[:hi - lo] for a in agg]
        np.matmul(a_hat, block, out=front[0])
        result[lo:hi] = _forward(model.weights, a_hat, front, [o[:hi - lo] for o in out])
    return result


def gcn_forward(model: GcnModel, graph: ServiceGraph, x: np.ndarray) -> np.ndarray:
    """Layer-by-layer propagation of scaled features.

    One sample (N, D) gives (N, 1); a batch (S, N, D) gives (S, N, 1). Pure
    network evaluation: scalers do not apply here, they belong to
    predict_resource.
    """
    x = np.asarray(x, dtype=np.float64)
    return _forward_blocks(model, graph.a_hat, _samples(model, graph, x)).reshape(
        x.shape[:-1] + (1,))


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


def build_resource_dataset(workloads: np.ndarray, forecasts: np.ndarray,
                           resources: np.ndarray, nodes: tuple[str, ...] | list[str],
                           k: int) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (features, targets) tensors for every timestep with full context.

    workloads and resources are (T, N) grids, T >= k+1, and forecasts is
    (T-k, N), its row i the forecast for minute index i+k; column j is
    nodes[j] in all three. For a reference minute t the node row holds
    workloads[t-k+2 .. t] followed by the forecast for t+1, and the target is
    the windowed peak of the resource series over [t-k+2 .. t+1]. The result
    holds T-k samples, shapes (S, N, k) and (S, N, 1).
    """
    nodes = tuple(nodes)
    if k < 2:
        raise ValidationError(f"window must be >= 2, got {k}")
    workloads, forecasts, resources = (np.asarray(a, dtype=np.float64)
                                       for a in (workloads, forecasts, resources))
    t_total = len(workloads)
    if (workloads.shape != (t_total, len(nodes)) or resources.shape != workloads.shape
            or forecasts.shape != (max(t_total - k, 0), len(nodes))):
        raise ShapeError(f"workloads {workloads.shape}, forecasts {forecasts.shape} and "
                         f"resources {resources.shape} must be (T, {len(nodes)}), "
                         f"(T-{k}, {len(nodes)}) and (T, {len(nodes)})")
    if t_total < k + 1:
        raise EmptyDatasetError(f"series length {t_total} yields no samples for k={k}")
    x = resource_features(workloads, forecasts, nodes, k)
    y = sliding_window_view(resources[1:], k, axis=0).max(axis=-1)
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


class _Batch(NamedTuple):
    """Every array of a training batch, each (samples, N, width), in the
    weights' dtype.

    agg and out are _forward's per-layer arrays, and delta[l] takes the loss
    gradient of layer l's output. A fit allocates one _Batch for a full batch;
    a shorter batch, the remainder of an epoch, takes the front of each array
    (tensor.fit_adam builds those views once per batch size). Allocated afresh
    every batch, these arrays made glibc hand their pages back and fault them
    in again: about 55k minor faults per bundled-size fit, against under 1.1k
    with the one allocation.
    """

    agg: list[np.ndarray]
    out: list[np.ndarray]
    delta: list[np.ndarray]
    targets: np.ndarray

    @classmethod
    def allocate(cls, weights: list[np.ndarray], samples: int, nodes: int) -> "_Batch":
        agg, out = _layer_buffers(weights, samples, nodes)
        return cls(agg, out, [np.empty_like(o) for o in out],
                   np.empty((samples, nodes, 1), weights[0].dtype))

    def front(self, samples: int) -> "_Batch":
        """Contiguous views of the first samples of every array."""
        return _Batch(*([a[:samples] for a in arrays] for arrays in self[:3]),
                      self.targets[:samples])


def _loss_and_grads(weights: list[np.ndarray], a_hat: np.ndarray, batch: _Batch,
                    grads: list[np.ndarray]) -> float:
    """Batch MSE over all node outputs; writes each weight's gradient into grads.

    batch.agg[0] holds the batch's input aggregation a_hat @ X and
    batch.targets its scaled targets, every array in the dtype of weights and
    a_hat, in which every step computes. Each weight gradient is one
    (D, S*N) @ (S*N, O) product over every node row of the batch, and so is
    each back-projection through a weight, (S*N, O) @ (O, D).
    """
    out = _forward(weights, a_hat, batch.agg, batch.out)
    err = np.subtract(out, batch.targets, out=batch.delta[-1])
    loss = float(np.mean(err ** 2))
    err *= 2.0
    err /= err.size
    node_rows = err.shape[0] * err.shape[1]
    for li in range(len(weights) - 1, -1, -1):
        delta, agg = batch.delta[li], batch.agg[li]
        if li < len(weights) - 1:  # relu: positive exactly where the pre-activation was
            delta *= batch.out[li] > 0
        np.matmul(agg.reshape(node_rows, -1).T, delta.reshape(node_rows, -1), out=grads[li])
        if li:  # the input features need no gradient
            # agg is spent, so it takes delta @ w.T, one product over every
            # node row. With one output column each entry is a single
            # product, which has the bits of the per-sample products.
            np.dot(delta.reshape(node_rows, -1), weights[li].T,
                   out=agg.reshape(node_rows, -1))
            # a_hat is symmetric, so the transpose in the chain rule is itself.
            np.matmul(a_hat, agg, out=batch.delta[li - 1])
    return loss


def train_gcn(train: tuple[np.ndarray, np.ndarray], graph: ServiceGraph,
              config: GcnConfig, dtype=DTYPE) -> tuple[GcnModel, list[float]]:
    """Fit the predictor with tensor.fit_adam; returns the model and the
    training MSE of every epoch, in scaled units.

    Min-max scalers to [0, 1] are fitted on the training tensors: one shared
    scaler for features, one per node for targets. The fit computes in dtype:
    the aggregated features (scaled and aggregated in float64, then cast),
    the scaled targets, a_hat, the weights, their gradients and the Adam
    state. The model holds the fitted weights cast to float64, which is
    exact. The history is deterministic for a fixed config seed. Score
    held-out data with evaluate_gcn.
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
    # The input layer's aggregation a_hat @ X depends on the data alone, so
    # it is computed once instead of once per batch and epoch, a block of
    # samples at a time.
    agg_train = np.empty(x_train.shape, dtype)
    for lo, hi in blocks(len(x_train)):
        agg_train[lo:hi] = graph.a_hat @ feature_scaler.transform(x_train[lo:hi])
    ys = scale_targets(target_scalers, y_train).astype(dtype)
    a_hat = graph.a_hat.astype(dtype)

    def batch_loss(weights, batch, idx, grads):
        np.take(agg_train, idx, axis=0, out=batch.agg[0])
        np.take(ys, idx, axis=0, out=batch.targets)
        return _loss_and_grads(weights, a_hat, batch, grads)

    rng = Rng(config.seed)
    widths = config.widths
    init = [glorot_init(widths[i], widths[i + 1], rng).astype(dtype)
            for i in range(len(widths) - 1)]
    workspace = _Batch.allocate(init, min(len(agg_train), config.batch_size), graph.size)
    weights, history = fit_adam(init, len(agg_train), config, rng, workspace.front,
                                batch_loss, "gcn")
    model = GcnModel(config, graph.nodes, weights, feature_scaler, target_scalers)
    return model, history


def evaluate_gcn(model: GcnModel, graph: ServiceGraph, dataset: tuple[np.ndarray, np.ndarray]
                 ) -> tuple[float, dict[str, float]]:
    """MSE in scaled units over a raw dataset, the units of the training
    history: over every node, and per service. A non-finite MSE raises
    DivergenceError."""
    x = np.asarray(dataset[0], dtype=np.float64)
    out = _forward_blocks(model, graph.a_hat, _samples(model, graph, x),
                          model.feature_scaler.transform).reshape(x.shape[:-1] + (1,))
    sq = (out - scale_targets(model.target_scalers, dataset[1])) ** 2
    mse = float(np.mean(sq))
    if not np.isfinite(mse):
        raise DivergenceError(f"scaled MSE is {mse}, not finite")
    return mse, {node: float(np.mean(sq[:, ni, :])) for ni, node in enumerate(graph.nodes)}
