"""Sliding-window LSTM forecaster: next-minute workload per microservice.

A model maps the last k workload observations of one service to a one-step
forecast through stacked LSTM layers and a tanh dense head. Training is
mini-batch Adam over backpropagation-through-time, fully deterministic for a
given config seed. Inputs and targets are min-max scaled to [-0.8, 0.8] with
statistics fitted on the training targets only, so the tanh head can reach
every target.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DivergenceError, EmptyDatasetError, ShapeError, ValidationError
from .tensor import AdamState, MinMaxScaler, Rng, adam_step, ensure_finite, glorot_init, sigmoid

log = logging.getLogger(__name__)

# Column order of the fused gate blocks in every layer's w_x, w_h and b.
GATES = ("input", "forget", "output", "candidate")

LSTM_SCHEMA = "graph-phpa/lstm-model/v2"


@dataclass(frozen=True)
class LstmConfig:
    window: int = 10
    layers: int = 1
    hidden_units: int = 50
    learning_rate: float = 0.01
    epochs: int = 50
    batch_size: int = 64
    seed: int = 42

    def __post_init__(self):
        for name in ("window", "layers", "hidden_units", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be positive, got {self.learning_rate}")

    def to_dict(self) -> dict:
        return {"window": self.window, "layers": self.layers,
                "hidden_units": self.hidden_units, "learning_rate": self.learning_rate,
                "epochs": self.epochs, "batch_size": self.batch_size, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "LstmConfig":
        return cls(**d)


class LstmLayer:
    """One LSTM layer with fused gates, the layout of PyTorch's nn.LSTM.

    w_x (d_in, 4H), w_h (H, 4H) and b (4H,) hold the four gates side by side
    in GATES order, so one product per step feeds every gate.
    """

    def __init__(self, w_x, w_h, b):
        self.w_x = np.asarray(w_x, dtype=np.float64)
        self.w_h = np.asarray(w_h, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        hidden = self.w_h.shape[0] if self.w_h.ndim == 2 else 0
        if hidden < 1 or self.w_x.ndim != 2 or self.w_x.shape[1] != 4 * hidden \
                or self.w_h.shape != (hidden, 4 * hidden) or self.b.shape != (4 * hidden,):
            raise ShapeError(f"inconsistent fused gate shapes in layer: w_x {self.w_x.shape}, "
                             f"w_h {self.w_h.shape}, b {self.b.shape}")
        self.hidden = hidden


class LstmModel:
    """Trained workload forecaster for one service."""

    def __init__(self, config: LstmConfig, layers: list[LstmLayer], head_w: np.ndarray,
                 head_b: float, scaler: MinMaxScaler, service_id: str | None = None):
        self.config = config
        self.layers = layers
        self.head_w = np.asarray(head_w, dtype=np.float64)
        self.head_b = float(head_b)
        self.scaler = scaler
        self.service_id = service_id
        if self.head_w.shape != (layers[-1].hidden, 1):
            raise ShapeError(f"head weight shape {self.head_w.shape} does not match "
                             f"hidden size {layers[-1].hidden}")

    @property
    def params(self) -> list[np.ndarray]:
        """[w_x, w_h, b] per layer, then head_w and head_b as a (1,) array."""
        out = [p for layer in self.layers for p in (layer.w_x, layer.w_h, layer.b)]
        return out + [self.head_w, np.array([self.head_b])]

    @classmethod
    def from_params(cls, config: LstmConfig, params: list[np.ndarray], scaler: MinMaxScaler,
                    service_id: str | None = None) -> "LstmModel":
        layers = [LstmLayer(*params[i:i + 3]) for i in range(0, len(params) - 2, 3)]
        return cls(config, layers, params[-2], float(params[-1][0]), scaler, service_id)

    def to_json_dict(self) -> dict:
        return {
            "schema": LSTM_SCHEMA,
            "service": self.service_id,
            "config": self.config.to_dict(),
            "scaler": self.scaler.to_dict(),
            "layers": [{"w_x": layer.w_x.tolist(), "w_h": layer.w_h.tolist(),
                        "b": layer.b.tolist()} for layer in self.layers],
            "head_weight": self.head_w.tolist(),
            "head_bias": self.head_b,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LstmModel":
        if d.get("schema") != LSTM_SCHEMA:
            raise ValidationError(f"unexpected model schema {d.get('schema')!r}")
        layers = [LstmLayer(e["w_x"], e["w_h"], e["b"]) for e in d["layers"]]
        return cls(config=LstmConfig.from_dict(d["config"]), layers=layers,
                   head_w=np.asarray(d["head_weight"]), head_b=d["head_bias"],
                   scaler=MinMaxScaler.from_dict(d["scaler"]), service_id=d.get("service"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True) + "\n",
                              encoding="utf-8", newline="\n")

    @classmethod
    def load(cls, path: str | Path) -> "LstmModel":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def make_windows(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All (window, next value) pairs: X[j] = values[j:j+k], y[j] = values[j+k]."""
    values = np.asarray(values, dtype=np.float64)
    if k < 1:
        raise ValidationError(f"window size must be >= 1, got {k}")
    if len(values) < k + 1:
        raise EmptyDatasetError(f"series length {len(values)} yields no windows for k={k} "
                                f"(need >= {k + 1})")
    x = np.lib.stride_tricks.sliding_window_view(values, k)[:-1].copy()
    return x, values[k:].copy()


def _init_params(config: LstmConfig, rng: Rng) -> list[np.ndarray]:
    """Glorot draws per gate in GATES order, fused column-wise; zero biases."""
    params = []
    d_in, hidden = 1, config.hidden_units
    for _ in range(config.layers):
        params.append(np.hstack([glorot_init(d_in, hidden, rng) for _ in GATES]))
        params.append(np.hstack([glorot_init(hidden, hidden, rng) for _ in GATES]))
        params.append(np.zeros(4 * hidden))
        d_in = hidden
    return params + [glorot_init(hidden, 1, rng), np.zeros(1)]


def _forward_scaled(params: list[np.ndarray], x_seq: np.ndarray, keep_cache: bool = False):
    """Run the stacked recurrence on scaled windows (batch, k); returns (yhat, cache).

    params is the LstmModel.params list. Sequences are time-major. With
    keep_cache the cache holds, per layer, the input sequence (k, batch, d_in),
    the hidden and cell states h, c (k+1, batch, H) with the zero initial state
    at index 0, and the activated gates (k, batch, 4H).
    """
    batch, k = x_seq.shape
    current = x_seq.T[:, :, None]  # (k, batch, 1)
    cache = []
    for li in range(0, len(params) - 2, 3):
        w_x, w_h, b = params[li:li + 3]
        hidden = w_h.shape[0]
        h = np.zeros((k + 1, batch, hidden))
        c = np.zeros((batch, hidden))
        cells, gates = [c], []
        for t in range(k):
            a = current[t] @ w_x
            a += h[t] @ w_h
            a += b
            a[:, :3 * hidden] = sigmoid(a[:, :3 * hidden])
            np.tanh(a[:, 3 * hidden:], out=a[:, 3 * hidden:])
            gi, gf, go, gg = a.reshape(batch, 4, hidden).swapaxes(0, 1)
            c = gf * c + gi * gg
            h[t + 1] = go * np.tanh(c)
            if keep_cache:
                cells.append(c)
                gates.append(a)
        if keep_cache:
            cache.append((current, h, np.stack(cells), np.stack(gates)))
        current = h[1:]
    head_w, head_b = params[-2:]
    yhat = np.tanh(current[-1] @ head_w + head_b)[:, 0]
    return yhat, cache


def _loss_and_grads(params: list[np.ndarray], x_seq: np.ndarray, targets: np.ndarray):
    """Mean squared error over the batch plus one gradient per entry of params."""
    batch, k = x_seq.shape
    yhat, cache = _forward_scaled(params, x_seq, keep_cache=True)
    err = yhat - targets
    loss = float(np.mean(err ** 2))

    dz = (2.0 * err / batch * (1.0 - yhat ** 2))[:, None]  # (batch, 1)
    head_w = params[-2]
    grads = [cache[-1][1][-1].T @ dz, dz.sum(axis=0)]
    # Gradient flowing into each timestep's hidden output of the layer being
    # processed; starts as the head's contribution to the top layer.
    dh_above = np.zeros((k, batch, head_w.shape[0]))
    dh_above[-1] = dz @ head_w.T

    for li in range(len(cache) - 1, -1, -1):
        w_x, w_h, _ = params[3 * li:3 * li + 3]
        x, h, c, gates = cache[li]
        gi, gf, go, gg = np.moveaxis(gates.reshape(k, batch, 4, -1), 2, 0)
        tanh_c = np.tanh(c[1:])
        dc_dh = go * (1.0 - tanh_c ** 2)
        # Gate pre-activation gradients per unit of dc (input, forget,
        # candidate) or of dh (output).
        local = np.concatenate([gg * gi * (1.0 - gi), c[:-1] * gf * (1.0 - gf),
                                tanh_c * go * (1.0 - go), gi * (1.0 - gg ** 2)], axis=2)
        da = np.empty_like(gates)
        dh_carry = np.zeros((batch, w_h.shape[0]))
        dc_carry = np.zeros((batch, w_h.shape[0]))
        for t in range(k - 1, -1, -1):
            dh = dh_above[t] + dh_carry
            dc = dc_carry + dh * dc_dh[t]
            np.multiply(np.concatenate([dc, dc, dh, dc], axis=1), local[t], out=da[t])
            dc_carry = dc * gf[t]
            dh_carry = da[t] @ w_h.T
        # Layers are visited top-down; prepending keeps grads in params order.
        grads[:0] = [np.tensordot(x, da, axes=([0, 1], [0, 1])),
                     np.tensordot(h[:-1], da, axes=([0, 1], [0, 1])),
                     da.sum(axis=(0, 1))]
        dh_above = da @ w_x.T  # becomes the upstream gradient for the layer below
    return loss, grads


def predict_windows(model: LstmModel, x: np.ndarray) -> np.ndarray:
    """One-step forecasts in original units for each row of raw k-length windows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.config.window:
        raise ShapeError(f"windows shape {x.shape} does not match model window {model.config.window}")
    yhat, _ = _forward_scaled(model.params, model.scaler.transform(x))
    return model.scaler.inverse_transform(yhat)


def forecast_rates(model: LstmModel, x: np.ndarray) -> np.ndarray:
    """Request-rate forecasts for raw k-length windows, clamped at zero.

    A rate cannot be negative. Training (forecast_series) and replay
    (autoscaler.predict_demand) both forecast through here, so the graph
    predictor sees the same forecasts in both.
    """
    return np.maximum(predict_windows(model, x), 0.0)


def forecast_series(model: LstmModel, values: np.ndarray) -> np.ndarray:
    """Rate forecast for every index j >= k from the window ending at j-1.

    Returns a full-length array with NaN in the first k slots.
    """
    k = model.config.window
    x, _ = make_windows(values, k)
    out = np.full(len(values), np.nan)
    out[k:] = forecast_rates(model, x)
    return out


def train_lstm(train: tuple[np.ndarray, np.ndarray],
               valid: tuple[np.ndarray, np.ndarray] | None,
               config: LstmConfig,
               service_id: str | None = None) -> tuple[LstmModel, list[tuple[float, float | None]]]:
    """Fit the forecaster with mini-batch Adam; returns the model and per-epoch losses.

    Loss history entries are (train MSE, valid MSE or None), measured in scaled
    units. The shuffle order is derived from the config seed, so identical
    inputs give bit-identical histories and weights.
    """
    x_train, y_train = np.asarray(train[0], dtype=np.float64), np.asarray(train[1], dtype=np.float64)
    if x_train.ndim != 2 or x_train.shape[1] != config.window:
        raise ShapeError(f"train windows shape {x_train.shape} does not match k={config.window}")
    if len(x_train) == 0:
        raise EmptyDatasetError("training set is empty")
    scaler = MinMaxScaler.fit(y_train)
    xs = scaler.transform(x_train)
    ys = scaler.transform(y_train)
    has_valid = valid is not None and len(valid[0]) > 0
    if has_valid:
        xv = scaler.transform(np.asarray(valid[0], dtype=np.float64))
        yv = scaler.transform(np.asarray(valid[1], dtype=np.float64))

    rng = Rng(config.seed)
    params = _init_params(config, rng)
    states = [AdamState.fresh(p, config.learning_rate) for p in params]
    shuffle_rng = rng.child(1)

    n = len(xs)
    history: list[tuple[float, float | None]] = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, grads = _loss_and_grads(params, xs[idx], ys[idx])
            if not np.isfinite(loss):
                raise DivergenceError(f"training loss diverged at epoch {epoch}", epoch=epoch)
            sq_sum += loss * len(idx)
            for li in range(len(params)):
                params[li], states[li] = adam_step(params[li], grads[li], states[li])
        train_mse = sq_sum / n
        valid_mse = None
        if has_valid:
            yhat, _ = _forward_scaled(params, xv)
            valid_mse = float(np.mean((yhat - yv) ** 2))
            if not np.isfinite(valid_mse):
                raise DivergenceError(f"validation loss diverged at epoch {epoch}", epoch=epoch)
        history.append((train_mse, valid_mse))
        log.debug("lstm epoch %d: train=%.6g valid=%s", epoch, train_mse, valid_mse)
    return LstmModel.from_params(config, params, scaler, service_id), history


def evaluate(predictions, truth) -> tuple[float, float]:
    """Mean squared error and mean absolute error over aligned arrays."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predictions.shape != truth.shape:
        raise ShapeError(f"prediction shape {predictions.shape} != truth shape {truth.shape}")
    if predictions.size == 0:
        raise ValidationError("cannot evaluate empty arrays")
    ensure_finite(predictions, "predictions")
    ensure_finite(truth, "truth")
    err = predictions - truth
    return float(np.mean(err ** 2)), float(np.mean(np.abs(err)))
