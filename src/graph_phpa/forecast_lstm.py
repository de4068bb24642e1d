"""Sliding-window LSTM forecaster: next-minute workload per microservice.

A model maps the last k workload observations of one service to a one-step
forecast through stacked LSTM layers and a tanh dense head. Training is
mini-batch Adam over backpropagation-through-time, fully deterministic for a
given config seed. Inputs and targets are min-max scaled to [-0.8, 0.8] with
statistics fitted on the training targets only, so the tanh head can reach
every target.

Training writes every per-batch array into one workspace allocated per fit,
and inference walks the rows in bounded blocks, so neither allocates per
batch or in proportion to the rows. Both round exactly like the plain
allocating form of the same equations, which the tests keep as the oracle.
"""
from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (DivergenceError, EmptyDatasetError, ShapeError, ValidationError,
                     check_keys, check_value, float_array, read, read_json_file)
from .tensor import (BLOCK, AdamState, MinMaxScaler, Rng, adam_step, blocks, carve,
                     ensure_finite, glorot_init)

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
        if not layers:
            raise ShapeError("the model needs at least one layer")
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
            "config": asdict(self.config),
            "scaler": asdict(self.scaler),
            "layers": [{"w_x": layer.w_x.tolist(), "w_h": layer.w_h.tolist(),
                        "b": layer.b.tolist()} for layer in self.layers],
            "head_weight": self.head_w.tolist(),
            "head_bias": self.head_b,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LstmModel":
        if check_value(d, dict, "lstm model").get("schema") != LSTM_SCHEMA:
            raise ValidationError(f"schema must be {LSTM_SCHEMA!r}, got {d.get('schema')!r}")
        keys = ("schema", "config", "scaler", "layers", "head_weight", "head_bias")
        check_keys(d, "lstm model", required=keys, allowed=keys + ("service",))
        layers, arrays = [], ("w_x", "w_h", "b")
        for i, e in enumerate(check_value(d["layers"], list, "layers")):
            check_keys(e, f"layers[{i}]", required=arrays, allowed=arrays)
            layers.append(LstmLayer(*(float_array(e[k], f"layers[{i}].{k}") for k in arrays)))
        return cls(config=read(LstmConfig, d["config"], "config"), layers=layers,
                   head_w=float_array(d["head_weight"], "head_weight"),
                   head_b=check_value(d["head_bias"], float, "head_bias"),
                   scaler=MinMaxScaler.from_dict(d["scaler"]),
                   service_id=check_value(d.get("service"), str | None, "service"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True) + "\n",
                              encoding="utf-8", newline="\n")

    @classmethod
    def load(cls, path: str | Path) -> "LstmModel":
        return read_json_file(path, cls.from_json_dict)


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


@functools.cache
def _gate_scale(hidden: int) -> np.ndarray:
    """Column factors that let one tanh over all four gate blocks give the
    sigmoid gates as 0.5 * (1 + tanh(x / 2)) and the candidate as tanh(x)."""
    scale = np.repeat([0.5, 0.5, 0.5, 1.0], hidden)
    scale.flags.writeable = False
    return scale


def _input_product(x, w_x, out) -> None:
    """The gates' input term x @ w_x, for one step (n, d_in) or a sequence (k, n, d_in)."""
    if w_x.shape[0] == 1:
        # One input feature: the product has a single term per entry, which a
        # broadcast multiply computes exactly, and faster than matmul.
        np.multiply(x, w_x, out=out)
    else:
        np.matmul(x, w_x, out=out)


def _lstm_step(h_prev, c_prev, w_h, b, a, tmp, c_out, tanh_c, h_out) -> None:
    """One fused-gate step for a batch, written into preallocated arrays.

    a (n, 4H) holds the input term on entry (see _input_product) and the
    activated gates on return; tanh_c (n, H) receives tanh of the new cell
    state, and tmp (n, 4H) is scratch. c_out and h_out may be c_prev and
    h_prev, which makes the step update a running state in place.
    """
    hidden = w_h.shape[0]
    np.matmul(h_prev, w_h, out=tmp)
    a += tmp
    a += b
    a *= _gate_scale(hidden)
    np.tanh(a, out=a)
    sigmoids = a[:, :3 * hidden]
    sigmoids += 1.0
    sigmoids *= 0.5
    gi, gf, go, gg = (a[:, j * hidden:(j + 1) * hidden] for j in range(4))
    np.multiply(gi, gg, out=tmp[:, :hidden])
    np.multiply(gf, c_prev, out=c_out)
    c_out += tmp[:, :hidden]
    np.tanh(c_out, out=tanh_c)
    np.multiply(go, tanh_c, out=h_out)


def _forward_scaled(params: list[np.ndarray], x_seq: np.ndarray) -> np.ndarray:
    """Scaled one-step forecasts (n,) for scaled windows (n, k).

    params is the LstmModel.params list. The recurrence walks the rows in
    blocks and keeps only each layer's running state; the head then reads the
    top layer's last hidden state of every row in one product.
    """
    n, k = x_seq.shape
    layers = [params[i:i + 3] for i in range(0, len(params) - 2, 3)]
    hidden = [w_h.shape[0] for _, w_h, _ in layers]

    def shapes(m):  # per layer: h, c, gates, step scratch, tanh(c)
        return [s for hid in hidden
                for s in ((m, hid), (m, hid), (m, 4 * hid), (m, 4 * hid), (m, hid))]

    pool = np.empty(sum(math.prod(s) for s in shapes(min(n, 2 * BLOCK - 1))))
    top = np.empty((n, hidden[-1]))
    for lo, hi in blocks(n):
        views = carve(pool, shapes(hi - lo))
        states = [views[i:i + 5] for i in range(0, len(views), 5)]
        for h, c, *_ in states:
            h.fill(0.0)
            c.fill(0.0)
        current = x_seq[lo:hi].T[:, :, None]  # (k, m, 1)
        for t in range(k):
            x_t = current[t]
            for (w_x, w_h, b), (h, c, a, tmp, tanh_c) in zip(layers, states):
                _input_product(x_t, w_x, a)
                _lstm_step(h, c, w_h, b, a, tmp, c, tanh_c, h)
                x_t = h
        top[lo:hi] = states[-1][0]
    head_w, head_b = params[-2:]
    return np.tanh(top @ head_w + head_b)[:, 0]


class _Batch(NamedTuple):
    """The arrays of one training batch of n rows; see _Workspace."""

    x: np.ndarray  # scaled windows (n, k)
    y: np.ndarray  # scaled targets (n,)
    x_tm: np.ndarray  # the windows time-major (k, n)
    layers: list[tuple[np.ndarray, ...]]  # per layer: h, c, tanh(c), gates
    forget: np.ndarray  # the forget gate, kept through the backward pass (k, n, H)
    dh_above: np.ndarray  # upstream gradient of the layer's outputs (k, n, H)
    scratch: np.ndarray  # (k, n, H)
    tmp: np.ndarray  # forward step scratch (n, 4H)
    dcdh: np.ndarray  # a backward step's dc, dc, dh, dc (n, 4, H)
    dh_carry: np.ndarray  # backward step carries (n, H)
    dc_carry: np.ndarray


class _Workspace:
    """Every array of a training batch, carved from one flat pool.

    The pool is sized for a full batch. A smaller batch, the remainder of an
    epoch, takes contiguous views of the pool's front, so each array has the
    layout a freshly allocated one would, and the arithmetic is the same.
    Per layer the forward pass keeps the hidden and cell states h, c
    (k+1, n, H) with the zero initial state at index 0, tanh of the cell
    states (k, n, H) and the activated gates (k, n, 4H).
    """

    def __init__(self, config: LstmConfig, rows: int):
        self.config = config
        self.pool = np.empty(sum(math.prod(s) for s in self._shapes(rows)))
        self._batches: dict[int, _Batch] = {}

    def _shapes(self, n: int) -> list[tuple[int, ...]]:
        k, hid = self.config.window, self.config.hidden_units
        seq, step = (k, n, hid), (n, hid)
        per_layer = [(k + 1, n, hid), (k + 1, n, hid), seq, (k, n, 4 * hid)] * self.config.layers
        return ([(n, k), (n,), (k, n)] + per_layer + [seq, seq, seq, (n, 4 * hid), (n, 4, hid)]
                + [step] * 2)

    def batch(self, n: int) -> _Batch:
        if n not in self._batches:
            views = carve(self.pool, self._shapes(n))
            top = 3 + 4 * self.config.layers
            layers = [tuple(views[i:i + 4]) for i in range(3, top, 4)]
            self._batches[n] = _Batch(*views[:3], layers, *views[top:])
        return self._batches[n]


def _loss_and_grads(params: list[np.ndarray], batch: _Batch,
                    grads: list[np.ndarray]) -> float:
    """Batch mean squared error; writes one gradient per entry of params into grads.

    batch has the scaled windows and targets filled in. Sequences are
    time-major.
    """
    x_seq, targets, x_tm, caches = batch.x, batch.y, batch.x_tm, batch.layers
    forget, dh_above, scratch = batch.forget, batch.dh_above, batch.scratch
    tmp, dcdh_buf, dh_carry, dc_carry = batch.tmp, batch.dcdh, batch.dh_carry, batch.dc_carry
    n, k = x_seq.shape
    n_layers = len(caches)
    np.copyto(x_tm, x_seq.T)

    current = x_seq.T[:, :, None]  # (k, n, 1)
    for li, (h, c, tanh_c, gates) in enumerate(caches):
        w_x, w_h, b = params[3 * li:3 * li + 3]
        h[0] = 0.0
        c[0] = 0.0
        _input_product(current, w_x, gates)
        for t in range(k):
            _lstm_step(h[t], c[t], w_h, b, gates[t], tmp, c[t + 1], tanh_c[t], h[t + 1])
        current = h[1:]
    head_w, head_b = params[-2:]
    yhat = np.tanh(current[-1] @ head_w + head_b)[:, 0]
    err = yhat - targets
    loss = float(np.mean(err ** 2))

    dz = (2.0 * err / n * (1.0 - yhat ** 2))[:, None]  # (n, 1)
    np.matmul(current[-1].T, dz, out=grads[-2])
    np.sum(dz, axis=0, out=grads[-1])
    # Gradient flowing into each timestep's hidden output of the layer being
    # processed; starts as the head's contribution to the top layer.
    dh_above[:-1] = 0.0
    np.matmul(dz, head_w.T, out=dh_above[-1])

    for li in range(n_layers - 1, -1, -1):
        w_x, w_h, _ = params[3 * li:3 * li + 3]
        h, c, tanh_c, gates = caches[li]
        hid = w_h.shape[0]
        gi, gf, go, gg = (gates[..., j * hid:(j + 1) * hid] for j in range(4))
        # In place, tanh(c) becomes dc/dh = go * (1 - tanh(c)**2), and the
        # gates become the gate pre-activation gradients per unit of dc
        # (input, forget, candidate) or of dh (output):
        # gg*gi*(1-gi), c_prev*gf*(1-gf), tanh(c)*go*(1-go), gi*(1-gg**2).
        np.copyto(forget, gf)
        np.multiply(tanh_c, go, out=scratch)
        dc_dh = tanh_c
        np.square(tanh_c, out=dc_dh)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= go
        np.subtract(1.0, go, out=go)
        go *= scratch
        np.multiply(c[:-1], gf, out=scratch)
        np.subtract(1.0, gf, out=gf)
        gf *= scratch
        np.multiply(gg, gi, out=scratch)
        np.square(gg, out=gg)
        np.subtract(1.0, gg, out=gg)
        gg *= gi
        np.subtract(1.0, gi, out=gi)
        gi *= scratch
        # Step by step, backwards, the derivatives become the gradients da:
        # each gate block times dc, the output block times dh.
        da = gates
        dcdh = dcdh_buf.reshape(n, 4 * hid)
        dh, dc = dcdh_buf[:, 2], dcdh_buf[:, 3]
        dh_carry.fill(0.0)
        dc_carry.fill(0.0)
        for t in range(k - 1, -1, -1):
            np.add(dh_above[t], dh_carry, out=dh)
            np.multiply(dh, dc_dh[t], out=dc)
            dc += dc_carry
            dcdh_buf[:, :2] = dc[:, None, :]
            da[t] *= dcdh
            np.multiply(dc, forget[t], out=dc_carry)
            np.matmul(da[t], w_h.T, out=dh_carry)
        layer_in = caches[li - 1][0][1:] if li else x_tm
        flat_da = da.reshape(k * n, 4 * hid)
        np.matmul(layer_in.reshape(k * n, w_x.shape[0]).T, flat_da, out=grads[3 * li])
        np.matmul(h[:-1].reshape(k * n, hid).T, flat_da, out=grads[3 * li + 1])
        np.sum(da, axis=(0, 1), out=grads[3 * li + 2])
        if li:  # the bottom layer's input gradient has no reader
            np.matmul(da, w_x.T, out=dh_above)
    return loss


def _forward_windows(model: LstmModel, x) -> np.ndarray:
    """Scaled one-step forecasts for raw k-length windows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.config.window:
        raise ShapeError(f"windows shape {x.shape} does not match model window {model.config.window}")
    return _forward_scaled(model.params, model.scaler.transform(x))


def predict_windows(model: LstmModel, x: np.ndarray) -> np.ndarray:
    """One-step forecasts in original units for each row of raw k-length windows."""
    return model.scaler.inverse_transform(_forward_windows(model, x))


def evaluate_lstm(model: LstmModel, dataset: tuple[np.ndarray, np.ndarray]) -> float:
    """MSE in scaled units over raw (windows, targets), the units of the
    training history; a non-finite MSE raises DivergenceError."""
    yhat, y = _forward_windows(model, dataset[0]), model.scaler.transform(dataset[1])
    if y.shape != yhat.shape:
        raise ShapeError(f"targets shape {y.shape} != forecasts shape {yhat.shape}")
    mse = float(np.mean((yhat - y) ** 2))
    if not np.isfinite(mse):
        raise DivergenceError(f"scaled MSE is {mse}, not finite")
    return mse


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


def train_lstm(train: tuple[np.ndarray, np.ndarray], config: LstmConfig,
               service_id: str | None = None) -> tuple[LstmModel, list[float]]:
    """Fit the forecaster with mini-batch Adam; returns the model and the
    training MSE of every epoch, in scaled units.

    The shuffle order is derived from the config seed, so identical inputs
    give bit-identical histories and weights. Score held-out data with
    evaluate_lstm.
    """
    x_train, y_train = np.asarray(train[0], dtype=np.float64), np.asarray(train[1], dtype=np.float64)
    if x_train.ndim != 2 or x_train.shape[1] != config.window:
        raise ShapeError(f"train windows shape {x_train.shape} does not match k={config.window}")
    if len(x_train) == 0:
        raise EmptyDatasetError("training set is empty")
    scaler = MinMaxScaler.fit(y_train)
    xs = scaler.transform(x_train)
    ys = scaler.transform(y_train)

    rng = Rng(config.seed)
    # Parameters, gradients and Adam moments each live in one flat array, so a
    # batch takes one Adam step over all of them.
    init = _init_params(config, rng)
    flat = np.concatenate([p.ravel() for p in init])
    params = carve(flat, [p.shape for p in init])
    flat_grad = np.empty_like(flat)
    grads = carve(flat_grad, [p.shape for p in init])
    state = AdamState.fresh(flat, config.learning_rate)
    shuffle_rng = rng.child(1)

    n = len(xs)
    workspace = _Workspace(config, min(n, config.batch_size))
    history: list[float] = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = workspace.batch(len(idx))
            np.take(xs, idx, axis=0, out=batch.x)
            np.take(ys, idx, out=batch.y)
            loss = _loss_and_grads(params, batch, grads)
            if not np.isfinite(loss):
                raise DivergenceError(f"training loss diverged at epoch {epoch}", epoch=epoch)
            sq_sum += loss * len(idx)
            adam_step(flat, flat_grad, state)
        history.append(sq_sum / n)
        log.debug("lstm epoch %d: train=%.6g", epoch, history[-1])
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
