"""Sliding-window LSTM forecaster: next-minute workload per microservice.

A model maps the last k workload observations of a service to a one-step
forecast through one LSTM layer and a tanh dense head. Training is
mini-batch Adam over backpropagation-through-time, fully deterministic for a
given config seed. Inputs and targets are min-max scaled to [-0.8, 0.8] with
statistics fitted on the training targets only, so the tanh head can reach
every target. One model forecasts every service: train_lstm fits its weights
on one service's series and a scaler for each service on that service's own
training targets, and forecast_services runs the LSTM once for services whose
scaled windows are equal.

The LSTM computes in float32 (tensor.DTYPE): the weights, the scaled
windows and targets of a fit, its gradients and Adam state. The kernels
compute in the dtype of the weights they are given, so the tests can drive
them in float64 too. The scalers and every array outside the recurrence stay float64:
inference casts the scaled windows to the weights' dtype a block at a time
and returns float64 forecasts.

Training writes every per-batch array into one workspace allocated per fit,
and inference walks the rows in bounded blocks, so neither allocates per
batch or in proportion to the rows. Both round exactly like the plain
allocating form of the same equations, which the tests keep as the oracle.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (DivergenceError, EmptyDatasetError, ShapeError, ValidationError,
                     check_keys, check_value, float_array, read, read_json_file, write_json)
from .tensor import (BLOCK, DTYPE, MinMaxScaler, Rng, blocks, carve, check_learning_rate,
                     check_seed, ensure_finite, fit_adam, glorot_init)

# Column order of the fused gate blocks in w_x, w_h and b.
GATES = ("input", "forget", "output", "candidate")

# v5 holds one layer's weights at the top level; v4 listed them per layer,
# and v3's float64 weights would forecast differently once cast, so older
# files must be retrained.
LSTM_SCHEMA = "graph-phpa/lstm-model/v5"


@dataclass(frozen=True)
class LstmConfig:
    window: int = 10
    hidden_units: int = 50
    learning_rate: float = 0.01
    epochs: int = 50
    batch_size: int = 64
    seed: int = 42

    def __post_init__(self):
        for name in ("window", "hidden_units", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_learning_rate(self.learning_rate)
        check_seed(self.seed)


class LstmModel:
    """The trained workload forecaster of every service: one LSTM layer and a
    tanh head, and each service's scaler, as lstm.json holds them.

    The layer has fused gates, the layout of PyTorch's nn.LSTM: w_x (1, 4H),
    w_h (H, 4H) and b (4H,) hold the four gates side by side in GATES order,
    so one product per step feeds every gate. The weights and the head
    head_w (H, 1) are cast to dtype once, here, and head_b is a float that
    dtype holds exactly.

    Each service's windows and forecasts pass through scalers[service];
    the weights were fitted on the series of fitted_on, which has a scaler.
    """

    def __init__(self, config: LstmConfig, w_x, w_h, b, head_w, head_b: float,
                 scalers: Mapping[str, MinMaxScaler], fitted_on: str, dtype=DTYPE):
        self.config = config
        self.w_x, self.w_h, self.b, self.head_w = (np.asarray(p, dtype=dtype)
                                                   for p in (w_x, w_h, b, head_w))
        self.dtype = self.w_x.dtype
        self.head_b = float(self.dtype.type(head_b))
        self.scalers = dict(scalers)
        self.fitted_on = fitted_on
        if fitted_on not in self.scalers:
            raise ValidationError(f"fitted_on {fitted_on!r} has no entry in scalers")
        hidden = config.hidden_units
        for name, p, shape in (("w_x", self.w_x, (1, 4 * hidden)),
                               ("w_h", self.w_h, (hidden, 4 * hidden)),
                               ("b", self.b, (4 * hidden,)),
                               ("head_weight", self.head_w, (hidden, 1))):
            if p.shape != shape:
                raise ShapeError(f"{name} shape {p.shape} is not {shape}: one input and "
                                 f"the config's {hidden} hidden units")

    @property
    def params(self) -> list[np.ndarray]:
        """w_x, w_h, b, head_w, and head_b as a (1,) array."""
        return [self.w_x, self.w_h, self.b, self.head_w,
                np.array([self.head_b], dtype=self.dtype)]

    @classmethod
    def from_params(cls, config: LstmConfig, params: list[np.ndarray],
                    scalers: Mapping[str, MinMaxScaler], fitted_on: str) -> "LstmModel":
        """The model of a params list, in the params' dtype."""
        *weights, head_b = params
        return cls(config, *weights, float(head_b[0]), scalers, fitted_on,
                   dtype=params[0].dtype)

    def to_json_dict(self) -> dict:
        return {
            "schema": LSTM_SCHEMA,
            "fitted_on": self.fitted_on,
            "config": asdict(self.config),
            "scalers": {service: asdict(scaler) for service, scaler in self.scalers.items()},
            "w_x": self.w_x.tolist(),
            "w_h": self.w_h.tolist(),
            "b": self.b.tolist(),
            "head_weight": self.head_w.tolist(),
            "head_bias": self.head_b,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LstmModel":
        """The model of the document, its weights cast to DTYPE."""
        if check_value(d, dict, "lstm model").get("schema") != LSTM_SCHEMA:
            raise ValidationError(f"schema must be {LSTM_SCHEMA!r}, got {d.get('schema')!r}")
        arrays = ("w_x", "w_h", "b", "head_weight")
        keys = ("schema", "fitted_on", "config", "scalers", *arrays, "head_bias")
        check_keys(d, "lstm model", required=keys, allowed=keys)
        weights = [float_array(d[k], k, DTYPE) for k in arrays]
        scalers = {service: MinMaxScaler.from_dict(e, f"scalers.{service}")
                   for service, e in check_value(d["scalers"], dict, "scalers").items()}
        fitted_on = check_value(d["fitted_on"], str, "fitted_on")
        config = read(LstmConfig, d["config"], "config")
        head_b = check_value(d["head_bias"], float, "head_bias")
        if abs(head_b) > float(np.finfo(DTYPE).max):
            raise ValidationError(f"head_bias must be a finite float32 number, got {head_b!r}")
        return cls(config, *weights, head_b, scalers, fitted_on)

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json_dict())

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
    """LstmModel.params of a fresh model: Glorot draws per gate in GATES
    order, fused column-wise, zero biases, then the head."""
    hidden = config.hidden_units
    return [np.hstack([glorot_init(1, hidden, rng) for _ in GATES]),
            np.hstack([glorot_init(hidden, hidden, rng) for _ in GATES]),
            np.zeros(4 * hidden), glorot_init(hidden, 1, rng), np.zeros(1)]


@functools.cache
def _gate_affine(hidden: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Column factors and terms that let one tanh over all four gate blocks
    give the sigmoid gates as 0.5 * (1 + tanh(x / 2)) and the candidate as
    tanh(x): scale before the tanh, then add the terms and scale again. On the
    candidate's columns the term is -0.0 and the factor 1.0, which leave every
    value as it is, signed zeros included, so whole rows take each operation
    instead of a strided view of the sigmoid blocks."""
    scale = np.repeat(np.array([0.5, 0.5, 0.5, 1.0], dtype=dtype), hidden)
    shift = np.repeat(np.array([1.0, 1.0, 1.0, -0.0], dtype=dtype), hidden)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _lstm_step(h_prev, c_prev, w_h, b, a, tmp, c_out, tanh_c, h_out) -> None:
    """One fused-gate step for a batch, written into preallocated arrays.

    a (n, 4H) holds the input term x * w_x on entry and the activated gates
    on return; tanh_c (n, H) receives tanh of the new cell state, and tmp
    (n, 4H) is scratch. c_out and h_out may be c_prev and h_prev, which makes
    the step update a running state in place.
    """
    hidden = w_h.shape[0]
    scale, shift = _gate_affine(hidden, a.dtype)
    np.matmul(h_prev, w_h, out=tmp)
    a += tmp
    a += b
    a *= scale
    np.tanh(a, out=a)
    a += shift
    a *= scale
    gi, gf, go, gg = (a[:, j * hidden:(j + 1) * hidden] for j in range(4))
    np.multiply(gi, gg, out=tmp[:, :hidden])
    np.multiply(gf, c_prev, out=c_out)
    c_out += tmp[:, :hidden]
    np.tanh(c_out, out=tanh_c)
    np.multiply(go, tanh_c, out=h_out)


def _forward_scaled(params: list[np.ndarray], x_seq: np.ndarray) -> np.ndarray:
    """Scaled one-step forecasts (n,) for scaled windows (n, k).

    params is the LstmModel.params list, and the forecasts have its dtype.
    The recurrence walks the rows in blocks and keeps only the running state,
    carved from one pool sized for a block of at most BLOCK rows, next to the
    block's windows cast to the weights' dtype; the head then reads the last
    hidden state of every row in one product.
    """
    n, k = x_seq.shape
    w_x, w_h, b, head_w, head_b = params
    hidden = w_h.shape[0]

    def shapes(m):  # the windows time-major, h, c, gates, step scratch, tanh(c)
        return [(k, m), (m, hidden), (m, hidden), (m, 4 * hidden), (m, 4 * hidden),
                (m, hidden)]

    dtype = w_x.dtype
    # Scaled inputs beyond the dtype's range saturate at its largest finite
    # values instead of overflowing to inf: the gates saturate as they would
    # in float64, and a zero weight still zeroes the input, where inf * 0
    # would give NaN.
    big = float(np.finfo(dtype).max)
    pool = np.empty(sum(math.prod(s) for s in shapes(min(n, BLOCK))), dtype=dtype)
    last = np.empty((n, hidden), dtype=dtype)
    for lo, hi in blocks(n):
        windows, h, c, a, tmp, tanh_c = carve(pool, shapes(hi - lo))
        np.clip(x_seq[lo:hi].T, -big, big, out=windows)
        h.fill(0.0)
        c.fill(0.0)
        for t in range(k):
            # With one input feature each entry of the input term is a single
            # product, exact in a K=1 product as in a broadcast multiply.
            np.dot(windows[t, :, None], w_x, out=a)
            _lstm_step(h, c, w_h, b, a, tmp, c, tanh_c, h)
        last[lo:hi] = h
    return np.tanh(last @ head_w + head_b)[:, 0]


class _Batch(NamedTuple):
    """The arrays of one training batch of n rows; see _workspace."""

    x: np.ndarray  # scaled windows (n, k)
    y: np.ndarray  # scaled targets (n,)
    x_tm: np.ndarray  # the windows time-major (k, n)
    h: np.ndarray  # hidden states (k+1, n, H)
    c: np.ndarray  # cell states (k+1, n, H)
    tanh_c: np.ndarray  # (k, n, H)
    gates: np.ndarray  # activated gates (k, n, 4H)
    dh_head: np.ndarray  # the head's gradient of the last hidden output (n, H)
    scratch: np.ndarray  # (k, n, H)
    tmp: np.ndarray  # forward step scratch (n, 4H)
    dcdh: np.ndarray  # a backward step's dc, dc, dh, dc (n, 4, H)
    dh_carry: np.ndarray  # backward step carries (n, H)
    dc_carry: np.ndarray


def _workspace(config: LstmConfig, rows: int, dtype):
    """A training workspace: the make_batch of fit_adam, which gives the
    _Batch of n <= rows rows, every array carved from one flat pool.

    The pool is sized for rows and has the weights' dtype. A smaller batch,
    the remainder of an epoch, takes contiguous views of the pool's front, so
    each array has the layout a freshly allocated one would, and the
    arithmetic is the same.
    The forward pass keeps the hidden and cell states h, c (k+1, n, H) with
    the zero initial state at index 0, tanh of the cell states (k, n, H) and
    the activated gates (k, n, 4H). The backward pass writes the forget gate
    over c's first k states once it has read them.
    """
    k, hid = config.window, config.hidden_units

    def shapes(n):
        seq, state, step = (k, n, hid), (k + 1, n, hid), (n, hid)
        return [(n, k), (n,), (k, n), state, state, seq, (k, n, 4 * hid), step, seq,
                (n, 4 * hid), (n, 4, hid), step, step]

    pool = np.empty(sum(math.prod(s) for s in shapes(rows)), dtype=dtype)
    return lambda n: _Batch(*carve(pool, shapes(n)))


def _loss_and_grads(params: list[np.ndarray], batch: _Batch,
                    grads: list[np.ndarray]) -> float:
    """Batch mean squared error; writes one gradient per entry of params into grads.

    batch has the scaled windows and targets filled in, in the dtype of
    params, in which every step computes. Sequences are time-major.
    """
    w_x, w_h, b, head_w, head_b = params
    x_seq, targets, x_tm = batch.x, batch.y, batch.x_tm
    h, c, tanh_c, gates = batch.h, batch.c, batch.tanh_c, batch.gates
    dh_head, scratch = batch.dh_head, batch.scratch
    tmp, dcdh_buf, dh_carry, dc_carry = batch.tmp, batch.dcdh, batch.dh_carry, batch.dc_carry
    n, k = x_seq.shape
    hid = w_h.shape[0]
    np.copyto(x_tm, x_seq.T)

    h[0] = 0.0
    c[0] = 0.0
    np.dot(x_tm.reshape(k * n, 1), w_x, out=gates.reshape(k * n, 4 * hid))  # input terms
    for t in range(k):
        _lstm_step(h[t], c[t], w_h, b, gates[t], tmp, c[t + 1], tanh_c[t], h[t + 1])
    yhat = np.tanh(h[-1] @ head_w + head_b)[:, 0]
    err = yhat - targets
    loss = float(np.mean(err ** 2))

    dz = (2.0 * err / n * (1.0 - yhat ** 2))[:, None]  # (n, 1)
    np.matmul(h[-1].T, dz, out=grads[3])
    np.sum(dz, axis=0, out=grads[4])
    np.matmul(dz, head_w.T, out=dh_head)

    gi, gf, go, gg = (gates[..., j * hid:(j + 1) * hid] for j in range(4))
    # In place, tanh(c) becomes dc/dh = go * (1 - tanh(c)**2), and the
    # gates become the gate pre-activation gradients per unit of dc
    # (input, forget, candidate) or of dh (output):
    # gg*gi*(1-gi), c_prev*gf*(1-gf), tanh(c)*go*(1-go), gi*(1-gg**2).
    np.multiply(tanh_c, go, out=scratch)
    dc_dh = tanh_c
    np.square(tanh_c, out=dc_dh)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= go
    np.subtract(1.0, go, out=go)
    go *= scratch
    np.multiply(c[:-1], gf, out=scratch)
    # That was the last read of the previous cell states: the forget
    # gate, which the backward steps still need, takes their place.
    forget = c[:-1]
    np.copyto(forget, gf)
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
    dc_carry.fill(0.0)
    for t in range(k - 1, -1, -1):
        # The head reads only the last hidden output, and the earlier steps
        # only the carry. The oracle adds each to a zero row, which would turn
        # a -0.0 into +0.0, but both are matrix products, whose sums start
        # from +0.0, so neither holds a -0.0.
        np.copyto(dh, dh_head if t == k - 1 else dh_carry)
        np.multiply(dh, dc_dh[t], out=dc)
        dc += dc_carry
        dcdh_buf[:, :2] = dc[:, None, :]
        da[t] *= dcdh
        if t:  # step 0's carries would flow into the zero initial state
            np.multiply(dc, forget[t], out=dc_carry)
            np.matmul(da[t], w_h.T, out=dh_carry)
    flat_da = da.reshape(k * n, 4 * hid)
    np.matmul(x_tm.reshape(k * n, 1).T, flat_da, out=grads[0])
    np.matmul(h[:-1].reshape(k * n, hid).T, flat_da, out=grads[1])
    np.sum(da, axis=(0, 1), out=grads[2])
    return loss


def forecast_services(model: LstmModel, services: Sequence[str], windows: Iterable,
                      units: str = "rates") -> list[np.ndarray]:
    """Each service's one-step forecasts for its own raw k-length windows.

    windows may be a generator that makes each service's windows as it is
    reached: only the scaled windows that ran a forward are kept. A service
    without a scaler in the model is a ValidationError naming it.

    units is "scaled" for the forecasts in the service's scaled units,
    "original" for them through its scaler's inverse_transform, or "rates"
    for those clamped at zero, since a request rate cannot be negative.
    Training and replay both forecast in rates, through
    autoscaler.forecast_features, so the graph predictor sees the same
    forecasts in both.

    Each service's windows are scaled with its own scaler, and the LSTM runs
    once per distinct scaled windows: a later service reuses an earlier one's
    scaled forecasts when their scaled windows are equal. Equal inputs of one
    shape walk the same row blocks, so the shared forecasts are the bits a
    forward of its own would give. With demand.noise_sigma 0 every service's
    scaled windows are the entry's, and one forward serves them all. Services
    that share a forward share its scaled array.
    """
    if units not in ("scaled", "original", "rates"):
        raise ValueError(f"units must be 'scaled', 'original' or 'rates', got {units!r}")
    for service in services:
        if service not in model.scalers:
            raise ValidationError(f"no scaler for service {service!r} in the forecaster")
    k = model.config.window
    done: list[tuple[np.ndarray, np.ndarray]] = []
    scaled = []
    for service, x in zip(services, windows, strict=True):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != k:
            raise ShapeError(f"windows shape {x.shape} does not match model window {k}")
        xs = model.scalers[service].transform(x)
        for other_xs, yhat in done:
            if np.array_equal(xs, other_xs):
                break
        else:
            yhat = _forward_scaled(model.params, xs)
            done.append((xs, yhat))
        scaled.append(yhat)
    if units == "scaled":
        return scaled
    out = [model.scalers[s].inverse_transform(yhat) for s, yhat in zip(services, scaled)]
    return [np.maximum(f, 0.0) for f in out] if units == "rates" else out


def scaled_mse(scaler: MinMaxScaler, forecasts: np.ndarray, targets) -> float:
    """MSE of scaled forecasts against raw targets under their service's
    scaler, in scaled units, the units of the training history; a non-finite
    MSE raises DivergenceError."""
    y = scaler.transform(targets)
    if y.shape != forecasts.shape:
        raise ShapeError(f"targets shape {y.shape} != forecasts shape {forecasts.shape}")
    mse = float(np.mean((forecasts - y) ** 2))
    if not np.isfinite(mse):
        raise DivergenceError(f"scaled MSE is {mse}, not finite")
    return mse


def train_lstm(series: Mapping[str, np.ndarray], fitted_on: str, config: LstmConfig,
               dtype=DTYPE) -> tuple[LstmModel, list[float]]:
    """Fit the forecaster of every service in series with tensor.fit_adam;
    returns the model and the training MSE of every epoch, in scaled units.

    series maps each service to its raw training series. The weights are
    fitted on the k-windows of series[fitted_on], and each service's scaler
    on its own training targets; a fitted_on without a series is a
    ValidationError naming it.

    The fit computes in dtype: the scaled windows and targets, the weights,
    their gradients and the Adam state; the model holds its weights in dtype.
    The shuffle order is derived from the config seed, so identical inputs
    give bit-identical histories and weights. Score held-out data with
    scaled_mse over the "scaled" forecasts of forecast_services.
    """
    if fitted_on not in series:
        raise ValidationError(f"fitted_on {fitted_on!r} has no training series")
    k = config.window
    scalers = {service: MinMaxScaler.fit(make_windows(values, k)[1])
               for service, values in series.items()}
    xs, ys = (scalers[fitted_on].transform(a).astype(dtype)
              for a in make_windows(series[fitted_on], k))

    def batch_loss(params, batch, idx, grads):
        np.take(xs, idx, axis=0, out=batch.x)
        np.take(ys, idx, out=batch.y)
        return _loss_and_grads(params, batch, grads)

    rng = Rng(config.seed)
    init = [p.astype(dtype) for p in _init_params(config, rng)]
    make_batch = _workspace(config, min(len(xs), config.batch_size), dtype)
    params, history = fit_adam(init, len(xs), config, rng, make_batch, batch_loss, "lstm")
    return LstmModel.from_params(config, params, scalers, fitted_on), history


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
