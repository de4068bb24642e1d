"""Dense linear-algebra and optimization substrate shared by both predictive models.

Matrices are 2-D float64 numpy arrays in row-major order. Every public
operation is pure and deterministic: identical inputs (including RNG state)
produce bit-identical outputs, and results are checked to be finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError

ACTIVATIONS = ("tanh", "sigmoid", "relu", "linear")

_SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    x = (x + _SPLITMIX64_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def mix_seed(seed: int, *streams: int) -> int:
    """Derive an independent 64-bit seed from a base seed and stream indices."""
    out = _splitmix64(seed & _MASK64)
    for s in streams:
        out = _splitmix64(out ^ (s & _MASK64))
    return out


class Rng:
    """Seeded random source; identical seeds yield identical draw sequences."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float, high: float, size=None) -> np.ndarray | float:
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def child(self, *streams: int) -> "Rng":
        """Independent deterministic sub-stream (does not consume draws)."""
        return Rng(mix_seed(self.seed, *streams))


def ensure_finite(m: np.ndarray, name: str = "result") -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 0.5 * (1 + tanh(x / 2)) saturates cleanly at both ends, so it never
    # overflows; one buffer keeps wide inference batches from holding two.
    out = 0.5 * np.asarray(x, dtype=np.float64)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def activation(m: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise activation: tanh, sigmoid, relu (max(0, .)), or linear."""
    m = np.asarray(m, dtype=np.float64)
    if kind == "tanh":
        return np.tanh(m)
    if kind == "sigmoid":
        return sigmoid(m)
    if kind == "relu":
        return np.maximum(m, 0.0)
    if kind == "linear":
        return m.copy()
    raise ValidationError(f"unknown activation kind {kind!r}; expected one of {ACTIVATIONS}")


@dataclass
class AdamState:
    """Per-parameter optimizer state for bias-corrected Adam."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValidationError(f"betas must lie in (0,1), got {self.beta1}, {self.beta2}")
        if self.epsilon <= 0.0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        if self.step < 0:
            raise ValidationError(f"step must be >= 0, got {self.step}")
        if self.first_moment.shape != self.second_moment.shape:
            raise ShapeError(
                f"moment shapes differ: {self.first_moment.shape} vs {self.second_moment.shape}"
            )

    @classmethod
    def fresh(cls, param: np.ndarray, learning_rate: float, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        z = np.zeros_like(np.asarray(param, dtype=np.float64))
        return cls(z, z.copy(), 0, learning_rate, beta1, beta2, epsilon)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns the new parameter and state."""
    param = np.asarray(param, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if param.shape != grad.shape or param.shape != state.first_moment.shape:
        raise ShapeError(
            f"adam_step shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"moments {state.first_moment.shape}"
        )
    t = state.step + 1
    m = state.beta1 * state.first_moment + (1.0 - state.beta1) * grad
    v = state.beta2 * state.second_moment + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_param = param - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    ensure_finite(new_param, "adam_step result")
    new_state = AdamState(m, v, t, state.learning_rate, state.beta1, state.beta2, state.epsilon)
    return new_param, new_state


def glorot_init(rows: int, cols: int, rng: Rng) -> np.ndarray:
    """Glorot-uniform matrix in +/- sqrt(6 / (rows + cols)), seeded."""
    if rows < 1 or cols < 1:
        raise ValidationError(f"glorot_init needs positive dims, got {rows}x{cols}")
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, (rows, cols))


@dataclass
class MinMaxScaler:
    """Affine min-max map from a fitted data range onto an output range.

    A constant series degenerates the fit (lo == hi); transform then emits the
    output midpoint and inverse_transform returns the constant. A range so
    narrow that the scale factor overflows (a subnormal hi - lo) degenerates
    the same way.
    """

    lo: float
    hi: float
    out_lo: float = -0.8
    out_hi: float = 0.8

    @classmethod
    def fit(cls, values: np.ndarray, out_lo: float = -0.8, out_hi: float = 0.8) -> "MinMaxScaler":
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValidationError("cannot fit a scaler to an empty array")
        ensure_finite(values, "scaler input")
        return cls(float(values.min()), float(values.max()), out_lo, out_hi)

    @property
    def degenerate(self) -> bool:
        return self.hi == self.lo or not math.isfinite((self.out_hi - self.out_lo)
                                                       / (self.hi - self.lo))

    def transform(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.degenerate:
            mid = 0.5 * (self.out_lo + self.out_hi)
            return np.full_like(x, mid)
        scale = (self.out_hi - self.out_lo) / (self.hi - self.lo)
        return self.out_lo + (x - self.lo) * scale

    def inverse_transform(self, y):
        y = np.asarray(y, dtype=np.float64)
        if self.degenerate:
            return np.full_like(y, self.lo)
        scale = (self.hi - self.lo) / (self.out_hi - self.out_lo)
        return self.lo + (y - self.out_lo) * scale

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "out_lo": self.out_lo, "out_hi": self.out_hi}

    @classmethod
    def from_dict(cls, d: dict) -> "MinMaxScaler":
        return cls(float(d["lo"]), float(d["hi"]), float(d["out_lo"]), float(d["out_hi"]))
