"""Dense linear-algebra and optimization substrate shared by both predictive models.

Matrices are 2-D float64 numpy arrays in row-major order. Every public
operation is deterministic: identical inputs (including RNG state) produce
bit-identical outputs, and results are checked to be finite. All are pure
except adam_step, which updates its parameter and state in place, and
one_blas_thread, which sets OpenBLAS's thread count for a block.
"""
from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError, check_keys

ACTIVATIONS = ("tanh", "sigmoid", "relu", "linear")

_SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x):
    """SplitMix64 finaliser of a Python int, or elementwise of a uint64 array."""
    x = (x + _SPLITMIX64_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def mix_seed(seed: int, *streams):
    """Derive an independent 64-bit seed from a base seed and stream indices.

    A stream may be an integer array, which yields a uint64 array of seeds,
    element for element the seed its entries would give as Python ints.
    """
    out = _splitmix64(seed & _MASK64)
    for s in streams:
        s = s.astype(np.uint64) if isinstance(s, np.ndarray) else s & _MASK64
        out = _splitmix64(out ^ s)
    return out


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count - 1):
        out.append((out[-1] * mult) & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


# The running hash constants of numpy's SeedSequence (4-word pool): 16 hashes
# mix the entropy into the pool, 8 more draw the output words.
_SS_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_SS_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(value: np.ndarray, hash_a: np.ndarray, hash_b: np.ndarray) -> np.ndarray:
    value = (value ^ hash_a) * hash_b
    return value ^ (value >> np.uint32(16))


def _seed_sequence_state(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for every seed s, as (4, n).

    numpy's pool mixing and output hashing run on uint32 arrays, whose
    products wrap like its uint32 scalars. A seed below 2**32 is one entropy
    word, which mixes exactly like two words with a zero high word. Hashes of
    one source word into the other three pool words are independent of each
    other, so each source is one array step.
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, _SS_HASH_A[0:4], _SS_HASH_A[1:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        j = 4 + 3 * src
        hashed = _hashmix(pool[src], _SS_HASH_A[j:j + 3], _SS_HASH_A[j + 1:j + 4])
        mixed = _SS_MIX_L * pool[dst] - _SS_MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = _hashmix(np.tile(pool, (2, 1)), _SS_HASH_B[0:8], _SS_HASH_B[1:9]).astype(np.uint64)
    return out[0::2] | (out[1::2] << np.uint64(32))


def keyed_normals(seeds) -> np.ndarray:
    """Rng(s).normal() for every 64-bit seed s, bit for bit, in one pass.

    The result has the shape of seeds.

    Seeding a fresh Generator per seed is dominated by SeedSequence hashing.
    Here the hashing runs vectorised over all seeds; PCG64's seeding (two
    steps of its 128-bit LCG from the hashed words) runs on Python ints; and
    one reusable Generator has its state set per seed before it draws. NEP 19
    keeps the SeedSequence and PCG64 streams stable across numpy versions, and
    the normal itself still comes from Generator.normal.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = _seed_sequence_state(seeds.ravel())
    gen = np.random.Generator(np.random.PCG64(0))
    bit_gen = gen.bit_generator
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*(w.tolist() for w in words)):
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        out.append(gen.normal())
    return np.array(out, dtype=np.float64).reshape(seeds.shape)


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
    """Per-parameter optimizer state for bias-corrected Adam.

    scratch holds two parameter-shaped work arrays, so a step allocates
    nothing.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)

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
        if self.scratch is None:
            self.scratch = np.empty((2,) + self.first_moment.shape)

    @classmethod
    def fresh(cls, param: np.ndarray, learning_rate: float, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        z = np.zeros_like(np.asarray(param, dtype=np.float64))
        return cls(z, z.copy(), 0, learning_rate, beta1, beta2, epsilon)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of param and state, in place.

    Every operation rounds as in the textbook expressions
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    param -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps).
    """
    if param.shape != grad.shape or param.shape != state.first_moment.shape:
        raise ShapeError(
            f"adam_step shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"moments {state.first_moment.shape}"
        )
    t = state.step + 1
    m, v = state.first_moment, state.second_moment
    tmp, den = state.scratch
    m *= state.beta1
    np.multiply(grad, 1.0 - state.beta1, out=tmp)
    m += tmp
    v *= state.beta2
    np.multiply(grad, 1.0 - state.beta2, out=tmp)
    tmp *= grad
    v += tmp
    np.divide(v, 1.0 - state.beta2 ** t, out=den)
    np.sqrt(den, out=den)
    den += state.epsilon
    np.divide(m, 1.0 - state.beta1 ** t, out=tmp)
    tmp *= state.learning_rate
    tmp /= den
    param -= tmp
    state.step = t
    ensure_finite(param, "adam_step result")


def carve(pool: np.ndarray, shapes) -> list[np.ndarray]:
    """Contiguous views of consecutive stretches of a flat pool, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(pool[start:start + size].reshape(shape))
        start += size
    return views


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
        check_keys(d, "scaler", required=("lo", "hi", "out_lo", "out_hi"))
        return cls(float(d["lo"]), float(d["hi"]), float(d["out_lo"]), float(d["out_hi"]))


# (get, set) thread-count symbols of the OpenBLAS builds numpy ships or links.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_api():
    """The (get, set) thread-count functions of the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Pin OpenBLAS to one thread for the block, then restore its thread count.

    Yields True when it pinned, False when no OpenBLAS could be found (the
    block then runs with whatever threading the BLAS has). Python threads that
    each call BLAS need the pin, or every product forks onto all the cores
    again and the threads oversubscribe them. The thread count is
    process-wide, so enter the pin from one thread at a time.
    """
    api = _openblas_thread_api()
    if api is None:
        yield False
        return
    get, set_ = api
    previous = get()
    set_(1)
    try:
        yield True
    finally:
        set_(previous)
