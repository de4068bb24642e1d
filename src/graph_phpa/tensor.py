"""Dense linear-algebra and optimization substrate shared by both predictive models.

Matrices are 2-D numpy arrays in row-major order, float64 unless a caller
gives another floating dtype: adam_step updates its parameter in the
parameter's own dtype, which lets the LSTM fit train in DTYPE while
everything else, the GCN fit included, stays float64. Every public
operation is deterministic: identical inputs (including RNG state) produce
bit-identical outputs, and results are checked to be finite. All are pure
except adam_step, which updates its parameter and state in place, fit_adam,
which runs both fits' mini-batch Adam loop through the callbacks it is
given, and one_blas_thread, which sets OpenBLAS's thread count for a block.

Passes over a whole window or dataset walk it in blocks (see blocks), so their
working memory is bounded by the block size, not by the window's length.
"""
from __future__ import annotations

import ctypes
import functools
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ShapeError, ValidationError, check_keys, check_value

log = logging.getLogger(__name__)

_SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


# Items per block of a whole-window pass. A block holds at least half of it
# unless the whole input is smaller, so a product over a block has at least
# 128 rows: OpenBLAS takes its general matrix path for it, as it would over all
# the items at once, not a path for one or a few rows. An input under 128 rows
# is one block of its own size, and there sgemm may round otherwise: products
# of 2 and 7 rows gave other float32 bits than one of 300 rows (OpenBLAS
# 0.3.31, x86-64), and numpy takes gemv for one row.
BLOCK = 256

# The precision the LSTM fits and forecasts in. float32 halves the LSTM
# recurrence's time: a 2,150-row forward of the bundled shapes took 23 ms,
# against 48 ms in float64, on a 2-core x86-64 host with OpenBLAS 0.3.31. The
# GCN fits in float64, the precision its model and replay compute in: float32
# cut the bundled fit from 0.19 s to 0.14 s, but Adam carried the fit's own
# summation rounding into the weights wherever a dead unit woke.
DTYPE = np.float32


def blocks(n: int, size: int = BLOCK):
    """(lo, hi) ranges that cover range(n) in order: ceil(n / size) of them,
    whose sizes differ by at most one, so none holds more than size items and,
    unless n itself is smaller, none fewer than ceil(size / 2)."""
    count = -(-n // size)
    for i in range(count):
        yield n * i // count, n * (i + 1) // count


def _splitmix64(x):
    """SplitMix64 finaliser of a Python int, or elementwise of a uint64 array."""
    x = (x + _SPLITMIX64_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def check_seed(seed: int) -> None:
    """A ValidationError naming seed unless it is in [0, 2**64): the random
    streams take a seed as one 64-bit word, so one outside would run as
    another seed while the outputs record it as given."""
    if not 0 <= seed <= _MASK64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")


def check_learning_rate(rate: float) -> None:
    """A ValidationError naming learning_rate unless it is positive and finite
    in DTYPE: Adam multiplies every step by the rate in the fit's dtype, where
    a larger one would overflow to inf. The LSTM fits in DTYPE; the GCN fits
    in float64 but shares this check, so both configs take the same range."""
    if not rate > 0:
        raise ValidationError(f"learning_rate must be positive, got {rate}")
    with np.errstate(over="ignore"):
        finite = bool(np.isfinite(DTYPE(rate)))
    if not finite:
        raise ValidationError(f"learning_rate must be finite in {np.dtype(DTYPE).name} "
                              f"(at most {float(np.finfo(DTYPE).max):.9g}), got {rate}")


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


_M_HI, _M_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _MASK64)
_LOW32 = np.uint64(0xFFFFFFFF)
# Bits 9..60 of a 64-bit output are the ziggurat's 52-bit magnitude.
_RABS_END = 1 << 52


def _mul_hi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> np.uint64(32)
    b0, b1 = b & _LOW32, b >> np.uint64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> np.uint64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """state * MULT + inc mod 2**128 on (high, low) uint64 word arrays."""
    prod_hi = _mul_hi64(lo, _M_LO) + lo * _M_HI + hi * _M_LO
    lo = lo * _M_LO + inc_lo
    return prod_hi + inc_hi + (lo < inc_lo), lo


def _pcg64_first_outputs(seeds: np.ndarray) -> np.ndarray:
    """PCG64(s).random_raw() for every 64-bit seed s of a 1-D array.

    numpy seeds PCG64 from SeedSequence words (s_hi, s_lo, i_hi, i_lo) as
    inc = i << 1 | 1 and state = (inc + s) * MULT + inc; a draw steps the LCG
    once more and outputs XSL-RR, the xor of the state's halves rotated
    right by its top 6 bits. The 128-bit words are (high, low) uint64 arrays.
    """
    s_hi, s_lo, i_hi, i_lo = _seed_sequence_state(seeds)
    inc_hi = (i_hi << np.uint64(1)) | (i_lo >> np.uint64(63))
    inc_lo = (i_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < inc_lo)
    hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
    x, rot = hi ^ lo, hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def _set_pcg64_state(bit_gen: np.random.PCG64, state: int, inc: int) -> None:
    bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                     "has_uint32": 0, "uinteger": 0}


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """(wi, ki): the installed numpy's 256-layer ziggurat tables for normals.

    Generator.normal reads one 64-bit output r as idx = r & 0xff, sign bit 8
    and a 52-bit magnitude rabs from bits 9-60, and returns +-rabs * wi[idx] at
    once when rabs < ki[idx]; any other draw reads further outputs. Both
    tables are probed out of Generator.normal itself, so they follow the
    installed numpy. With inc 1, the state (r - 1) * MULT**-1 steps to r,
    whose zero high word makes XSL-RR output r unrotated; so each probe
    chooses r exactly, and a draw took the fast path when the state ends at
    r. wi[idx] is the draw at rabs = 1 (0 where even that is slow, so
    ki <= 1 and accepted draws are 0). ki[idx] is the first slow rabs: for
    idx >= 3 the floor or ceiling of wi[idx-1] / wi[idx] * 2**52, confirmed
    by two probes, and bisected over all 2**52 magnitudes where that fails
    and for idx 0 to 2.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    m_inv = pow(_PCG64_MULT, -1, 1 << 128)

    def draw(idx: int, rabs: int) -> tuple[float, bool]:
        r = idx | rabs << 9
        _set_pcg64_state(gen.bit_generator, (r - 1) * m_inv & _MASK128, 1)
        z = gen.normal()
        return z, gen.bit_generator.state["state"]["state"] == r

    def first_slow(idx: int, guess: int | None) -> int:
        # Probe the guess, then the neighbour that would confirm it, then bisect.
        lo, hi, mid = 0, _RABS_END, guess  # every rabs below lo is fast; hi is slow or the end
        while lo < hi:
            if mid is None:
                mid = (lo + hi) // 2
            if draw(idx, mid)[1]:
                lo, mid = mid + 1, (mid + 1 if mid == guess else None)
            else:
                hi, mid = mid, (mid - 1 if mid == guess else None)
        return lo

    wi = np.zeros(256)
    for idx in range(256):
        z, fast = draw(idx, 1)
        wi[idx] = z if fast else 0.0
    ki = np.zeros(256, dtype=np.uint64)
    for idx in range(256):
        guess = None
        if idx >= 3 and wi[idx - 1] > 0 and wi[idx] > 0:
            (n1, d1), (n2, d2) = (float(w).as_integer_ratio() for w in wi[idx - 1:idx + 1])
            guess = min(n1 * d2 * _RABS_END // (d1 * n2), _RABS_END - 1)
        ki[idx] = first_slow(idx, guess)
    wi.setflags(write=False)
    ki.setflags(write=False)
    return wi, ki


def _ziggurat_fast_path(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, accepted): Generator.normal() of a generator whose next output is r,
    wherever accepted says its ziggurat returns without reading more.

    z is +-rabs * wi[idx] plus 0.0, as normal's loc + scale * x turns -0.0
    into +0.0; where accepted is False, z is meaningless.
    """
    wi, ki = _ziggurat_tables()
    idx = (r & np.uint64(0xFF)).astype(np.intp)
    rabs = (r >> np.uint64(9)) & np.uint64(_RABS_END - 1)
    z = rabs.astype(np.float64) * wi[idx]
    z = np.where((r >> np.uint64(8)) & np.uint64(1), -z, z) + 0.0
    return z, rabs < ki[idx]


# Seeds per block of keyed_normals: its uint64 temporaries stay under 1 MB.
_NOISE_BLOCK = 16 * BLOCK


def keyed_normals(seeds) -> np.ndarray:
    """Rng(s).normal() for every 64-bit seed s, bit for bit, in array passes.

    The result has the shape of seeds.

    Seeding a fresh Generator per seed is dominated by SeedSequence hashing
    and PCG64 seeding; both run vectorised over a block of seeds at a time, up
    to each seed's first output, and numpy's ziggurat fast path turns about
    98.5% of those outputs into normals with one array operation per step.
    The rest read further outputs: for them one reusable Generator has its
    state set to the seeded PCG64 state (Python-int arithmetic) and draws.
    NEP 19 keeps the SeedSequence and PCG64 streams stable across numpy
    versions, and the ziggurat tables are probed out of the installed
    Generator.normal.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    flat = seeds.ravel()
    out = np.empty(flat.shape)
    gen = np.random.Generator(np.random.PCG64(0))
    for lo, hi in blocks(len(flat), _NOISE_BLOCK):
        out[lo:hi], fast = _ziggurat_fast_path(_pcg64_first_outputs(flat[lo:hi]))
        slow = np.flatnonzero(~fast)
        words = _seed_sequence_state(flat[lo:hi][slow])
        for i, s_hi, s_lo, i_hi, i_lo in zip(slow.tolist(), *(w.tolist() for w in words)):
            inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
            state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
            _set_pcg64_state(gen.bit_generator, state, inc)
            out[lo + i] = gen.normal()
    return out.reshape(seeds.shape)


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


# Adam's moment decay rates and denominator guard, the same for every fit.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Per-parameter optimizer state for bias-corrected Adam.

    The moments and scratch have the parameter's dtype. scratch holds two
    parameter-shaped work arrays, so a step allocates nothing.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    learning_rate: float = 0.001
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.step < 0:
            raise ValidationError(f"step must be >= 0, got {self.step}")
        if self.first_moment.shape != self.second_moment.shape:
            raise ShapeError(
                f"moment shapes differ: {self.first_moment.shape} vs {self.second_moment.shape}"
            )
        if self.scratch is None:
            self.scratch = np.empty((2,) + self.first_moment.shape,
                                    dtype=self.first_moment.dtype)

    @classmethod
    def fresh(cls, param: np.ndarray, learning_rate: float) -> "AdamState":
        """Zero moments in param's dtype."""
        z = np.zeros_like(np.asarray(param))
        return cls(z, z.copy(), 0, learning_rate)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of param and state, in place.

    Every operation rounds as in the textbook expressions
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    param -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps), with b1, b2
    and eps the ADAM_ constants, in the dtype of param, grad and the moments.
    """
    if param.shape != grad.shape or param.shape != state.first_moment.shape:
        raise ShapeError(
            f"adam_step shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"moments {state.first_moment.shape}"
        )
    t = state.step + 1
    m, v = state.first_moment, state.second_moment
    tmp, den = state.scratch
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=tmp)
    m += tmp
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= grad
    v += tmp
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=den)
    np.sqrt(den, out=den)
    den += ADAM_EPSILON
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=tmp)
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


def fit_adam(init: list[np.ndarray], rows: int, config, rng: Rng, make_batch, batch_loss,
             name: str) -> tuple[list[np.ndarray], list[float]]:
    """Fit parameters with mini-batch Adam over rows training rows; returns
    them and the training MSE of every epoch.

    init holds the initial parameters in the dtype the fit computes in.
    Parameters, gradients and Adam moments each live in one flat array, so a
    batch takes one Adam step over all of them. config gives learning_rate,
    epochs and batch_size. Each epoch visits the rows in an order drawn from
    rng.child(1), batch_size rows at a time, the last batch taking what is
    left, so a seeded rng gives bit-identical histories and parameters.

    make_batch(m) returns the workspace of a batch of m rows, once for the
    full batch size and once for a shorter remainder. batch_loss(params,
    batch, idx, grads) takes the rows idx into batch, writes each parameter's
    gradient into grads and returns the batch's mean squared error. A
    non-finite loss, or a step that leaves a non-finite parameter, raises
    DivergenceError naming the epoch; since both are checked, numpy's
    overflow and invalid-value warnings are off during the fit. name labels
    the debug log line of each epoch.
    """
    flat = np.concatenate([p.ravel() for p in init])
    params = carve(flat, [p.shape for p in init])
    flat_grad = np.empty_like(flat)
    grads = carve(flat_grad, [p.shape for p in init])
    state = AdamState.fresh(flat, config.learning_rate)
    shuffle_rng = rng.child(1)
    size = config.batch_size
    batches = {m: make_batch(m) for m in {min(rows, size), rows % size or size}}
    history: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(rows)
            sq_sum = 0.0
            for start in range(0, rows, size):
                idx = order[start:start + size]
                loss = batch_loss(params, batches[len(idx)], idx, grads)
                if not np.isfinite(loss):
                    raise DivergenceError(f"training loss diverged at epoch {epoch}",
                                          epoch=epoch)
                sq_sum += loss * len(idx)
                try:
                    adam_step(flat, flat_grad, state)
                except ValidationError as exc:  # the step overflowed a parameter
                    raise DivergenceError(f"training diverged at epoch {epoch}: an Adam step "
                                          f"left non-finite weights (learning_rate "
                                          f"{config.learning_rate:g})", epoch=epoch) from exc
            history.append(sq_sum / rows)
            log.debug("%s epoch %d: train=%.6g", name, epoch, history[-1])
    return params, history


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

    @classmethod
    def from_dict(cls, d: dict, where: str = "scaler") -> "MinMaxScaler":
        # All four are required: a GCN scaler's [0, 1] must not become ±0.8.
        keys = ("lo", "hi", "out_lo", "out_hi")
        check_keys(d, where, required=keys, allowed=keys)
        lo, hi, out_lo, out_hi = (float(check_value(d[k], float, f"{where}.{k}")) for k in keys)
        if not out_lo < out_hi:  # inverse_transform divides by the output range
            raise ValidationError(f"{where}.out_lo {out_lo} must be below {where}.out_hi {out_hi}")
        if lo > hi:  # fit never writes one; it would forecast mirrored
            raise ValidationError(f"{where}.lo {lo} must not be above {where}.hi {hi}")
        return cls(lo, hi, out_lo, out_hi)


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
    block then runs with whatever threading the BLAS has). The trainings'
    products are small, (batch, H) by (H, 4H) in the float32 LSTM fit, so a
    second thread costs more than it gives: on a 2-core host, in 8
    alternating pairs of fresh processes, a 3-epoch fit of the bundled shapes
    took a median 0.22 s pinned and 0.29 s unpinned, and the bundled
    train_resource (forecasts and GCN fit) 0.42 s and 0.45 s, each pinned
    faster in 7 of the 8 pairs. The thread count is process-wide, so enter
    the pin from one thread at a time.
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
