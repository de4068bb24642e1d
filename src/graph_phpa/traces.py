"""Workload trace ingestion, rescaling, 5-minute replay preparation, and synthesis.

Traces are integer request counts on a contiguous minute grid. All operations
are pure; the synthetic generator is deterministic for a given seed. Traces
are parsed, generated, rescaled and saved by whole-array numpy calls, not a
Python statement per row.
"""
from __future__ import annotations

import hashlib
import io
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TraceFormatError, ValidationError, read_text
from .tensor import Rng

HEADER = "minute,requests"
# A file whose body np.loadtxt parses as _parse_lines would: the header, then
# only ASCII digits, signs, blanks, tabs, "," and "\n". Beyond these, int()
# rejects some characters numpy accepts, such as "\x1f", and str.splitlines
# breaks lines at some numpy does not, such as "\x0c".
_BULK_FILE = re.compile(rf"[ \t]*{HEADER}[ \t]*\n([0-9+\- \t,\n]*)")


@dataclass(frozen=True)
class WorkloadTrace:
    """Request counts per bin; bin i covers minute start + i * resolution."""

    resolution: int
    start_minute: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.resolution < 1:
            raise ValidationError(f"resolution must be >= 1, got {self.resolution}")
        if len(self.counts) == 0:
            raise ValidationError("trace has no bins")
        if min(self.counts) < 0:
            raise ValidationError(f"negative request count "
                                  f"{next(c for c in self.counts if c < 0)}")

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def minutes(self) -> list[int]:
        return list(range(self.start_minute,
                          self.start_minute + len(self.counts) * self.resolution,
                          self.resolution))

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.float64)


def load_trace(path: str | Path, resolution: int = 1) -> WorkloadTrace:
    """Parse a `minute,requests` CSV into a validated trace.

    The body is parsed by one np.loadtxt call. A file it refuses, or whose
    rows break a rule, goes through _parse_lines instead, which accepts
    what int() accepts and names the first bad line. A file unreadable or
    not UTF-8 is a ValidationError naming it.
    """
    path = Path(path)
    text = read_text(path)
    bulk = _BULK_FILE.fullmatch(text)
    if bulk:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a body without rows
                rows = np.loadtxt(io.StringIO(bulk[1]), dtype=np.int64, delimiter=",",
                                  comments=None, ndmin=2)
        except ValueError:  # a field outside int64, or a malformed row
            rows = None
        if rows is not None and rows.shape[1:] == (2,) and len(rows):
            minutes, counts = rows.T
            # Minutes within +-2**62 step without overflow.
            if (counts.min() >= 0 and -2 ** 62 < minutes.min() and minutes.max() < 2 ** 62
                    and np.all(np.diff(minutes) == resolution)):
                return WorkloadTrace(resolution=resolution, start_minute=int(minutes[0]),
                                     counts=tuple(counts.tolist()))
    return _parse_lines(path, text, resolution)


def _parse_lines(path: Path, text: str, resolution: int) -> WorkloadTrace:
    """load_trace line by line with int(): the path of a file load_trace's
    bulk parse refuses, and the one that names the line at fault."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise TraceFormatError(f"{path}: first line must be '{HEADER}'", line=1)
    minutes: list[int] = []
    counts: list[int] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise TraceFormatError(f"{path}:{lineno}: expected 'minute,requests', got {raw!r}",
                                   line=lineno)
        try:
            minute, count = int(parts[0]), int(parts[1])
        except ValueError:
            raise TraceFormatError(f"{path}:{lineno}: non-integer field in {raw!r}",
                                   line=lineno) from None
        if count < 0:
            raise TraceFormatError(f"{path}:{lineno}: negative request count {count}",
                                   line=lineno)
        if minutes and minute != minutes[-1] + resolution:
            raise TraceFormatError(
                f"{path}:{lineno}: non-contiguous minutes, gap between "
                f"{minutes[-1]} and {minute} (expected stride {resolution})",
                line=lineno)
        minutes.append(minute)
        counts.append(count)
    if not counts:
        raise TraceFormatError(f"{path}: trace contains no data rows", line=len(lines))
    return WorkloadTrace(resolution=resolution, start_minute=minutes[0], counts=tuple(counts))


def save_trace(trace: WorkloadTrace, path: str | Path) -> None:
    """Write the trace as a `minute,requests` CSV with LF endings."""
    rows = "".join(map("%d,%d\n".__mod__, zip(trace.minutes, trace.counts)))
    Path(path).write_text(f"{HEADER}\n{rows}", encoding="utf-8", newline="\n")


def trace_digest(trace: WorkloadTrace) -> str:
    """Stable content hash over resolution, start, and counts."""
    payload = f"{trace.resolution};{trace.start_minute};" + ",".join(map(str, trace.counts))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def slice_trace(trace: WorkloadTrace, start: int, stop: int) -> WorkloadTrace:
    """Sub-trace over bin indexes [start, stop), absolute minutes preserved."""
    if not 0 <= start < stop <= len(trace.counts):
        raise ValidationError(f"slice [{start}, {stop}) out of range for {len(trace.counts)} bins")
    return WorkloadTrace(resolution=trace.resolution,
                         start_minute=trace.start_minute + start * trace.resolution,
                         counts=trace.counts[start:stop])


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Apportion an integer total across bins proportionally to weights."""
    if total == 0:
        return np.zeros(len(weights), dtype=np.int64)
    wsum = float(weights.sum())
    if wsum <= 0.0:
        weights = np.ones_like(weights)
        wsum = float(weights.sum())
    quotas = weights * (total / wsum)
    floors = np.floor(quotas).astype(np.int64)
    leftover = total - int(floors.sum())
    if leftover > 0:
        remainders = quotas - floors
        # Ties broken by position for determinism.
        order = np.lexsort((np.arange(len(weights)), -remainders))
        floors[order[:leftover]] += 1
    return floors


def interpolate_to_minutes(trace: WorkloadTrace) -> WorkloadTrace:
    """Spread each 5-minute bin over 5 minutes, conserving per-bin totals exactly.

    Per-minute weights follow a linear ramp between neighboring bin midpoints
    (flat at the ends); integer counts come from largest-remainder rounding.
    """
    if trace.resolution != 5:
        raise ValidationError(f"interpolation expects 5-minute bins, got resolution {trace.resolution}")
    n = len(trace.counts)
    rates = trace.values / 5.0  # per-minute rate at each bin midpoint
    out: list[int] = []
    for i, total in enumerate(trace.counts):
        prev_rate = rates[i - 1] if i > 0 else rates[i]
        next_rate = rates[i + 1] if i < n - 1 else rates[i]
        weights = np.empty(5, dtype=np.float64)
        for j in range(5):
            # Minute centers at offsets -2..+2 from the bin midpoint; the ramp
            # pieces meet at the midpoint itself.
            offset = j - 2
            if offset < 0:
                weights[j] = rates[i] + (rates[i] - prev_rate) * offset / 5.0
            elif offset > 0:
                weights[j] = rates[i] + (next_rate - rates[i]) * offset / 5.0
            else:
                weights[j] = rates[i]
        weights = np.maximum(weights, 0.0)
        out.extend(int(x) for x in _largest_remainder(weights, int(total)))
    return WorkloadTrace(resolution=1, start_minute=trace.start_minute, counts=tuple(out))


def rescale_trace(trace: WorkloadTrace, target_peak: float) -> WorkloadTrace:
    """Scale counts linearly so the maximum bin becomes round(target_peak)."""
    if target_peak <= 0:
        raise ValidationError(f"target_peak must be positive, got {target_peak}")
    peak = max(trace.counts)
    if peak == 0:
        raise ValidationError("cannot rescale an all-zero trace")
    # rint rounds half to even, as round() does; int() keeps any size exact.
    counts = np.rint(trace.values * (target_peak / peak)).tolist()
    return WorkloadTrace(resolution=trace.resolution, start_minute=trace.start_minute,
                         counts=tuple(map(int, counts)))


@dataclass(frozen=True)
class Split:
    """The fractions of a series that train and validate; the rest tests."""

    train: float = 0.6
    valid: float = 0.2

    def __post_init__(self):
        for name in ("train", "valid"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be > 0, got {float(getattr(self, name))}")
        if not self.train + self.valid < 1:
            raise ValidationError(f"train + valid must be < 1 to leave a test segment, "
                                  f"got {float(self.train)} + {float(self.valid)}")


def split_dataset(samples, split: Split = Split()):
    """Chronological train/valid/test split: floor(n * train), floor(n * valid), the rest."""
    n = len(samples)
    if n < 5:
        raise ValidationError(f"need at least 5 samples to split, got {n}")
    n_train = math.floor(n * split.train)
    n_valid = math.floor(n * split.valid)
    return samples[:n_train], samples[n_train:n_train + n_valid], samples[n_train + n_valid:]


def generate_synthetic_trace(pattern: str, length: int, amplitude: float, seed: int,
                             base: float = 100.0, period: float | None = None,
                             noise: float = 0.0, resolution: int = 1) -> WorkloadTrace:
    """Deterministic synthetic trace: 'sine', 'diurnal', or 'bursty'.

    `noise` is a relative multiplicative jitter; amplitude 0 with noise 0
    yields a constant trace at the base level.
    """
    if length < 1:
        raise ValidationError(f"length must be >= 1, got {length}")
    if pattern not in ("sine", "diurnal", "bursty"):
        raise ValidationError(f"pattern must be 'sine', 'diurnal' or 'bursty', got {pattern!r}")
    for name, value in (("base", base), ("amplitude", amplitude), ("noise", noise)):
        if not value >= 0:  # a NaN fails too
            raise ValidationError(f"{name} must be >= 0, got {value}")
    if period is None:
        period = 1440 if pattern == "diurnal" else 240
    rng = Rng(seed)
    t = np.arange(length, dtype=np.float64) * resolution
    # A period of 0, -0.0 or a subnormal makes the phase infinite or NaN, and
    # a huge base or amplitude overflows: the level is checked once below.
    with np.errstate(all="ignore"):
        if pattern == "sine":
            level = base + amplitude * np.sin(2.0 * np.pi * t / period)
        elif pattern == "diurnal":
            # Day-shaped: a fundamental plus a weaker half-day harmonic.
            phase = 2.0 * np.pi * t / period
            level = base + amplitude * (0.8 * np.sin(phase) + 0.2 * np.sin(2.0 * phase))
        else:  # bursty
            level = np.full(length, base)
            n_bursts = max(1, length // 120)
            starts = rng.integers(0, length, n_bursts)
            durations = rng.integers(5, 30, n_bursts)
            heights = rng.uniform(0.5, 1.0, n_bursts) * amplitude
            for s, d, h in zip(starts, durations, heights):
                level[int(s):int(s) + int(d)] += h
        if noise > 0.0:
            level = level * (1.0 + noise * rng.normal(size=length))
    if not np.all(np.isfinite(level)):
        raise ValidationError(f"period {period} with base {base} and amplitude {amplitude} "
                              f"gives a non-finite {pattern} level")
    # rint rounds half to even, as round() does. Counts above 2**53 are not
    # all exact in float64, the simulator's type.
    counts = np.maximum(np.rint(level), 0.0)
    if counts.max() > 2 ** 53:
        raise ValidationError(f"base {base}, amplitude {amplitude} and noise {noise} give "
                              f"{pattern} counts above 2**53, more than float64 holds "
                              f"exactly")
    return WorkloadTrace(resolution=resolution, start_minute=0,
                         counts=tuple(counts.astype(np.int64).tolist()))
