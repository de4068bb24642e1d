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
from .tensor import Rng, check_seed

HEADER = "minute,requests"
# The largest request count a trace holds: every count up to 2**53 is exact in
# float64, the simulator's type, and not every one above it is.
MAX_COUNT = 2 ** 53
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
        if max(self.counts) > MAX_COUNT:
            raise ValidationError(f"request count {next(c for c in self.counts if c > MAX_COUNT)} "
                                  f"is above 2**53, more than float64 holds exactly")

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
            if (0 <= counts.min() and counts.max() <= MAX_COUNT
                    and -2 ** 62 < minutes.min() and minutes.max() < 2 ** 62
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
        if count > MAX_COUNT:
            raise TraceFormatError(f"{path}:{lineno}: request count {count} is above 2**53, "
                                   f"more than float64 holds exactly", line=lineno)
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


def interpolate_to_minutes(trace: WorkloadTrace) -> WorkloadTrace:
    """Spread each 5-minute bin over 5 minutes, conserving per-bin totals exactly.

    Per-minute weights follow a linear ramp between neighboring bin midpoints
    (flat at the ends); integer counts come from largest-remainder rounding,
    remainder ties going to the earlier minute. Every bin is one row of a
    (bins, 5) array, and each step is one array pass over all of them.
    """
    if trace.resolution != 5:
        raise ValidationError(f"interpolation expects 5-minute bins, got resolution {trace.resolution}")
    totals = trace.values
    rates = totals / 5.0  # per-minute rate at each bin midpoint
    prev_rate = np.concatenate([rates[:1], rates[:-1]])
    next_rate = np.concatenate([rates[1:], rates[-1:]])
    # Minute centers at offsets -2..+2 from the bin midpoint; the ramp pieces
    # meet at the midpoint itself.
    weights = np.empty((len(rates), 5))
    for j, offset in enumerate((-2, -1, 0, 1, 2)):
        slope = rates - prev_rate if offset < 0 else next_rate - rates
        weights[:, j] = rates + slope * offset / 5.0 if offset else rates
    np.maximum(weights, 0.0, out=weights)
    # A bin with requests has a positive middle weight, so only an empty bin
    # can have no weight; it gets no requests.
    wsum = (((weights[:, 0] + weights[:, 1]) + weights[:, 2]) + weights[:, 3]) + weights[:, 4]
    scale = np.divide(totals, wsum, out=np.zeros_like(totals), where=totals > 0)
    quotas = weights * scale[:, None]
    floors = np.floor(quotas)
    remainders = quotas - floors
    counts = floors.astype(np.int64)
    leftover = np.asarray(trace.counts) - counts.sum(axis=1)
    # A minute's place in its bin's order: larger remainders first, equal
    # ones by position. The first leftover minutes of that order get one more.
    ahead = ((remainders[:, None, :] > remainders[:, :, None])
             | ((remainders[:, None, :] == remainders[:, :, None])
                & np.tri(5, k=-1, dtype=bool))).sum(axis=2)
    counts += ahead < leftover[:, None]
    return WorkloadTrace(resolution=1, start_minute=trace.start_minute,
                         counts=tuple(counts.ravel().tolist()))


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
    elif not period > 0:  # a NaN fails too
        raise ValidationError(f"period must be > 0, got {period}")
    check_seed(seed)
    rng = Rng(seed)
    t = np.arange(length, dtype=np.float64) * resolution
    # A subnormal period makes the phase infinite or NaN, and a huge base or
    # amplitude overflows: the level is checked once below.
    with np.errstate(all="ignore"):
        if pattern == "sine":
            level = base + amplitude * np.sin(2.0 * np.pi * t / period)
        elif pattern == "diurnal":
            # Day-shaped: a fundamental plus a weaker half-day harmonic.
            phase = 2.0 * np.pi * t / period
            level = base + amplitude * (0.8 * np.sin(phase) + 0.2 * np.sin(2.0 * phase))
        else:  # bursty
            level = np.full(length, base, dtype=np.float64)  # base may be a JSON integer
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
    # rint rounds half to even, as round() does.
    counts = np.maximum(np.rint(level), 0.0)
    if counts.max() > MAX_COUNT:
        raise ValidationError(f"base {base}, amplitude {amplitude} and noise {noise} give "
                              f"{pattern} counts above 2**53, more than float64 holds "
                              f"exactly")
    return WorkloadTrace(resolution=resolution, start_minute=0,
                         counts=tuple(counts.astype(np.int64).tolist()))
