"""Workload trace ingestion, rescaling, 5-minute replay preparation, and synthesis.

Traces are integer request counts on a contiguous minute grid. All operations
are pure; the synthetic generator is deterministic for a given seed.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TraceFormatError, ValidationError
from .tensor import Rng

HEADER = "minute,requests"


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
        for c in self.counts:
            if c < 0:
                raise ValidationError(f"negative request count {c}")

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def minutes(self) -> list[int]:
        return [self.start_minute + i * self.resolution for i in range(len(self.counts))]

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.float64)


def load_trace(path: str | Path, resolution: int = 1) -> WorkloadTrace:
    """Parse a `minute,requests` CSV into a validated trace."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
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
    rows = [HEADER]
    rows.extend(f"{m},{c}" for m, c in zip(trace.minutes, trace.counts))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")


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
    factor = target_peak / peak
    counts = tuple(int(round(c * factor)) for c in trace.counts)
    return WorkloadTrace(resolution=trace.resolution, start_minute=trace.start_minute,
                         counts=counts)


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
    if not noise >= 0:  # a NaN fails too
        raise ValidationError(f"noise must be >= 0, got {noise}")
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
    counts = tuple(int(max(0, round(v))) for v in level)
    return WorkloadTrace(resolution=resolution, start_minute=0, counts=counts)
