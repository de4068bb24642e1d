"""Independent reference implementations used to check the real ones.

The forward references are deliberately written with plain Python lists,
loops, and the math module: no numpy, no shared code with the package. Slow
and simple beats fast and entangled, because these are the arbiters. The
finite-difference gradient takes and returns numpy arrays, since it perturbs
the package's own parameter tensors, but computes nothing with them beyond
one entry at a time. The resource-dataset loop and the per-minute predictive
policy are the sample-by-sample and minute-by-minute forms of the batched
code: they arbitrate the batching, not the arithmetic, so the policy reuses
the package's predict_demand (as a batch of one), and sizes each service's
pods with size_pods_oracle, the sizing rule restated on Python floats. The
per-minute demand propagation likewise draws one freshly seeded Rng per
service and minute and walks the demand model's own topological order. The
simulation-log references see a log as one SimRow per (minute, service), in
file order, and aggregate and chart it row by row, the chart through its
corners or, as its earlier form drew it, through every row; a decision log
is one DecisionRow per (minute, service), written with the package's
earlier per-row template. The simulator's minute loop and the threshold rule are
the package's earlier forms, kept to arbitrate the leaner ones bit for bit:
one minute at a time over Python lists, with a list of targets built
service by service. The allocating LSTM
kernel, Adam and training loop are the package's earlier implementation,
kept here to arbitrate the buffered one bit for bit, in the dtype of the
weights they are given: they allocate every array they return instead of
writing into reused buffers, and run the recurrence over all rows at once.
The GCN's per-sample kernel, with an einsum weight gradient and one Adam
step per weight matrix, is likewise the package's earlier form, kept to
arbitrate the buffered one: forward and loss bit for bit, gradients and
training to rounding. The normal drawn after a chosen
64-bit output comes from numpy's own Generator, its PCG64 state inverted by
hand so that the next output is the chosen one, and keyed noise from one fresh
Generator per seed. CSV files are written row by row with csv.writer. The
trace parser, writer, generator, rescaler and 5-minute interpolation are the
package's earlier per-row forms, kept to arbitrate the whole-array ones: int()
of each field of each line, an f-string per row, round() of each count, and a
ramp and a largest-remainder rounding per bin.
"""
import csv
import io
import math
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from graph_phpa.autoscaler import predict_demand
from graph_phpa.cluster_sim import (DECISION_COLUMNS, DecisionLog, ScalingPolicy, SimulationLog,
                                    initial_pod_counts)
from graph_phpa.errors import DivergenceError, TraceFormatError, ValidationError
from graph_phpa.forecast_lstm import _init_params
from graph_phpa.predict_gcn import scale_targets
from graph_phpa.tensor import AdamState, MinMaxScaler, Rng, glorot_init, mix_seed
from graph_phpa.traces import HEADER, WorkloadTrace, trace_digest


def rel_err(a, b, floor=1e-12):
    """Norm-based relative error between two same-shaped nested structures."""
    fa, fb = _flatten(a), _flatten(b)
    assert len(fa) == len(fb)
    diff = math.sqrt(sum((x - y) ** 2 for x, y in zip(fa, fb)))
    scale = math.sqrt(sum(x * x for x in fa)) + math.sqrt(sum(y * y for y in fb))
    return diff / max(scale, floor)


def _flatten(x):
    if isinstance(x, (int, float)):
        return [float(x)]
    out = []
    for item in x:
        out.extend(_flatten(item))
    return out


def assert_bitwise_equal(actual, expected):
    """Equal values, shapes and sign bits, so -0.0 and 0.0 count as different."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    np.testing.assert_array_equal(actual, expected, strict=True)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def finite_diff_gradient(f, param, eps):
    """Central-difference gradient estimate of a scalar function, entry by entry."""
    if eps <= 0.0:
        raise ValidationError(f"eps must be positive, got {eps}")
    param = np.asarray(param, dtype=np.float64)
    grad = np.zeros_like(param)
    for idx in np.ndindex(param.shape):
        bumped = param.copy()
        bumped[idx] = param[idx] + eps
        hi = float(f(bumped))
        bumped[idx] = param[idx] - eps
        lo = float(f(bumped))
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise DivergenceError(f"objective non-finite at perturbed index {idx}")
        grad[idx] = (hi - lo) / (2.0 * eps)
    return grad


def _sigmoid(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def _sigmoid_array(x):
    """0.5 * (1 + tanh(x / 2)) elementwise, the form the LSTM kernel uses."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _activate_array(m, kind):
    """A GCN layer's activation, elementwise on an array."""
    if kind == "relu":
        return np.maximum(m, 0.0)
    if kind == "linear":
        return m.copy()
    raise AssertionError(f"oracle got unknown activation {kind}")


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _column(matrix, j):
    return [row[j] for row in matrix]


def lstm_forward_oracle(layer, head_w, head_b, window):
    """Step-by-step LSTM recurrence on one scaled window.

    layer: a dict {"w": {gate: rows}, "u": {...}, "b": {...}} with gates named
    input/forget/output/candidate; head_w is a column as a flat list. Returns
    tanh(h_last . head_w + head_b).
    """
    hidden = len(layer["b"]["input"])
    h = [0.0] * hidden
    c = [0.0] * hidden
    for v in window:
        x = [float(v)]
        gates = {}
        for name in ("input", "forget", "output", "candidate"):
            pre = [_dot(x, _column(layer["w"][name], j))
                   + _dot(h, _column(layer["u"][name], j))
                   + layer["b"][name][j]
                   for j in range(hidden)]
            if name == "candidate":
                gates[name] = [math.tanh(p) for p in pre]
            else:
                gates[name] = [_sigmoid(p) for p in pre]
        c = [gates["forget"][j] * c[j] + gates["input"][j] * gates["candidate"][j]
             for j in range(hidden)]
        h = [gates["output"][j] * math.tanh(c[j]) for j in range(hidden)]
    z = _dot(h, head_w) + head_b
    return math.tanh(z)


def normalized_adjacency_oracle(a):
    """D^{-1/2} (A + I) D^{-1/2} computed with explicit loops."""
    n = len(a)
    a_tilde = [[a[i][j] + (1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    degree = [sum(row) for row in a_tilde]
    return [[a_tilde[i][j] / math.sqrt(degree[i]) / math.sqrt(degree[j])
             for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik == 0.0:
                continue
            for j in range(cols):
                out[i][j] += aik * b[k][j]
    return out


def _activate(m, kind):
    def f(v):
        if kind == "relu":
            return v if v > 0 else 0.0
        if kind == "tanh":
            return math.tanh(v)
        if kind == "sigmoid":
            return _sigmoid(v)
        if kind == "linear":
            return v
        raise AssertionError(f"oracle got unknown activation {kind}")
    return [[f(v) for v in row] for row in m]


def gcn_activations(hidden) -> tuple[str, ...]:
    """Every layer's activation, as the kernel applies them: relu on each
    hidden layer, linear on the output."""
    return ("relu",) * len(hidden) + ("linear",)


def gcn_forward_oracle(a, weights, activations, x):
    """Layer-by-layer propagation H <- act(A_hat H W) with dense loops.

    a is the raw 0/1 adjacency (no self loops); normalization happens here so
    the oracle shares nothing with the implementation.
    """
    a_hat = normalized_adjacency_oracle(a)
    h = [list(map(float, row)) for row in x]
    for w, kind in zip(weights, activations):
        h = _activate(_mat_mul(a_hat, _mat_mul(h, w)), kind)
    return h


def windowed_max_oracle(series, k):
    """For every window of k consecutive values, its maximum; plain loops."""
    out = []
    for end in range(k - 1, len(series)):
        best = series[end - k + 1]
        for v in series[end - k + 2:end + 1]:
            if v > best:
                best = v
        out.append(best)
    return out


def resource_dataset_oracle(workloads, forecasts, resources, nodes, k):
    """(features, targets) of autoscaler.build_resource_dataset for the given
    forecasts, one sample and node at a time: workloads and resources are
    (T, N) grids, forecasts (T-k, N) with row i the forecast for minute index
    i+k."""
    t_total = len(workloads)
    count = t_total - k
    x = np.empty((count, len(nodes), k))
    y = np.empty((count, len(nodes), 1))
    for s, t in enumerate(range(k - 1, t_total - 1)):
        for ni, name in enumerate(nodes):
            past = workloads[t - k + 2:t + 1, ni]
            ahead = forecasts[t + 1 - k, ni]
            if not np.isfinite(ahead):
                raise ValidationError(f"forecast for {name!r} at minute index {t + 1} is not finite")
            x[s, ni, :k - 1] = past
            x[s, ni, k - 1] = ahead
            y[s, ni, 0] = np.max(resources[t - k + 2:t + 2, ni])
    return x, y


PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def normal_after_output(r: int, max_reads: int = 64) -> tuple[float, int]:
    """Generator.normal() of a PCG64 generator whose next 64-bit output is r,
    and how many 64-bit outputs that draw read.

    With increment 1, a state S steps to S * MULT + 1; when that new state has
    a zero high word, XSL-RR outputs its low word unrotated. So the state
    (r - 1) * MULT**-1 mod 2**128 outputs r next.
    """
    bit_gen = np.random.PCG64(0)
    state = (r - 1) * pow(PCG64_MULT, -1, 2 ** 128) % 2 ** 128
    bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": 1},
                     "has_uint32": 0, "uinteger": 0}
    z = np.random.Generator(bit_gen).normal()
    end, state, reads = bit_gen.state["state"]["state"], r, 1
    while state != end:
        if reads == max_reads:
            raise AssertionError(f"normal after output {r:#x} read over {max_reads} outputs")
        state, reads = (state * PCG64_MULT + 1) % 2 ** 128, reads + 1
    return z, reads


def fresh_normals_oracle(seeds) -> np.ndarray:
    """Rng(s).normal() of a freshly seeded generator for every seed s."""
    return np.array([Rng(int(s)).normal() for s in seeds], dtype=np.float64)


def write_rows_oracle(path, columns, records) -> None:
    """A header and one csv.writer line per record, ended by "\n": floats as
    repr, bools as 0/1. Each line is written with the "\r\n" terminator,
    which makes csv.writer quote a "\r" as well, and that terminator is then
    replaced."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in [columns, *records]:
            line = io.StringIO()
            csv.writer(line, lineterminator="\r\n").writerow(
                [repr(v) if type(v) is float else int(v) if type(v) is bool else v for v in r])
            fh.write(line.getvalue()[:-2] + "\n")


def load_trace_oracle(path, resolution: int = 1) -> WorkloadTrace:
    """Parse a `minute,requests` CSV line by line with int()."""
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
        if count > 2 ** 53:
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


def save_trace_oracle(trace: WorkloadTrace, path) -> None:
    """The trace as a `minute,requests` CSV, one f-string per row, LF endings."""
    rows = [HEADER]
    rows.extend(f"{trace.start_minute + i * trace.resolution},{c}"
                for i, c in enumerate(trace.counts))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")


def rescaled_counts_oracle(counts, target_peak: float) -> tuple[int, ...]:
    """Each count times target_peak / max(counts), round()ed."""
    factor = target_peak / max(counts)
    return tuple(int(round(c * factor)) for c in counts)


def synthetic_counts_oracle(pattern: str, length: int, amplitude: float, seed: int,
                            base: float = 100.0, period: float | None = None,
                            noise: float = 0.0, resolution: int = 1) -> tuple[int, ...]:
    """generate_synthetic_trace's counts, max(0, round(v)) of each level, with
    only its checks on pattern, length, noise and a non-finite level."""
    if length < 1:
        raise ValidationError(f"length must be >= 1, got {length}")
    if pattern not in ("sine", "diurnal", "bursty"):
        raise ValidationError(f"pattern must be 'sine', 'diurnal' or 'bursty', got {pattern!r}")
    if not noise >= 0:
        raise ValidationError(f"noise must be >= 0, got {noise}")
    if period is None:
        period = 1440 if pattern == "diurnal" else 240
    rng = Rng(seed)
    t = np.arange(length, dtype=np.float64) * resolution
    with np.errstate(all="ignore"):
        if pattern == "sine":
            level = base + amplitude * np.sin(2.0 * np.pi * t / period)
        elif pattern == "diurnal":
            phase = 2.0 * np.pi * t / period
            level = base + amplitude * (0.8 * np.sin(phase) + 0.2 * np.sin(2.0 * phase))
        else:
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
    return tuple(int(max(0, round(v))) for v in level)


def interpolate_to_minutes_oracle(trace: WorkloadTrace) -> WorkloadTrace:
    """interpolate_to_minutes one bin and one minute at a time: a ramp weight
    per minute, then largest-remainder rounding of the bin's total."""

    def largest_remainder(weights, total):
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

    n = len(trace.counts)
    rates = trace.values / 5.0
    out = []
    for i, total in enumerate(trace.counts):
        prev_rate = rates[i - 1] if i > 0 else rates[i]
        next_rate = rates[i + 1] if i < n - 1 else rates[i]
        weights = np.empty(5, dtype=np.float64)
        for j in range(5):
            offset = j - 2
            if offset < 0:
                weights[j] = rates[i] + (rates[i] - prev_rate) * offset / 5.0
            elif offset > 0:
                weights[j] = rates[i] + (next_rate - rates[i]) * offset / 5.0
            else:
                weights[j] = rates[i]
        weights = np.maximum(weights, 0.0)
        out.extend(int(x) for x in largest_remainder(weights, int(total)))
    return WorkloadTrace(resolution=1, start_minute=trace.start_minute, counts=tuple(out))


def propagate_minute_oracle(demand, external_rps, minute, seed):
    """One minute of DemandModel propagation in Python floats.

    Each internal service's inbound rate is scaled by a lognormal factor whose
    normal comes from Rng(mix_seed(seed, minute, service index)), a generator
    seeded for that minute and service alone.
    """
    rates = {s: 0.0 for s in demand.services}
    rates[demand.entry] = float(external_rps)
    sigma = demand.noise_sigma
    for u in demand._topo:
        if sigma > 0 and u != demand.entry:
            z = Rng(mix_seed(seed, minute, demand.services.index(u))).normal()
            rates[u] *= math.exp(sigma * z - 0.5 * sigma * sigma)
        for v, mult in demand.fan_out.get(u, {}).items():
            rates[v] += rates[u] * mult
    return rates


def size_pods_oracle(predicted, bounds):
    """(allocation, pods) for one service's predicted vCPU demand: the
    prediction clamped to [r_lb, r_ub], and the whole pods that cover it,
    from 1 to max_pods."""
    allocation = min(max(predicted, bounds.r_lb), bounds.r_ub)
    return allocation, min(max(math.ceil(allocation / bounds.pod_capacity), 1), bounds.max_pods)


class DecisionRow(NamedTuple):
    minute: int
    service: str
    forecast_rps: float
    predicted_vcpu: float
    r_new: float
    n_prev: int
    n_new: int
    delta: int


class PerMinutePredictivePolicy(ScalingPolicy):
    """The predictive policy with one predict_demand call per minute on the
    last k rates, instead of one batched call over the run, and one
    size_pods_oracle call per service. Keeps the rate grid begin hands it and
    reads each minute's window from it; logs one DecisionRow per (minute,
    service) in rows."""

    name = "phpa"

    def __init__(self, lstm, gcn_model, bounds):
        self.lstm = lstm
        self.gcn_model = gcn_model
        self.bounds = bounds
        self.rows = []

    def begin(self, start_minute, services, rates):
        self._start_minute, self._rates = start_minute, rates
        self.rows = []

    def decide(self, minute, utilization, pods):
        k = self.lstm.config.window
        end = minute - self._start_minute + 1
        forecasts, demand = predict_demand(self.lstm, self.gcn_model, self._rates[end - k:end])
        targets = []
        for s, f, d, n in zip(self.gcn_model.graph.nodes, forecasts[0].tolist(),
                              demand[0].tolist(), pods):
            r_new, n_new = size_pods_oracle(d, self.bounds[s])
            self.rows.append(DecisionRow(minute, s, f, d, r_new, n, n_new, n_new - n))
            targets.append(n_new)
        return targets


def decision_rows(log):
    """A log's decision grids as one DecisionRow per (minute, service), minute-major."""
    d = log.decisions
    columns = [g.tolist() for g in (d.forecast_rps, d.predicted_vcpu, d.r_new, d.n_prev,
                                    d.n_new)]
    return [DecisionRow(d.start_minute + i, s, *(c[i][j] for c in columns),
                        columns[4][i][j] - columns[3][i][j])
            for i in range(len(d)) for j, s in enumerate(log.services)]


def decision_log_from_rows(rows, services) -> DecisionLog:
    """Decision grids from minute-major rows covering every (minute, service)."""
    width = len(services)
    assert len(rows) % width == 0
    start = rows[0].minute if rows else 0
    for i, r in enumerate(rows):
        assert (r.minute, r.service) == (start + i // width, services[i % width])
        assert r.delta == r.n_new - r.n_prev

    def grid(name, dtype):
        return np.array([getattr(r, name) for r in rows], dtype=dtype).reshape(-1, width)

    floats = {name: grid(name, np.float64)
              for name in ("forecast_rps", "predicted_vcpu", "r_new")}
    return DecisionLog(start_minute=start, n_prev=grid("n_prev", np.int64),
                       n_new=grid("n_new", np.int64), **floats)


def write_decision_rows_oracle(path, rows) -> None:
    """decisions.csv from one DecisionRow per (minute, service), as the
    package wrote it from rows: one %-template per row (%r is a float's
    repr), each service name as csv.writer writes it with the "\r\n"
    terminator, which quotes a "\r" too."""
    def field(name):
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow([name, ""])
        return line.getvalue()[:-3]

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(DECISION_COLUMNS) + "\n")
        for minute, service, *values in rows:
            fh.write("%d,%s,%r,%r,%r,%d,%d,%d\n" % (minute, field(service), *values))


class ReactiveRuleOracle(ScalingPolicy):
    """The threshold rule as the package wrote it: a new list of targets
    built service by service, one pod out on breach (up to max_pods), one
    pod in after stabilization_minutes calm minutes in a row (down to one)."""

    def __init__(self, config, bounds):
        self.config = config
        self.bounds = bounds
        self.name = f"reactive@{config.scale_out:g}"

    def begin(self, start_minute, services, rates):
        self._max_pods = [self.bounds[s].max_pods for s in services]
        self._below = [0] * len(services)

    def decide(self, minute, utilization, pods):
        config, below = self.config, self._below
        targets = []
        for j, (util, n) in enumerate(zip(utilization, pods, strict=True)):
            if util > config.scale_out:
                n = min(n + 1, self._max_pods[j])
                below[j] = 0
            elif util < config.scale_in:
                below[j] += 1
                if below[j] >= config.stabilization_minutes and n > 1:
                    n -= 1
                    below[j] = 0
            else:
                below[j] = 0
            targets.append(n)
        return targets


def run_simulation_oracle(trace, demand, policy, bounds, sim, *, warmup=0):
    """run_simulation's minute loop as the package wrote it, one minute at a
    time over Python lists: matured pending changes land first (clipped to
    [1, max_pods]), then the minute's utilization is read, then, after
    warmup, every service's target is granted in service order within the
    cluster budget, additions ready startup_delay minutes later and removals
    the next minute. Shares the demand grids, the opening sizing and the log
    type with the package; arbitrates the loop."""
    external = trace.values
    services = demand.services
    pods = list(initial_pod_counts(demand, float(external[0]), bounds).values())
    rps, usage = demand.demand_series(external, trace.start_minute, sim.seed)
    policy.begin(trace.start_minute, services, rps)
    capacity = [bounds[s].pod_capacity for s in services]
    max_pods = [bounds[s].max_pods for s in services]
    usage_rows = usage.tolist()
    pod_rows, util_rows, delta_rows = [], [], []
    pending = {}  # ready minute -> [(column, delta)]
    planned = list(pods)
    for i, row in enumerate(usage_rows):
        minute = trace.start_minute + i
        for j, delta in pending.pop(minute, []):
            n = min(max(pods[j] + delta, 1), max_pods[j])
            planned[j] += n - pods[j] - max(delta, 0)
            pods[j] = n
        utils = [u / (n * c) for u, n, c in zip(row, pods, capacity)]
        deltas = [0] * len(services)
        pod_rows.append(list(pods))
        util_rows.append(utils)
        delta_rows.append(deltas)
        if i < warmup:
            continue
        targets = policy.decide(minute, utils, planned)
        budget = sim.max_total_pods - sum(planned)
        for j, (target, n) in enumerate(zip(targets, planned, strict=True)):
            want = target - n
            if want > 0:
                grant = min(want, budget)
                budget -= grant
                if grant > 0:
                    pending.setdefault(minute + sim.startup_delay, []).append((j, grant))
                    planned[j] += grant
                    deltas[j] = grant
            elif want < 0:
                pending.setdefault(minute + 1, []).append((j, want))
                deltas[j] = want

    def grid(rows, dtype):
        return np.array(rows, dtype=dtype).reshape(len(usage_rows), len(services))

    return SimulationLog(policy_name=policy.name, seed=sim.seed,
                         trace_sha256=trace_digest(trace), start_minute=trace.start_minute,
                         services=services, external=external, service_rps=rps,
                         pods=grid(pod_rows, np.int64), utilization=grid(util_rows, np.float64),
                         decision_delta=grid(delta_rows, np.int64), decisions=policy.decisions)


class SimRow(NamedTuple):
    minute: int
    service: str
    external_rps: float
    service_rps: float
    pods: int
    utilization: float
    overloaded: bool
    policy: str
    decision_delta: int


def log_rows(log):
    """A column log as one SimRow per (minute, service), minute-major like sim.csv."""
    columns = (log.service_rps.tolist(), log.pods.tolist(), log.utilization.tolist(),
               log.decision_delta.tolist())
    return [SimRow(log.start_minute + i, s, x, rps[j], pods[j], util[j], util[j] > 1.0,
                   log.policy_name, delta[j])
            for i, (x, rps, pods, util, delta) in enumerate(zip(log.external.tolist(),
                                                                *columns))
            for j, s in enumerate(log.services)]


def log_from_rows(rows, *, policy_name, services, start_minute, seed=1, trace_sha256="x",
                  decisions=None):
    """A column log from minute-major rows covering every (minute, service)."""
    width = len(services)
    shape = (len(rows) // width, width)
    assert len(rows) == shape[0] * width
    for i, r in enumerate(rows):
        assert (r.minute, r.service) == (start_minute + i // width, services[i % width])
        assert r.overloaded == (r.utilization > 1.0)

    def grid(name):
        return np.array([getattr(r, name) for r in rows]).reshape(shape)

    return SimulationLog(policy_name=policy_name, seed=seed, trace_sha256=trace_sha256,
                         start_minute=start_minute, services=services,
                         external=np.array([r.external_rps for r in rows[::width]]),
                         service_rps=grid("service_rps"), pods=grid("pods"),
                         utilization=grid("utilization"),
                         decision_delta=grid("decision_delta"), decisions=decisions)


def summary_oracle(log):
    """SimulationLog.summary computed by filtering the rows once per service."""
    rows = log_rows(log)
    per_service = {}
    for s in log.services:
        mine = [r for r in rows if r.service == s]
        utils = [r.utilization for r in mine]
        per_service[s] = {
            "pod_minutes": sum(r.pods for r in mine),
            "overload_minutes": sum(1 for r in mine if r.overloaded),
            "mean_utilization": sum(utils) / len(utils) if utils else 0.0,
            "max_utilization": max(utils) if utils else 0.0,
        }
    totals = {}
    for r in rows:
        totals[r.minute] = totals.get(r.minute, 0) + r.pods
    return {
        "policy": log.policy_name, "seed": log.seed, "trace_sha256": log.trace_sha256,
        "start_minute": log.start_minute, "horizon": log.horizon,
        "service_order": list(log.services), "services": per_service,
        "totals": {"pod_minutes": sum(r.pods for r in rows),
                   "overload_minutes": sum(1 for r in rows if r.overloaded),
                   "peak_total_pods": max(totals.values()) if totals else 0},
    }


def mean_utilization_oracle(log):
    """comparison_table's mean over every row, summed in file order."""
    utils = [r.utilization for r in log_rows(log)]
    return sum(utils) / len(utils) if utils else 0.0


def pods_chart_svg_oracle(logs, service, every_minute=False):
    """The pods chart drawn point by point from each log's rows for the
    service, with "&", "<" and ">" in names written as entities. A polyline
    goes through its corners: the first row, the old level and then the new
    one at each row whose pods differ from the row before, and the last row
    once. every_minute draws a point at every other row too, the chart's
    earlier form, kept to check that the corners draw its picture."""

    def text(name):
        return name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    series = [(log.policy_name, [(r.minute, r.pods) for r in log_rows(log)
                                 if r.service == service]) for log in logs]
    width, height = 960, 320
    left, right, top, bottom = 60, 20, 36, 44
    plot_w, plot_h = width - left - right, height - top - bottom
    minutes = [m for _, pts in series for m, _ in pts]
    pods = [p for _, pts in series for _, p in pts]
    m_lo, m_hi = min(minutes), max(minutes)
    p_hi = max(pods) + 1
    m_span = max(m_hi - m_lo, 1)

    def sx(m):
        return left + (m - m_lo) / m_span * plot_w

    def sy(p):
        return top + (1.0 - p / p_hi) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="20" font-family="sans-serif" font-size="14">'
        f'pods over time: {text(service)}</text>',
    ]
    for tick in range(0, p_hi + 1, max(1, p_hi // 6)):
        y = sy(tick)
        parts.append(f'<line x1="{left}" y1="{y:.2f}" x2="{width - right}" y2="{y:.2f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.2f}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="end">{tick}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        m = m_lo + frac * m_span
        parts.append(f'<text x="{sx(m):.2f}" y="{height - bottom + 18}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle">{int(round(m))}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.2f}" y="{height - 8}" '
                 f'font-family="sans-serif" font-size="12" text-anchor="middle">minute</text>')
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
    for i, (name, pts) in enumerate(series):
        color = palette[i % len(palette)]
        coords = []
        prev_p = None
        for k, (m, p) in enumerate(pts):
            if prev_p is not None and p != prev_p:
                coords.append(f"{sx(m):.2f},{sy(prev_p):.2f}")
                coords.append(f"{sx(m):.2f},{sy(p):.2f}")
            elif every_minute or k in (0, len(pts) - 1):
                coords.append(f"{sx(m):.2f},{sy(p):.2f}")
            prev_p = p
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{" ".join(coords)}"/>')
        lx = left + 10 + i * 180
        parts.append(f'<line x1="{lx}" y1="{top - 6}" x2="{lx + 22}" y2="{top - 6}" '
                     f'stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{lx + 28}" y="{top - 2}" font-family="sans-serif" '
                     f'font-size="12">{text(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_POINTS = re.compile(r'points="([^"]*)"')


def assert_same_picture(svg, reference):
    """svg draws reference's picture: the same text outside the polylines,
    and each polyline's points an ordered subsequence of the reference's with
    its first and last point, every point it drops lying on a horizontal run
    between two it keeps."""
    assert _POINTS.sub("", svg) == _POINTS.sub("", reference)
    for kept, full in zip(_POINTS.findall(svg), _POINTS.findall(reference)):
        kept, full = kept.split(), full.split()
        assert (kept[0], kept[-1]) == (full[0], full[-1])
        j = 0
        for point in full:
            if j < len(kept) and point == kept[j]:
                j += 1
                continue
            assert 0 < j < len(kept), f"{point} lies outside the kept points"
            y = point.split(",")[1]
            assert kept[j - 1].split(",")[1] == y == kept[j].split(",")[1], \
                f"{point} is off the run from {kept[j - 1]} to {kept[j]}"
        assert j == len(kept), f"{kept[j:]} are not among the reference's points"


def lstm_forward_scaled_oracle(params, x_seq, keep_cache=False):
    """Run the recurrence on scaled windows (batch, k); returns (yhat, cache).

    params is the LstmModel.params list; the recurrence runs in its dtype, to
    which x_seq is cast. Sequences are time-major. With keep_cache the cache
    holds the input sequence (k, batch, 1), the hidden and cell states h, c
    (k+1, batch, H) with the zero initial state at index 0, and the activated
    gates (k, batch, 4H).
    """
    w_x, w_h, b, head_w, head_b = params
    dtype = w_x.dtype
    batch, k = x_seq.shape
    x = np.asarray(x_seq, dtype=dtype).T[:, :, None]  # (k, batch, 1)
    hidden = w_h.shape[0]
    h = np.zeros((k + 1, batch, hidden), dtype=dtype)
    c = np.zeros((batch, hidden), dtype=dtype)
    cells, gates = [c], []
    for t in range(k):
        a = x[t] @ w_x
        a += h[t] @ w_h
        a += b
        a[:, :3 * hidden] = _sigmoid_array(a[:, :3 * hidden])
        np.tanh(a[:, 3 * hidden:], out=a[:, 3 * hidden:])
        gi, gf, go, gg = a.reshape(batch, 4, hidden).swapaxes(0, 1)
        c = gf * c + gi * gg
        h[t + 1] = go * np.tanh(c)
        if keep_cache:
            cells.append(c)
            gates.append(a)
    cache = (x, h, np.stack(cells), np.stack(gates)) if keep_cache else None
    yhat = np.tanh(h[-1] @ head_w + head_b)[:, 0]
    return yhat, cache


def lstm_loss_and_grads_oracle(params, x_seq, targets):
    """Mean squared error over the batch plus one gradient per entry of params,
    in the dtype of params, to which the windows and targets are cast."""
    w_x, w_h, _, head_w, _ = params
    dtype = w_x.dtype
    batch, k = x_seq.shape
    yhat, (x, h, c, gates) = lstm_forward_scaled_oracle(params, x_seq, keep_cache=True)
    err = yhat - np.asarray(targets, dtype=dtype)
    loss = float(np.mean(err ** 2))

    dz = (2.0 * err / batch * (1.0 - yhat ** 2))[:, None]  # (batch, 1)
    dh_above = np.zeros((k, batch, head_w.shape[0]), dtype=dtype)
    dh_above[-1] = dz @ head_w.T

    gi, gf, go, gg = np.moveaxis(gates.reshape(k, batch, 4, -1), 2, 0)
    tanh_c = np.tanh(c[1:])
    dc_dh = go * (1.0 - tanh_c ** 2)
    local = np.concatenate([gg * gi * (1.0 - gi), c[:-1] * gf * (1.0 - gf),
                            tanh_c * go * (1.0 - go), gi * (1.0 - gg ** 2)], axis=2)
    da = np.empty_like(gates)
    dh_carry = np.zeros((batch, w_h.shape[0]), dtype=dtype)
    dc_carry = np.zeros((batch, w_h.shape[0]), dtype=dtype)
    for t in range(k - 1, -1, -1):
        dh = dh_above[t] + dh_carry
        dc = dc_carry + dh * dc_dh[t]
        np.multiply(np.concatenate([dc, dc, dh, dc], axis=1), local[t], out=da[t])
        dc_carry = dc * gf[t]
        dh_carry = da[t] @ w_h.T
    return loss, [np.tensordot(x, da, axes=([0, 1], [0, 1])),
                  np.tensordot(h[:-1], da, axes=([0, 1], [0, 1])),
                  da.sum(axis=(0, 1)), h[-1].T @ dz, dz.sum(axis=0)]


def adam_step_oracle(param, grad, state):
    """One bias-corrected Adam update; returns a new parameter and a new state."""
    beta1, beta2, epsilon = 0.9, 0.999, 1e-8
    t = state.step + 1
    m = beta1 * state.first_moment + (1.0 - beta1) * grad
    v = beta2 * state.second_moment + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    new_param = param - state.learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
    return new_param, AdamState(m, v, t, state.learning_rate)


def train_lstm_oracle(train, config, dtype=np.float64):
    """The training loop over the oracle kernel in dtype; returns (params,
    history), history being the training MSE of every epoch."""
    x_train, y_train = (np.asarray(a, dtype=np.float64) for a in train)
    scaler = MinMaxScaler.fit(y_train)
    xs, ys = (scaler.transform(a).astype(dtype) for a in (x_train, y_train))
    rng = Rng(config.seed)
    params = [p.astype(dtype) for p in _init_params(config, rng)]
    states = [AdamState.fresh(p, config.learning_rate) for p in params]
    shuffle_rng = rng.child(1)
    n = len(xs)
    history = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, grads = lstm_loss_and_grads_oracle(params, xs[idx], ys[idx])
            sq_sum += loss * len(idx)
            for li in range(len(params)):
                params[li], states[li] = adam_step_oracle(params[li], grads[li], states[li])
        history.append(sq_sum / n)
    return params, history


def gcn_forward_scaled_oracle(weights, activations, a_hat, z, keep_cache=False):
    """Propagate scaled features (batch, N, D) through every layer, per sample."""
    h = z
    cache = [] if keep_cache else None
    for w, kind in zip(weights, activations):
        agg = np.matmul(a_hat, h)
        pre = agg @ w
        if keep_cache:
            cache.append({"agg": agg, "pre": pre, "kind": kind})
        h = _activate_array(pre, kind)
    return h, cache


def gcn_loss_and_grads_oracle(weights, activations, a_hat, z, targets):
    """Batch MSE over all node outputs plus per-weight einsum gradients."""
    out, cache = gcn_forward_scaled_oracle(weights, activations, a_hat, z, keep_cache=True)
    err = out - targets
    denom = err.size
    loss = float(np.mean(err ** 2))

    d_out = 2.0 * err / denom
    grads = [None] * len(weights)
    for li in range(len(weights) - 1, -1, -1):
        entry = cache[li]
        if entry["kind"] == "relu":
            d_pre = d_out * (entry["pre"] > 0)
        else:
            d_pre = d_out
        grads[li] = np.einsum("bnd,bno->do", entry["agg"], d_pre)
        if li:
            d_out = np.matmul(a_hat, d_pre @ weights[li].T)
    return loss, grads


def train_gcn_oracle(train, graph, config):
    """The GCN training loop over the oracle kernel, one Adam step per weight
    matrix; returns (weights, history), history being the training MSE of
    every epoch."""
    x_train, y_train = (np.asarray(a, dtype=np.float64) for a in train)
    feature_scaler = MinMaxScaler.fit(x_train, out_lo=0.0, out_hi=1.0)
    target_scalers = tuple(MinMaxScaler.fit(y_train[:, ni, :], out_lo=0.0, out_hi=1.0)
                           for ni in range(graph.size))
    xs = feature_scaler.transform(x_train)
    ys = scale_targets(target_scalers, y_train)
    rng = Rng(config.seed)
    widths = config.widths(x_train.shape[2])
    weights = [glorot_init(widths[i], widths[i + 1], rng) for i in range(len(widths) - 1)]
    states = [AdamState.fresh(w, config.learning_rate) for w in weights]
    shuffle_rng = rng.child(1)
    n = len(xs)
    history = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, grads = gcn_loss_and_grads_oracle(
                weights, gcn_activations(config.hidden), graph.a_hat, xs[idx], ys[idx])
            sq_sum += loss * len(idx)
            for li in range(len(weights)):
                weights[li], states[li] = adam_step_oracle(weights[li], grads[li], states[li])
        history.append(sq_sum / n)
    return weights, history
