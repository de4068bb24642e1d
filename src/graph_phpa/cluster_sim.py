"""Minute-resolution simulator of a small microservice cluster.

External requests enter at one front service and cascade along directed
fan-out edges; each service burns a fixed vCPU cost per request. Pod counts
move either reactively (threshold autoscaler with a stabilization window for
scale-in) or proactively (forecast plus graph predictor). New pods take a
startup delay before they serve traffic, removals land the next minute, and
the whole cluster shares a hard pod budget.

All randomness is keyed by (seed, absolute minute, service index), so the same
minute of the same trace sees identical noise regardless of warmup, policy, or
how much history was simulated before it. A window's noise is drawn in one
call (tensor.keyed_normals: each key's first PCG64 output computed with
uint64 arithmetic and numpy's ziggurat applied to a block of them at a time,
with a Generator drawing only the ~1.5% of keys its fast path rejects) and is
bit for bit what minute-by-minute draws from fresh generators would give.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from . import autoscaler
from .autoscaler import ScalingBounds, predict_demand
from .errors import ValidationError
from .forecast_lstm import LstmModel
from .predict_gcn import GcnModel, ServiceGraph
from .tensor import blocks, keyed_normals, mix_seed
from .traces import WorkloadTrace, trace_digest

SIM_COLUMNS = ("minute", "service", "external_rps", "service_rps", "pods",
               "utilization", "overloaded", "policy", "decision_delta")
GRID_COLUMNS = ("service_rps", "pods", "utilization", "decision_delta")
DECISION_COLUMNS = ("minute", "service", "forecast_rps", "predicted_vcpu",
                    "r_prev", "r_new", "n_prev", "n_new", "delta")


@dataclass(frozen=True)
class DemandModel:
    """How requests fan out between services and what each request costs.

    fan_out[u][v] is the mean number of calls to v per request handled by u;
    the edge set must be acyclic. noise_sigma adds mean-one lognormal jitter
    to every internal service's inbound rate, compounding down the chain.
    """

    services: tuple[str, ...]
    entry: str
    cpu_per_request: dict[str, float]
    fan_out: dict[str, dict[str, float]]
    noise_sigma: float = 0.0

    def __post_init__(self):
        services = tuple(self.services)
        object.__setattr__(self, "services", services)
        if len(set(services)) != len(services) or not services:
            raise ValidationError("services must be non-empty and unique")
        if self.entry not in services:
            raise ValidationError(f"entry service {self.entry!r} not in services")
        if set(self.cpu_per_request) != set(services):
            raise ValidationError("cpu_per_request must cover exactly the services")
        if any(c <= 0 for c in self.cpu_per_request.values()):
            raise ValidationError("cpu_per_request values must be positive")
        if self.noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        for u, targets in self.fan_out.items():
            if u not in services:
                raise ValidationError(f"fan_out source {u!r} not in services")
            for v, mult in targets.items():
                if v not in services:
                    raise ValidationError(f"fan_out target {v!r} not in services")
                if v == u:
                    raise ValidationError(f"fan_out self loop on {u!r}")
                if mult <= 0:
                    raise ValidationError(f"fan_out multiplier {u!r}->{v!r} must be positive")
        object.__setattr__(self, "_topo", self._toposort())

    def _toposort(self) -> tuple[str, ...]:
        indeg = {s: 0 for s in self.services}
        for targets in self.fan_out.values():
            for v in targets:
                indeg[v] += 1
        ready = [s for s in self.services if indeg[s] == 0]
        order = []
        while ready:
            u = ready.pop(0)
            order.append(u)
            for v in self.services:
                if v in self.fan_out.get(u, {}):
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        ready.append(v)
        if len(order) != len(self.services):
            raise ValidationError("fan_out graph has a cycle")
        return tuple(order)

    def demand_series(self, external, start_minute: int, seed: int,
                      with_noise: bool = True) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Whole-horizon (request rates, vCPU usage) per service, index i being
        minute start_minute + i.

        Rates flow down the fan-out edges in topological order, one array
        operation per edge. Each internal service's inbound rate at minute m is
        scaled by exp(sigma * z - sigma**2 / 2), z the normal keyed by (seed, m,
        service index), Rng(mix_seed(seed, m, index)).normal(); keyed_normals
        draws every (service, minute) z of the window in one call. The
        exponential is math.exp per element: np.exp can differ from it in the
        last bit, which would move every rate below it.
        """
        external = np.asarray(external, dtype=np.float64)
        if np.any(external < 0):
            raise ValidationError(f"external_rps must be >= 0, got "
                                  f"{float(external[external < 0][0])}")
        n = len(external)
        rates = {s: np.zeros(n) for s in self.services}
        rates[self.entry] = external.copy()
        sigma = self.noise_sigma
        noise = {}
        if with_noise and sigma > 0:
            index = np.array([i for i, s in enumerate(self.services) if s != self.entry])
            minutes = np.arange(n, dtype=np.int64) + start_minute
            z = keyed_normals(mix_seed(seed, minutes, index[:, None]))  # (services, n)
            for i, row in zip(index, z):  # each row's factors replace its normals
                exponent = (sigma * row - 0.5 * sigma * sigma).tolist()
                row[:] = np.fromiter(map(math.exp, exponent), dtype=np.float64, count=n)
                noise[self.services[i]] = row
        for u in self._topo:
            if u in noise:
                rates[u] *= noise[u]
            for v, mult in self.fan_out.get(u, {}).items():
                rates[v] += rates[u] * mult
        usage = {s: rates[s] * self.cpu_per_request[s] for s in self.services}
        return rates, usage


def initial_pod_counts(demand: DemandModel, first_external: float,
                       bounds: Mapping[str, ScalingBounds]) -> dict[str, int]:
    """Noise-free sizing for minute zero, shared by every policy.

    Usage is clamped into the per-service resource band first, so a service
    whose guaranteed floor exceeds its opening demand starts at the floor.
    """
    _, usage = demand.demand_series([first_external], 0, 0, with_noise=False)
    counts = {}
    for s in demand.services:
        b = bounds[s]
        clamped = min(max(float(usage[s][0]), b.r_lb), b.r_ub)
        counts[s] = min(max(math.ceil(clamped / b.pod_capacity), 1), b.max_pods)
    return counts


@dataclass(frozen=True)
class HpaConfig:
    scale_out: float = 0.9
    scale_in: float = 0.3
    stabilization_minutes: int = 5

    def __post_init__(self):
        if not 0 < self.scale_in < self.scale_out:
            raise ValidationError(f"need 0 < scale_in < scale_out, got "
                                  f"{self.scale_in} / {self.scale_out}")
        if self.stabilization_minutes < 1:
            raise ValidationError("stabilization_minutes must be >= 1")


class ScalingPolicy(ABC):
    """Produces target pod counts once per minute from current observations."""

    name: str = "policy"

    def begin(self, start_minute: int, rates: Mapping[str, np.ndarray]) -> None:
        """Reset per-run state before the first minute.

        rates holds each service's request rates over the whole run, index i
        being minute start_minute + i; they never depend on the pods, so a
        policy may compute everything it needs from them up front.
        """

    @abstractmethod
    def decide(self, minute: int, utilization: Mapping[str, float], pods: Mapping[str, int]
               ) -> tuple[dict[str, int], list["DecisionRow"]]:
        ...


class ReactivePolicy(ScalingPolicy):
    """Threshold autoscaler: one pod out on breach, one pod in after a calm window."""

    def __init__(self, config: HpaConfig, bounds: Mapping[str, ScalingBounds]):
        self.config = config
        self.bounds = bounds
        self.name = f"reactive@{config.scale_out:g}"
        self._below: dict[str, int] = {}

    def begin(self, start_minute, rates):
        self._below = {s: 0 for s in rates}

    def decide(self, minute, utilization, pods):
        targets = {}
        for s, util in utilization.items():
            n = pods[s]
            if util > self.config.scale_out:
                targets[s] = min(n + 1, self.bounds[s].max_pods)
                self._below[s] = 0
            elif util < self.config.scale_in:
                self._below[s] += 1
                if self._below[s] >= self.config.stabilization_minutes and n > 1:
                    targets[s] = n - 1
                    self._below[s] = 0
                else:
                    targets[s] = n
            else:
                self._below[s] = 0
                targets[s] = n
        return targets, []


class PredictivePolicy(ScalingPolicy):
    """Forecast next-minute workload, predict demand on the graph, size pods ahead.

    Every forecast and demand prediction of a run comes from one batched
    predict_demand call in begin; decide reads its minute's row. Carries the
    clamped prediction forward as its allocation state; each decision moves
    the pod count by the change in that state, so a steady prediction leaves
    the count alone. The state is seeded from the first prediction (no pod
    move on the first decision) rather than from pods times capacity, which
    would manufacture a phantom change whenever the starting allocation is
    not exactly the predicted demand.
    """

    name = "phpa"

    def __init__(self, lstm_models: Mapping[str, LstmModel], gcn_model: GcnModel,
                 graph: ServiceGraph, bounds: Mapping[str, ScalingBounds]):
        self.lstm_models = dict(lstm_models)
        self.gcn_model = gcn_model
        self.graph = graph
        self.bounds = bounds
        self._r: dict[str, float] | None = None
        self._first_minute = 0
        self._forecasts: list[list[float]] = []
        self._demand: list[list[float]] = []

    def begin(self, start_minute, rates):
        forecasts, demand = predict_demand(self.lstm_models, self.gcn_model, self.graph,
                                           rates)
        # Row j is predicted at the minute that ends the j-th k-window.
        self._first_minute = start_minute + self.gcn_model.config.window - 1
        self._forecasts, self._demand = forecasts.tolist(), demand.tolist()
        self._r = None

    def decide(self, minute, utilization, pods):
        row = minute - self._first_minute
        if not 0 <= row < len(self._demand):
            raise ValidationError(f"no prediction for minute {minute}: begin covered "
                                  f"{len(self._demand)} minutes from {self._first_minute}")
        nodes = self.graph.nodes
        demand = dict(zip(nodes, self._demand[row]))
        if self._r is None:
            self._r = {s: min(max(demand[s], self.bounds[s].r_lb), self.bounds[s].r_ub)
                       for s in nodes}
        # Looked up on its module, so a patched autoscaler.integrate_step (as
        # perfbench's tracing installs) sees the policy's calls.
        decisions = autoscaler.integrate_step(self._r, pods, demand, self.bounds)
        self._r = {s: d.r_new for s, d in decisions.items()}
        targets = {s: d.n_new for s, d in decisions.items()}
        records = [DecisionRow(minute=minute, service=s, forecast_rps=forecast,
                               predicted_vcpu=demand[s], r_prev=d.r_prev, r_new=d.r_new,
                               n_prev=d.n_prev, n_new=d.n_new, delta=d.delta)
                   for (s, d), forecast in zip(decisions.items(), self._forecasts[row])]
        return targets, records


class DecisionRow(NamedTuple):
    minute: int
    service: str
    forecast_rps: float
    predicted_vcpu: float
    r_prev: float
    r_new: float
    n_prev: int
    n_new: int
    delta: int


class _CsvFields(dict):
    """Text -> the field csv.writer would write for it, worked out once per text.
    The "\r\n" terminator makes it quote a "\r" too, so every name reads back."""

    def __missing__(self, text: str) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow([text, ""])
        self[text] = field_ = buf.getvalue()[:-3]
        return field_


@dataclass
class SimulationLog:
    """One replay held as (minute x service) columns: row i of each (T, S) array
    is minute start_minute + i, column j is services[j]."""

    policy_name: str
    seed: int
    trace_sha256: str
    start_minute: int
    services: tuple[str, ...]
    external: np.ndarray        # (T,) float64 external requests per second
    service_rps: np.ndarray     # (T, S) float64
    pods: np.ndarray            # (T, S) int64 ready pods
    utilization: np.ndarray     # (T, S) float64; above 1.0 is an overloaded minute
    decision_delta: np.ndarray  # (T, S) int64 pods granted (+) or released (-)
    decisions: list[DecisionRow] = field(default_factory=list)

    @property
    def horizon(self) -> int:
        return len(self.external)

    @property
    def overloaded(self) -> np.ndarray:
        return self.utilization > 1.0

    def _column(self, values: np.ndarray, service: str | None) -> np.ndarray:
        return values if service is None else values[:, self.services.index(service)]

    def pod_minutes(self, service: str | None = None) -> int:
        return int(self._column(self.pods, service).sum())

    def overload_minutes(self, service: str | None = None) -> int:
        return int(np.count_nonzero(self._column(self.overloaded, service)))

    def mean_utilization(self, service: str | None = None) -> float:
        # Python's left-to-right sum in file (minute-major) order: np.sum's
        # pairwise summation would move the last bits.
        utils = self._column(self.utilization, service).ravel().tolist()
        return sum(utils) / len(utils) if utils else 0.0

    def peak_total_pods(self) -> int:
        return int(self.pods.sum(axis=1).max()) if self.horizon else 0

    def summary(self) -> dict:
        per_service = {s: {"pod_minutes": self.pod_minutes(s),
                           "overload_minutes": self.overload_minutes(s),
                           "mean_utilization": self.mean_utilization(s),
                           "max_utilization": max(self._column(self.utilization, s).tolist(),
                                                  default=0.0)}
                       for s in self.services}
        return {
            "policy": self.policy_name,
            "seed": self.seed,
            "trace_sha256": self.trace_sha256,
            "start_minute": self.start_minute,
            "horizon": self.horizon,
            "service_order": list(self.services),
            "services": per_service,
            "totals": {
                "pod_minutes": self.pod_minutes(),
                "overload_minutes": self.overload_minutes(),
                "peak_total_pods": self.peak_total_pods(),
            },
        }

    def write_csv(self, path: str | Path) -> None:
        text = _CsvFields()
        services = [text[s] for s in self.services]
        policy = text[self.policy_name]
        width = len(services)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(SIM_COLUMNS) + "\n")
            for lo, hi in blocks(self.horizon):
                # Floats go through .tolist() so repr sees Python floats; each
                # minute's external rate is formatted once for all its services.
                # Flat lists keep the cyclic garbage collector out: they are one
                # object each.
                cells = zip(itertools.cycle(services), self.service_rps[lo:hi].ravel().tolist(),
                            self.pods[lo:hi].ravel().tolist(),
                            self.utilization[lo:hi].ravel().tolist(),
                            self.decision_delta[lo:hi].ravel().tolist())
                for minute, external in zip(itertools.count(self.start_minute + lo),
                                            map(repr, self.external[lo:hi].tolist())):
                    fh.write("".join(f"{minute},{service},{external},{r!r},{n},{u!r},"
                                     f"{u > 1.0:d},{policy},{d}\n"
                                     for service, r, n, u, d in itertools.islice(cells, width)))

    def write_decisions_csv(self, path: str | Path) -> None:
        text = _CsvFields()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(DECISION_COLUMNS) + "\n")
            fh.writelines(f"{minute},{text[service]},{forecast!r},{vcpu!r},{r_prev!r},"
                          f"{r_new!r},{n_prev},{n_new},{delta}\n"
                          for minute, service, forecast, vcpu, r_prev, r_new, n_prev,
                          n_new, delta in self.decisions)


def run_simulation(trace: WorkloadTrace, demand: DemandModel, policy: ScalingPolicy,
                   bounds: Mapping[str, ScalingBounds], *, seed: int, warmup: int = 0,
                   startup_delay: int = 1, max_total_pods: int = 79) -> SimulationLog:
    """Drive the cluster over a minute trace under one scaling policy.

    Decisions made at minute m schedule pod additions to become ready at
    m + startup_delay and removals at m + 1. No decisions are taken during the
    first warmup minutes. Every service starts at its initial_pod_counts. The
    cluster-wide pod budget is enforced when additions are scheduled, counting
    pods already pending.
    """
    if trace.resolution != 1:
        raise ValidationError(f"simulation needs a 1-minute trace, got resolution "
                              f"{trace.resolution}")
    if set(bounds) != set(demand.services):
        raise ValidationError("bounds keys must match demand services")
    if startup_delay < 1:
        raise ValidationError(f"startup_delay must be >= 1, got {startup_delay}")

    external = trace.values
    pods = initial_pod_counts(demand, float(external[0]), bounds)
    if sum(pods.values()) > max_total_pods:
        raise ValidationError(f"initial pods exceed cluster budget {max_total_pods}")

    services, width = demand.services, len(demand.services)
    rps, usage = demand.demand_series(external, trace.start_minute, seed)
    policy.begin(trace.start_minute, rps)
    # Utilization is usage / (pods * capacity), above 1.0 an overload;
    # ScalingBounds already rejects a capacity <= 0, and pods are clipped to
    # >= 1 wherever they change.
    capacity = [bounds[s].pod_capacity for s in services]
    pod_grid = np.empty((len(external), width), dtype=np.int64)
    util_grid = np.empty((len(external), width))
    decision_delta = np.zeros((len(external), width), dtype=np.int64)
    decisions: list[DecisionRow] = []
    pending: dict[int, list[tuple[str, int]]] = {}  # ready minute -> (service, delta)
    pending_adds = 0

    for lo, hi in blocks(len(external)):
        # A block's cells go through flat minute-major lists: one object each,
        # so the cyclic garbage collector is not triggered by a list per minute.
        usage_cells = np.column_stack([usage[s][lo:hi] for s in services]).ravel().tolist()
        pod_cells: list[int] = []
        util_cells: list[float] = []
        for i in range(lo, hi):
            minute = trace.start_minute + i
            for s, delta in pending.pop(minute, ()):
                pods[s] = min(max(pods[s] + delta, 1), bounds[s].max_pods)
                pending_adds -= max(delta, 0)

            counts = [pods[s] for s in services]
            cell = (i - lo) * width
            utils = [u / (n * c) for u, n, c in zip(usage_cells[cell:cell + width],
                                                    counts, capacity)]
            pod_cells.extend(counts)
            util_cells.extend(utils)
            if i < warmup:
                continue
            targets, records = policy.decide(minute, dict(zip(services, utils)), pods=pods)
            decisions.extend(records)
            budget = max_total_pods - sum(counts) - pending_adds
            for j, s in enumerate(services):
                want = targets.get(s, pods[s]) - pods[s]
                if want > 0:
                    grant = min(want, budget)
                    budget -= grant
                    if grant > 0:
                        pending.setdefault(minute + startup_delay, []).append((s, grant))
                        pending_adds += grant
                        decision_delta[i, j] = grant
                elif want < 0:
                    pending.setdefault(minute + 1, []).append((s, want))
                    decision_delta[i, j] = want
        pod_grid[lo:hi].flat = pod_cells
        util_grid[lo:hi].flat = util_cells

    return SimulationLog(policy_name=policy.name, seed=seed,
                         trace_sha256=trace_digest(trace), start_minute=trace.start_minute,
                         services=services, external=external,
                         service_rps=np.column_stack([rps[s] for s in services]),
                         pods=pod_grid, utilization=util_grid,
                         decision_delta=decision_delta, decisions=decisions)
