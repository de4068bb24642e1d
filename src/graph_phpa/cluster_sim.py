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
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .autoscaler import ScalingBounds, predict_demand, size_pods
from .errors import ValidationError, check_keys
from .forecast_lstm import LstmModel
from .predict_gcn import GcnModel, ServiceGraph
from .tensor import blocks, check_seed, keyed_normals, mix_seed
from .traces import WorkloadTrace, trace_digest

SIM_COLUMNS = ("minute", "service", "external_rps", "service_rps", "pods",
               "utilization", "overloaded", "policy", "decision_delta")
GRID_COLUMNS = ("service_rps", "pods", "utilization", "decision_delta")
DECISION_COLUMNS = ("minute", "service", "forecast_rps", "predicted_vcpu",
                    "r_new", "n_prev", "n_new", "delta")


@dataclass(frozen=True)
class DemandModel:
    """How requests fan out between services and what each request costs.

    fan_out[u][v] is the mean number of calls to v per request handled by u;
    the edge set must be acyclic. noise_sigma adds mean-one lognormal jitter
    to every internal service's inbound rate, compounding down the chain.
    The services are the call graph's nodes, which an experiment config lists
    as graph.nodes, so the messages that check against them name that key.
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
            raise ValidationError(f"entry {self.entry!r} is not in graph.nodes")
        check_keys(self.cpu_per_request, "cpu_per_request, one key per service of graph.nodes",
                   required=services, allowed=services)
        for s, c in self.cpu_per_request.items():
            if c <= 0:
                raise ValidationError(f"cpu_per_request.{s} must be positive, got {c}")
        if self.noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        for u, targets in self.fan_out.items():
            if u not in services:
                raise ValidationError(f"unknown key {u!r} in fan_out: not in graph.nodes")
            for v, mult in targets.items():
                if v not in services:
                    raise ValidationError(f"unknown key {v!r} in fan_out.{u}: not in graph.nodes")
                if v == u:
                    raise ValidationError(f"fan_out.{u}.{v} is a self loop")
                if mult <= 0:
                    raise ValidationError(f"fan_out.{u}.{v} must be positive, got {mult}")
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

    def demand_series(self, external, start_minute: int, seed: int
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Whole-horizon (request rates, vCPU usage) as float64 (T, S) grids:
        row i is minute start_minute + i, column j is services[j].

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
        column = {s: j for j, s in enumerate(self.services)}
        rates = np.zeros((n, len(self.services)))
        rates[:, column[self.entry]] = external
        sigma = self.noise_sigma
        noise = {}
        if sigma > 0:
            index = np.array([j for j, s in enumerate(self.services) if s != self.entry])
            minutes = np.arange(n, dtype=np.int64) + start_minute
            z = keyed_normals(mix_seed(seed, minutes, index[:, None]))  # (services, n)
            for j, row in zip(index, z):  # each row's factors replace its normals
                exponent = (sigma * row - 0.5 * sigma * sigma).tolist()
                row[:] = np.fromiter(map(math.exp, exponent), dtype=np.float64, count=n)
                noise[self.services[j]] = row
        for u in self._topo:
            if u in noise:
                rates[:, column[u]] *= noise[u]
            for v, mult in self.fan_out.get(u, {}).items():
                rates[:, column[v]] += rates[:, column[u]] * mult
        return rates, rates * [self.cpu_per_request[s] for s in self.services]


def initial_pod_counts(demand: DemandModel, first_external: float,
                       bounds: Mapping[str, ScalingBounds]) -> dict[str, int]:
    """Noise-free sizing for minute zero, shared by every policy: the
    autoscaler's size_pods rule applied to the opening usage.

    Usage is clamped into the per-service resource band first, so a service
    whose guaranteed floor exceeds its opening demand starts at the floor.
    """
    _, usage = replace(demand, noise_sigma=0.0).demand_series([first_external], 0, 0)
    _, pods = size_pods(usage, [bounds[s] for s in demand.services])
    return dict(zip(demand.services, pods[0].tolist()))


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


@dataclass(frozen=True)
class SimConfig:
    """The propagation noise seed, a new pod's minutes to ready, and the
    cluster-wide pod budget."""

    seed: int = 0
    startup_delay: int = 1
    max_total_pods: int = 79

    def __post_init__(self):
        for name in ("startup_delay", "max_total_pods"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_seed(self.seed)


class ScalingPolicy(ABC):
    """Produces target pod counts once per minute from current observations.

    Every per-service list it takes or returns is in the order begin received
    the services."""

    name: str = "policy"
    # The run's decision log, for a policy that keeps one.
    decisions: DecisionLog | None = None

    def begin(self, start_minute: int, services: tuple[str, ...], rates: np.ndarray) -> None:
        """Reset per-run state before the first minute.

        rates is the run's (T, S) grid of request rates, row i being minute
        start_minute + i and column j services[j]; they never depend on the
        pods, so a policy may compute everything it needs from them up front.
        """

    @abstractmethod
    def decide(self, minute: int, utilization: list[float], pods: list[int]) -> list[int]:
        """Each service's target pod count for minute, from its utilization,
        which only ready pods serve, and its pods, ready or starting up. A
        target counts both."""


class ReactivePolicy(ScalingPolicy):
    """Threshold autoscaler: one pod out on breach, one pod in after a calm window."""

    def __init__(self, config: HpaConfig, bounds: Mapping[str, ScalingBounds]):
        self.config = config
        self.bounds = bounds
        self.name = f"reactive@{config.scale_out:g}"

    def begin(self, start_minute, services, rates):
        self._max_pods = [self.bounds[s].max_pods for s in services]
        self._below = [0] * len(services)  # calm minutes in a row

    def decide(self, minute, utilization, pods):
        config, below = self.config, self._below
        targets = list(pods)  # a service that does not move keeps its pods
        for j, (util, n) in enumerate(zip(utilization, pods, strict=True)):
            if util > config.scale_out:
                targets[j] = min(n + 1, self._max_pods[j])
                below[j] = 0
            elif util < config.scale_in:
                below[j] += 1
                if below[j] >= config.stabilization_minutes and n > 1:
                    targets[j] = n - 1
                    below[j] = 0
            else:
                below[j] = 0
        return targets


@dataclass
class DecisionLog:
    """A predictive run's decisions as (D, S) grids: row i is minute
    start_minute + i, column j the run's services[j]."""

    start_minute: int
    forecast_rps: np.ndarray    # (D, S) float64 forecast request rate
    predicted_vcpu: np.ndarray  # (D, S) float64 predicted demand
    r_new: np.ndarray           # (D, S) float64 allocation: the clamped prediction
    n_prev: np.ndarray          # (D, S) int64 pods, ready or starting up
    n_new: np.ndarray           # (D, S) int64 target pods

    def __len__(self) -> int:
        return len(self.n_new)


class PredictivePolicy(ScalingPolicy):
    """Forecast next-minute workload, predict demand on the graph, size pods ahead.

    Every forecast and demand prediction of a run comes from one batched
    predict_demand call in begin, and size_pods turns the whole demand grid
    into allocations and pod counts there too. decide, called once a minute in
    order, returns its minute's row of pod counts. Nothing is carried from one
    decision to the next: a minute's pods follow from its own prediction.
    """

    name = "phpa"

    def __init__(self, lstm_models: Mapping[str, LstmModel], gcn_model: GcnModel,
                 graph: ServiceGraph, bounds: Mapping[str, ScalingBounds]):
        self.lstm_models = dict(lstm_models)
        self.gcn_model = gcn_model
        self.graph = graph
        self.bounds = bounds
        self._bounds = [bounds[s] for s in graph.nodes]

    def begin(self, start_minute, services, rates):
        nodes = self.graph.nodes
        if tuple(services) != nodes:
            raise ValidationError(f"simulated services {list(services)} are not graph.nodes "
                                  f"{list(nodes)} in order")
        self._forecasts, self._demand = predict_demand(self.lstm_models, self.gcn_model,
                                                       self.graph, rates)
        # Row j is predicted at the minute that ends the j-th k-window.
        self._first_minute = start_minute + self.gcn_model.config.window - 1
        bad = np.argwhere(~np.isfinite(self._demand))
        if len(bad):
            row, j = bad[0].tolist()
            raise ValidationError(f"predicted demand for {nodes[j]!r} at minute "
                                  f"{self._first_minute + row} is not finite")
        self._allocation, self._targets = size_pods(self._demand, self._bounds)
        self._target_rows = self._targets.tolist()
        # The pods of the rows decided from _first_row on, as flat
        # minute-major cells.
        self._first_row, self._pods = 0, []

    def decide(self, minute, utilization, pods):
        row = minute - self._first_minute
        if not 0 <= row < len(self._demand):
            raise ValidationError(f"no prediction for minute {minute}: begin covered "
                                  f"{len(self._demand)} minutes from {self._first_minute}")
        if not self._pods:
            self._first_row = row
        elif row != self._first_row + len(self._pods) // len(self._bounds):
            raise ValidationError(f"decision for minute {minute} out of order: decide "
                                  f"takes one minute after another")
        self._pods.extend(pods)
        return self._target_rows[row]

    @property
    def decisions(self) -> DecisionLog:
        n_prev = np.array(self._pods, dtype=np.int64).reshape(-1, len(self._bounds))
        rows = slice(self._first_row, self._first_row + len(n_prev))
        return DecisionLog(self._first_minute + rows.start, self._forecasts[rows],
                           self._demand[rows], self._allocation[rows], n_prev,
                           self._targets[rows])


def _csv_field(text: str) -> str:
    """The field csv.writer writes for text. The "\r\n" terminator makes it
    quote a "\r" too, so every name reads back."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([text, ""])
    return buf.getvalue()[:-3]


def _fields(values: np.ndarray) -> list:
    """values' cells in order as a list: each float64 cell as the repr of its
    value, formatted once per distinct bit pattern of the array (so -0.0 and
    0.0, and NaNs of other payloads, are told apart), any other cell as its
    Python scalar."""
    if values.dtype != np.float64:
        return values.tolist()
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


def _write_grids(path: str | Path, columns: tuple[str, ...], row: str, start_minute: int,
                 services: tuple[str, ...], per_minute: list, grids: list) -> None:
    """A header line, then row % (minute, service, *fields) for every (minute,
    service) cell, minute-major, a block of minutes at a time. The fields are
    each (T,) array of per_minute, formatted once per minute, then the cell of
    each (T, S) grid, through _fields: a float is already its repr, which the
    row's %s writes as it is, and an int or bool is a Python scalar for %d."""
    names = list(map(_csv_field, services))
    width = len(names)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for lo, hi in blocks(len(grids[0])):
            fh.write("".join(map(row.__mod__, zip(
                _each_repeated(range(start_minute + lo, start_minute + hi), width),
                itertools.cycle(names),
                *(_each_repeated(_fields(x[lo:hi]), width) for x in per_minute),
                *(_fields(grid[lo:hi].ravel()) for grid in grids)))))


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
    decisions: DecisionLog | None = None  # a predictive run's, else None

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

    def _utilization_blocks(self, service: str | None):
        """The utilization cells in file (minute-major) order, as one list of
        Python floats per block of minutes."""
        utils = self._column(self.utilization, service)
        return (utils[lo:hi].ravel().tolist() for lo, hi in blocks(self.horizon))

    def mean_utilization(self, service: str | None = None) -> float:
        # Python's left-to-right sum, carried from block to block: np.sum's
        # pairwise summation would move the last bits.
        total = 0.0
        for utils in self._utilization_blocks(service):
            total = sum(utils, total)
        cells = self.utilization.size if service is None else self.horizon
        return total / cells if cells else 0.0

    def max_utilization(self, service: str | None = None) -> float:
        # Python's max, which keeps the first of equal cells and a leading NaN.
        return max(map(max, self._utilization_blocks(service)), default=0.0)

    def peak_total_pods(self) -> int:
        return int(self.pods.sum(axis=1).max()) if self.horizon else 0

    def summary(self) -> dict:
        per_service = {s: {"pod_minutes": self.pod_minutes(s),
                           "overload_minutes": self.overload_minutes(s),
                           "mean_utilization": self.mean_utilization(s),
                           "max_utilization": self.max_utilization(s)}
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
        # One %-template per row, the policy's field in it; each float field
        # comes as its repr, and %d of a bool is 0 or 1.
        row = f"%d,%s,%s,%s,%d,%s,%d,{_csv_field(self.policy_name).replace('%', '%%')},%d\n"
        _write_grids(path, SIM_COLUMNS, row, self.start_minute, self.services, [self.external],
                     [self.service_rps, self.pods, self.utilization, self.overloaded,
                      self.decision_delta])

    def write_decisions_csv(self, path: str | Path) -> None:
        log = self.decisions
        _write_grids(path, DECISION_COLUMNS, "%d,%s,%s,%s,%s,%d,%d,%d\n", log.start_minute,
                     self.services, [], [log.forecast_rps, log.predicted_vcpu, log.r_new,
                                         log.n_prev, log.n_new, log.n_new - log.n_prev])


def _each_repeated(items, times: int):
    """Each of items, times times in a row: a, a, b, b for times 2."""
    return itertools.chain.from_iterable(map(itertools.repeat, items, itertools.repeat(times)))


def run_simulation(trace: WorkloadTrace, demand: DemandModel, policy: ScalingPolicy,
                   bounds: Mapping[str, ScalingBounds], sim: SimConfig, *,
                   warmup: int = 0) -> SimulationLog:
    """Drive the cluster over a minute trace under one scaling policy.

    Decisions made at minute m schedule pod additions to become ready at
    m + startup_delay and removals at m + 1. A policy sees, and its targets
    count, each service's pending additions with its ready pods, so a target
    repeated while pods start up is granted once. No decisions are taken
    during the first warmup minutes. Every service starts at its
    initial_pod_counts. The cluster-wide pod budget is enforced when additions
    are scheduled, counting pods already pending.
    """
    if trace.resolution != 1:
        raise ValidationError(f"simulation needs a 1-minute trace, got resolution "
                              f"{trace.resolution}")
    if set(bounds) != set(demand.services):
        raise ValidationError("bounds keys must match demand services")
    seed, startup_delay, max_total_pods = sim.seed, sim.startup_delay, sim.max_total_pods

    external = trace.values
    pods = list(initial_pod_counts(demand, float(external[0]), bounds).values())
    if sum(pods) > max_total_pods:
        raise ValidationError(f"initial pods exceed cluster budget {max_total_pods}")

    services, width = demand.services, len(demand.services)
    rps, usage = demand.demand_series(external, trace.start_minute, seed)
    policy.begin(trace.start_minute, services, rps)
    # Per-service values are lists in the order of services. Utilization is
    # usage / (pods * capacity), above 1.0 an overload; ScalingBounds already
    # rejects a capacity <= 0, and pods are clipped to >= 1 wherever they change.
    capacity = [bounds[s].pod_capacity for s in services]
    max_pods = [bounds[s].max_pods for s in services]
    serving = [n * c for n, c in zip(pods, capacity)]  # pods * capacity, kept as pods change
    pod_grid = np.empty((len(external), width), dtype=np.int64)
    util_grid = np.empty((len(external), width))
    decision_delta = np.zeros((len(external), width), dtype=np.int64)
    pending: dict[int, list[tuple[int, int]]] = {}  # ready minute -> (column, delta)
    planned = list(pods)  # each service's ready pods plus its additions not yet ready

    for lo, hi in blocks(len(external)):
        # A block's pods and utilization are kept in flat minute-major lists:
        # one object each, so the cyclic garbage collector is not triggered by
        # a list kept per minute. The block's usage rows come from one tolist.
        pod_cells: list[int] = []
        util_cells: list[float] = []
        for i, usage_row in enumerate(usage[lo:hi].tolist(), lo):
            minute = trace.start_minute + i
            if pending and minute in pending:
                for j, delta in pending.pop(minute):
                    n = min(max(pods[j] + delta, 1), max_pods[j])
                    planned[j] += n - pods[j] - max(delta, 0)
                    pods[j] = n
                serving = [n * c for n, c in zip(pods, capacity)]

            utils = list(map(operator.truediv, usage_row, serving))
            pod_cells += pods
            util_cells += utils
            if i < warmup:
                continue
            targets = policy.decide(minute, utils, planned)
            if targets == planned:  # nothing to grant or release
                continue
            budget = max_total_pods - sum(planned)
            for j, (target, n) in enumerate(zip(targets, planned, strict=True)):
                want = target - n
                if want > 0:
                    grant = min(want, budget)
                    budget -= grant
                    if grant > 0:
                        pending.setdefault(minute + startup_delay, []).append((j, grant))
                        planned[j] += grant
                        decision_delta[i, j] = grant
                elif want < 0:
                    pending.setdefault(minute + 1, []).append((j, want))
                    decision_delta[i, j] = want
        pod_grid[lo:hi].flat = pod_cells
        util_grid[lo:hi].flat = util_cells

    return SimulationLog(policy_name=policy.name, seed=seed,
                         trace_sha256=trace_digest(trace), start_minute=trace.start_minute,
                         services=services, external=external,
                         service_rps=rps,
                         pods=pod_grid, utilization=util_grid,
                         decision_delta=decision_delta, decisions=policy.decisions)
