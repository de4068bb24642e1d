"""Experiment configuration: one JSON file describing a full comparison run.

Parsing is strict. Unknown keys anywhere in the document raise ConfigError
naming the offending key and where it sits, because a silently ignored typo in
a threshold would invalidate a whole experiment.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .autoscaler import ScalingBounds
from .cluster_sim import DemandModel, HpaConfig
from .errors import ConfigError
from .forecast_lstm import LstmConfig
from .predict_gcn import GcnConfig, ServiceGraph
from .traces import (WorkloadTrace, generate_synthetic_trace, interpolate_to_minutes,
                     load_trace, rescale_trace)


def _take(d: dict, allowed: dict, context: str) -> dict:
    """Pull known keys with defaults, rejecting anything unexpected."""
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {context}")
    missing = [k for k, v in allowed.items() if v is _REQUIRED and k not in d]
    if missing:
        raise ConfigError(f"missing required key {missing[0]!r} in {context}")
    return {k: d.get(k, v) for k, v in allowed.items()}


_REQUIRED = object()


def _check_same_call_graph(edges, fan_out: dict) -> None:
    """The GCN's graph.edges and the simulator's demand.fan_out must be one
    undirected edge set, or the models learn one cluster and replay another."""
    pairs = {"graph.edges": [tuple(e) for e in edges],
             "demand.fan_out": [(u, v) for u, targets in fan_out.items() for v in targets]}
    for here, there in (("graph.edges", "demand.fan_out"), ("demand.fan_out", "graph.edges")):
        for u, v in pairs[here]:
            if {u, v} not in [set(e) for e in pairs[there]]:
                raise ConfigError(f"{here} has {u!r}-{v!r} but {there} has no edge "
                                  f"between them; both must describe the same call graph")


@dataclass(frozen=True)
class TraceSpec:
    """Where the external workload comes from: a CSV file or a generator."""

    file: str | None = None
    resolution: int = 1
    interpolate: bool = False
    rescale_peak: float | None = None
    synthetic: dict | None = None

    def resolve(self, base_dir: Path) -> WorkloadTrace:
        if (self.file is None) == (self.synthetic is None):
            raise ConfigError("trace needs exactly one of 'file' or 'synthetic'")
        if self.file is not None:
            trace = load_trace(base_dir / self.file, resolution=self.resolution)
        else:
            spec = _take(self.synthetic, {
                "pattern": _REQUIRED, "length": _REQUIRED, "amplitude": _REQUIRED,
                "seed": _REQUIRED, "base": 100.0, "period": None, "noise": 0.0,
                "resolution": 1,
            }, "trace.synthetic")
            trace = generate_synthetic_trace(**spec)
        if self.interpolate:
            trace = interpolate_to_minutes(trace)
        if self.rescale_peak is not None:
            trace = rescale_trace(trace, self.rescale_peak)
        return trace

    @classmethod
    def from_json_dict(cls, d: dict) -> "TraceSpec":
        fields = _take(d, {"file": None, "resolution": 1, "interpolate": False,
                           "rescale_peak": None, "synthetic": None}, "trace")
        return cls(**fields)


@dataclass(frozen=True)
class ExperimentConfig:
    trace: TraceSpec
    graph: ServiceGraph
    demand: DemandModel
    bounds: dict[str, ScalingBounds]
    lstm: LstmConfig
    gcn: GcnConfig
    hpa: HpaConfig
    sim_seed: int
    startup_delay: int
    max_total_pods: int
    train_frac: float
    valid_frac: float

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        top = _take(d, {"trace": _REQUIRED, "graph": _REQUIRED, "demand": _REQUIRED,
                        "bounds": _REQUIRED, "lstm": {}, "gcn": {}, "hpa": {},
                        "sim": {}, "split": {}}, "config")
        graph_spec = _take(top["graph"], {"nodes": _REQUIRED, "edges": _REQUIRED}, "graph")
        graph = ServiceGraph.from_edges(graph_spec["nodes"], graph_spec["edges"])

        demand_spec = _take(top["demand"], {
            "entry": _REQUIRED, "cpu_per_request": _REQUIRED,
            "fan_out": _REQUIRED, "noise_sigma": 0.0}, "demand")
        demand = DemandModel(services=graph.nodes, entry=demand_spec["entry"],
                             cpu_per_request=demand_spec["cpu_per_request"],
                             fan_out=demand_spec["fan_out"],
                             noise_sigma=demand_spec["noise_sigma"])
        _check_same_call_graph(graph_spec["edges"], demand.fan_out)

        if set(top["bounds"]) != set(graph.nodes):
            raise ConfigError("bounds must name exactly the graph nodes")
        bounds = {}
        for service, spec in top["bounds"].items():
            fields = _take(spec, {"r_lb": _REQUIRED, "r_ub": _REQUIRED,
                                  "pod_capacity": 1.0, "max_pods": _REQUIRED},
                           f"bounds.{service}")
            bounds[service] = ScalingBounds(**fields)

        lstm_fields = _take(top["lstm"], {
            "window": 10, "layers": 1, "hidden_units": 50, "learning_rate": 0.01,
            "epochs": 50, "batch_size": 64, "seed": 42}, "lstm")
        gcn_fields = _take(top["gcn"], {
            "window": 10, "hidden": [32], "learning_rate": 0.001, "epochs": 100,
            "batch_size": 256, "seed": 42}, "gcn")
        gcn_fields["hidden"] = tuple(gcn_fields["hidden"])
        hpa_fields = _take(top["hpa"], {"scale_out": 0.9, "scale_in": 0.3,
                                        "stabilization_minutes": 5}, "hpa")
        sim_fields = _take(top["sim"], {"seed": 0, "startup_delay": 1,
                                        "max_total_pods": 79}, "sim")
        split_fields = _take(top["split"], {"train": 0.6, "valid": 0.2}, "split")
        train_frac, valid_frac = float(split_fields["train"]), float(split_fields["valid"])
        for key, frac in (("train", train_frac), ("valid", valid_frac)):
            if not frac > 0:
                raise ConfigError(f"split.{key} must be > 0, got {frac}")
        if not train_frac + valid_frac < 1:
            raise ConfigError(f"split.train + split.valid must be < 1 to leave a test "
                              f"segment, got {train_frac} + {valid_frac}")
        if lstm_fields["window"] != gcn_fields["window"]:
            raise ConfigError(f"lstm.window {lstm_fields['window']} must equal "
                              f"gcn.window {gcn_fields['window']}")

        return cls(trace=TraceSpec.from_json_dict(top["trace"]), graph=graph,
                   demand=demand, bounds=bounds, lstm=LstmConfig(**lstm_fields),
                   gcn=GcnConfig(**gcn_fields), hpa=HpaConfig(**hpa_fields),
                   sim_seed=int(sim_fields["seed"]),
                   startup_delay=int(sim_fields["startup_delay"]),
                   max_total_pods=int(sim_fields["max_total_pods"]),
                   train_frac=train_frac, valid_frac=valid_frac)

    @classmethod
    def load(cls, path: str | Path) -> tuple["ExperimentConfig", Path]:
        """Parse the file; also returns its directory for resolving trace paths."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_json_dict(raw), path.parent
