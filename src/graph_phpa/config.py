"""Experiment configuration: one JSON file describing a full comparison run.

Parsing is strict. Unknown keys anywhere in the document raise ConfigError
naming the offending key and where it sits, because a silently ignored typo in
a threshold would invalidate a whole experiment. So does a value of the wrong
type: a number must be a finite JSON number and not a bool, and a count an
integer.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .autoscaler import ScalingBounds
from .cluster_sim import DemandModel, HpaConfig
from .errors import ConfigError, ValidationError, check_number
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


def _numbers(fields: dict, context: str, integers=(), optional=()) -> dict:
    """fields, once each value is a finite number, an integer under the keys
    in integers, or None under those in optional; else a ConfigError naming
    the key."""
    for key, value in fields.items():
        if not (value is None and key in optional):
            _number(value, f"{context}.{key}", integer=key in integers)
    return fields


def _number(value, where: str, integer: bool = False):
    try:
        return check_number(value, where, integer)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None


def _typed(value, kind: type, where: str):
    """value, once it is a JSON value of kind (list, dict, str or bool)."""
    if not isinstance(value, kind):
        names = {list: "a list", dict: "an object", str: "a string", bool: "true or false"}
        raise ConfigError(f"{where} must be {names[kind]}, got {value!r}")
    return value


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
            _typed(spec["pattern"], str, "trace.synthetic.pattern")
            _numbers({k: v for k, v in spec.items() if k != "pattern"}, "trace.synthetic",
                     integers=("length", "seed", "resolution"), optional=("period",))
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
        for key, kind in (("file", str), ("synthetic", dict)):
            if fields[key] is not None:
                _typed(fields[key], kind, f"trace.{key}")
        _typed(fields["interpolate"], bool, "trace.interpolate")
        _numbers({k: fields[k] for k in ("resolution", "rescale_peak")}, "trace",
                 integers=("resolution",), optional=("rescale_peak",))
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
        graph_spec = _take(top["graph"], {"nodes": _REQUIRED}, "graph")
        for i, node in enumerate(_typed(graph_spec["nodes"], list, "graph.nodes")):
            _typed(node, str, f"graph.nodes[{i}]")

        demand_spec = _take(top["demand"], {
            "entry": _REQUIRED, "cpu_per_request": _REQUIRED,
            "fan_out": _REQUIRED, "noise_sigma": 0.0}, "demand")
        _number(demand_spec["noise_sigma"], "demand.noise_sigma")
        _numbers(_typed(demand_spec["cpu_per_request"], dict, "demand.cpu_per_request"),
                 "demand.cpu_per_request")
        for u, targets in _typed(demand_spec["fan_out"], dict, "demand.fan_out").items():
            _numbers(_typed(targets, dict, f"demand.fan_out.{u}"), f"demand.fan_out.{u}")
        demand = DemandModel(services=graph_spec["nodes"], entry=demand_spec["entry"],
                             cpu_per_request=demand_spec["cpu_per_request"],
                             fan_out=demand_spec["fan_out"],
                             noise_sigma=demand_spec["noise_sigma"])
        # The GCN's graph is the simulator's call graph, its edges undirected.
        graph = ServiceGraph.from_edges(demand.services, [
            (u, v) for u, targets in demand.fan_out.items() for v in targets])

        if set(_typed(top["bounds"], dict, "bounds")) != set(graph.nodes):
            raise ConfigError("bounds must name exactly the graph nodes")
        bounds = {}
        for service, spec in top["bounds"].items():
            fields = _take(spec, {"r_lb": _REQUIRED, "r_ub": _REQUIRED,
                                  "pod_capacity": 1.0, "max_pods": _REQUIRED},
                           f"bounds.{service}")
            bounds[service] = ScalingBounds(**_numbers(fields, f"bounds.{service}",
                                                       integers=("max_pods",)))

        lstm_fields = _take(top["lstm"], {
            "window": 10, "layers": 1, "hidden_units": 50, "learning_rate": 0.01,
            "epochs": 50, "batch_size": 64, "seed": 42}, "lstm")
        gcn_fields = _take(top["gcn"], {
            "hidden": [32], "learning_rate": 0.001, "epochs": 100,
            "batch_size": 256, "seed": 42}, "gcn")
        gcn_fields["hidden"] = tuple(
            _number(h, f"gcn.hidden[{i}]", integer=True)
            for i, h in enumerate(_typed(gcn_fields["hidden"], list, "gcn.hidden")))
        counts = ("window", "layers", "hidden_units", "epochs", "batch_size", "seed")
        _numbers(lstm_fields, "lstm", integers=counts)
        _numbers({k: v for k, v in gcn_fields.items() if k != "hidden"}, "gcn", integers=counts)
        hpa_fields = _numbers(_take(top["hpa"], {"scale_out": 0.9, "scale_in": 0.3,
                                                 "stabilization_minutes": 5}, "hpa"),
                              "hpa", integers=("stabilization_minutes",))
        sim_fields = _take(top["sim"], {"seed": 0, "startup_delay": 1,
                                        "max_total_pods": 79}, "sim")
        _numbers(sim_fields, "sim", integers=tuple(sim_fields))
        split_fields = _take(top["split"], {"train": 0.6, "valid": 0.2}, "split")
        for key, frac in split_fields.items():
            # The range check comes first, so that it also names a NaN.
            if isinstance(frac, (int, float)) and not isinstance(frac, bool) and not frac > 0:
                raise ConfigError(f"split.{key} must be > 0, got {float(frac)}")
            _number(frac, f"split.{key}")
        train_frac, valid_frac = float(split_fields["train"]), float(split_fields["valid"])
        if not train_frac + valid_frac < 1:
            raise ConfigError(f"split.train + split.valid must be < 1 to leave a test "
                              f"segment, got {train_frac} + {valid_frac}")

        return cls(trace=TraceSpec.from_json_dict(top["trace"]), graph=graph,
                   demand=demand, bounds=bounds, lstm=LstmConfig(**lstm_fields),
                   gcn=GcnConfig(window=lstm_fields["window"], **gcn_fields),
                   hpa=HpaConfig(**hpa_fields),
                   sim_seed=sim_fields["seed"], startup_delay=sim_fields["startup_delay"],
                   max_total_pods=sim_fields["max_total_pods"],
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
