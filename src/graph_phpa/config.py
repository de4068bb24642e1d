"""Experiment configuration: one JSON file describing a full comparison run.

errors.read turns each section into the dataclass or function that takes it,
so each key, its type and its default are stated once, in that signature:
LstmConfig, GcnConfig, HpaConfig, SimConfig, Split, ScalingBounds per bounds
entry, DemandModel, TraceSpec and generate_synthetic_trace. Parsing is strict,
because a silently ignored typo in a threshold would invalidate a whole
experiment: a bad key or value is a ConfigError that names the key by its
dotted path (lstm.epochs must be an integer, got '8'), or as "unknown key 'k'
in <section>" and "missing required key 'k' in <section>".
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .autoscaler import ScalingBounds
from .cluster_sim import DemandModel, HpaConfig, SimConfig
from .errors import ConfigError, ValidationError, check_keys, read, read_json_file
from .forecast_lstm import LstmConfig
from .predict_gcn import GcnConfig, ServiceGraph
from .traces import (Split, WorkloadTrace, generate_synthetic_trace, interpolate_to_minutes,
                     load_trace, rescale_trace)


@dataclass(frozen=True)
class TraceSpec:
    """Where the external workload comes from: a CSV file or a generator."""

    file: str | None = None
    resolution: int = 1
    interpolate: bool = False
    rescale_peak: float | None = None
    synthetic: dict | None = None

    def __post_init__(self):
        if (self.file is None) == (self.synthetic is None):
            raise ValidationError("trace needs exactly one of trace.file or trace.synthetic")
        if self.resolution < 1:
            raise ValidationError(f"trace.resolution must be >= 1, got {self.resolution}")
        if self.synthetic is not None and self.resolution != 1:
            raise ValidationError(f"trace.resolution {self.resolution} is for trace.file; "
                                  f"a generated trace takes trace.synthetic.resolution")
        if self.rescale_peak is not None and not self.rescale_peak > 0:
            raise ValidationError(f"trace.rescale_peak must be > 0, got {self.rescale_peak}")
        # The experiment runs on 1-minute bins: a trace is one, or 5-minute
        # bins spread over minutes by trace.interpolate.
        key, resolution = (("trace.resolution", self.resolution) if self.synthetic is None else
                           ("trace.synthetic.resolution", self.synthetic.get("resolution", 1)))
        if self.interpolate and resolution != 5:
            raise ValidationError(f"trace.interpolate spreads 5-minute bins, but {key} is "
                                  f"{resolution!r}")
        if not self.interpolate and resolution != 1:
            raise ValidationError(f"{key} {resolution!r} needs trace.interpolate: the "
                                  f"experiment runs on 1-minute bins")

    def resolve(self, base_dir: Path) -> WorkloadTrace:
        if self.file is not None:
            trace = load_trace(base_dir / self.file, resolution=self.resolution)
        else:
            try:
                trace = read(generate_synthetic_trace, self.synthetic, "trace.synthetic")
            except ValidationError as exc:
                raise ConfigError(str(exc)) from None
        if self.interpolate:
            trace = interpolate_to_minutes(trace)
        if self.rescale_peak is not None:
            trace = rescale_trace(trace, self.rescale_peak)
        return trace


@dataclass(frozen=True)
class ExperimentConfig:
    """One section per field; lstm, gcn, hpa, sim and split may be left out."""

    trace: TraceSpec
    graph: ServiceGraph
    demand: DemandModel
    bounds: dict[str, ScalingBounds]
    lstm: LstmConfig
    gcn: GcnConfig
    hpa: HpaConfig
    sim: SimConfig
    split: Split

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            check_keys(d, "config", required=("trace", "graph", "demand", "bounds"),
                       allowed=[f.name for f in fields(cls)])
            # The graph block alone first: demand is keyed by its nodes.
            nodes = read(ServiceGraph.from_edges, d["graph"], "graph", edges=()).nodes
            demand = read(DemandModel, d["demand"], "demand", services=nodes)
            # The GCN's graph is the simulator's call graph, its edges undirected.
            graph = ServiceGraph.from_edges(nodes, [
                (u, v) for u, targets in demand.fan_out.items() for v in targets])
            bounds = check_keys(d["bounds"], "bounds", required=nodes, allowed=nodes)
            lstm = read(LstmConfig, d.get("lstm", {}), "lstm")
            if lstm.window < 2:
                raise ValidationError(f"lstm.window must be >= 2, got {lstm.window}: the "
                                      f"GCN reads the last lstm.window - 1 rates and a forecast")
            return cls(trace=read(TraceSpec, d["trace"], "trace"), graph=graph, demand=demand,
                       bounds={s: read(ScalingBounds, spec, f"bounds.{s}")
                               for s, spec in bounds.items()},
                       lstm=lstm,
                       gcn=read(GcnConfig, d.get("gcn", {}), "gcn"),
                       hpa=read(HpaConfig, d.get("hpa", {}), "hpa"),
                       sim=read(SimConfig, d.get("sim", {}), "sim"),
                       split=read(Split, d.get("split", {}), "split"))
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def load(cls, path: str | Path) -> tuple["ExperimentConfig", Path]:
        """Parse the file; also returns its directory for resolving trace paths."""
        try:
            return read_json_file(path, cls.from_json_dict), Path(path).parent
        except ValidationError as exc:  # the file cannot be read or parsed
            raise ConfigError(str(exc)) from None
