"""Proactive autoscaling testbed for microservice call graphs.

Forecast per-service workload with one small LSTM and a scaler per service,
predict per-service vCPU demand with a graph convolutional network over the
call graph, and size pod counts one minute ahead. A minute-resolution cluster
simulator and a reactive threshold autoscaler provide the baseline for
comparison.
"""
from .autoscaler import ScalingBounds, build_resource_dataset, predict_demand, size_pods
from .cluster_sim import (DemandModel, HpaConfig, PredictivePolicy, ReactivePolicy,
                          SimConfig, SimulationLog, run_simulation)
from .config import ExperimentConfig
from .errors import (ConfigError, DivergenceError, EmptyDatasetError, GraphPhpaError,
                     RunMismatchError, ShapeError, TraceFormatError, ValidationError)
from .forecast_lstm import LstmConfig, LstmModel, make_windows, train_lstm
from .predict_gcn import (GcnConfig, GcnModel, ServiceGraph, normalize_adjacency,
                          predict_resource, train_gcn)
from .traces import (Split, WorkloadTrace, generate_synthetic_trace,
                     interpolate_to_minutes, load_trace, save_trace, split_dataset)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DemandModel", "DivergenceError", "EmptyDatasetError",
    "ExperimentConfig", "GcnConfig", "GcnModel", "GraphPhpaError", "HpaConfig",
    "LstmConfig", "LstmModel", "PredictivePolicy", "ReactivePolicy", "RunMismatchError",
    "ScalingBounds", "ServiceGraph", "ShapeError", "SimConfig", "SimulationLog", "Split",
    "TraceFormatError", "ValidationError", "WorkloadTrace",
    "build_resource_dataset", "generate_synthetic_trace",
    "interpolate_to_minutes", "load_trace", "make_windows", "normalize_adjacency",
    "predict_demand", "predict_resource", "run_simulation", "save_trace", "size_pods",
    "split_dataset", "train_gcn", "train_lstm",
]
