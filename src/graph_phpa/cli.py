"""Command-line entry points for training, simulation, and comparison.

    graph-phpa gen-trace        synthesize a workload CSV
    graph-phpa train-workload   fit one forecaster per service
    graph-phpa train-resource   fit the graph demand predictor
    graph-phpa simulate         replay the test window under one policy
    graph-phpa compare          tabulate finished runs against a baseline
    graph-phpa experiment       all of the above in one deterministic pass

Set PHPA_LOG=DEBUG (or INFO) for training progress on stderr. Output files
are byte-stable: rerunning a command with the same config and seeds rewrites
identical bytes. The per-service fits and forecasts run on one thread per
usable core (limit the cores with taskset); each result is independent of the
thread that computed it, so the bytes do not depend on the core count.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .cluster_sim import (HpaConfig, PredictivePolicy, ReactivePolicy,
                          initial_pod_counts, run_simulation)
from .config import ExperimentConfig
from .errors import GraphPhpaError, ValidationError
from .forecast_lstm import (LstmConfig, LstmModel, evaluate, make_windows,
                            forecast_series, predict_windows, train_lstm)
from .predict_gcn import (GcnModel, build_resource_dataset, evaluate_gcn,
                          evaluate_gcn_per_node, scale_targets, train_gcn)
from .tensor import mix_seed, one_blas_thread
from .traces import (generate_synthetic_trace, save_trace, slice_trace, split_dataset,
                     trace_digest)

log = logging.getLogger(__name__)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8", newline="\n")


def _lstm_path(models_dir: Path, service: str) -> Path:
    return models_dir / f"lstm_{service}.json"


def _gcn_path(models_dir: Path) -> Path:
    return models_dir / "gcn.json"


def _load_lstm_models(models_dir: Path, services) -> dict[str, LstmModel]:
    models = {}
    for service in services:
        path = _lstm_path(models_dir, service)
        if not path.exists():
            raise ValidationError(f"missing forecaster model {path}")
        models[service] = LstmModel.load(path)
    return models


def _resolve_trace(cfg: ExperimentConfig, base_dir: Path):
    trace = cfg.trace.resolve(base_dir)
    if trace.resolution != 1:
        raise ValidationError("experiment trace must resolve to 1-minute bins; "
                              "set trace.interpolate for 5-minute inputs")
    return trace


def _prepare_data(cfg: ExperimentConfig, base_dir: Path):
    """Resolve the trace and derive the per-service series both trainings use."""
    trace = _resolve_trace(cfg, base_dir)
    rps, usage = cfg.demand.demand_series(trace.values, trace.start_minute, cfg.sim_seed)
    return trace, rps, usage


def _segment_bounds(n: int, train_frac: float, valid_frac: float) -> tuple[int, int]:
    i1 = int(n * train_frac)
    i2 = i1 + int(n * valid_frac)
    return i1, i2


def _worker_count(tasks: int) -> int:
    """Threads for independent tasks: one per usable core, never more than tasks."""
    return min(tasks, len(os.sched_getaffinity(0)))


def _map_tasks(fn, tasks: list[tuple]) -> list:
    """[fn(*task) for task in tasks], spread over worker threads.

    OpenBLAS is pinned to one thread meanwhile, so the workers do not
    oversubscribe the cores. Without an OpenBLAS to pin the tasks run one
    after another. The first task to fail raises its error here.
    """
    with one_blas_thread() as pinned:
        workers = _worker_count(len(tasks)) if pinned else 1
        if workers <= 1:
            return [fn(*task) for task in tasks]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda task: fn(*task), tasks))


def cmd_gen_trace(args) -> int:
    trace = generate_synthetic_trace(pattern=args.pattern, length=args.length,
                                     amplitude=args.amplitude, seed=args.seed,
                                     base=args.base, period=args.period,
                                     noise=args.noise, resolution=args.resolution)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_trace(trace, out)
    print(f"wrote {len(trace)} bins to {out} (sha256 {trace_digest(trace)[:12]})")
    return 0


def _fit_forecaster(cfg: ExperimentConfig, series: np.ndarray, idx: int, service: str):
    """Train one service's forecaster and score it on the test segment."""
    k = cfg.lstm.window
    train_seg, valid_seg, test_seg = split_dataset(series, cfg.train_frac, cfg.valid_frac)
    service_cfg = LstmConfig(window=k, layers=cfg.lstm.layers,
                             hidden_units=cfg.lstm.hidden_units,
                             learning_rate=cfg.lstm.learning_rate,
                             epochs=cfg.lstm.epochs, batch_size=cfg.lstm.batch_size,
                             seed=mix_seed(cfg.lstm.seed, idx))
    model, history = train_lstm(make_windows(train_seg, k), make_windows(valid_seg, k),
                                service_cfg, service_id=service)
    x_test, y_test = make_windows(test_seg, k)
    mse, mae = evaluate(predict_windows(model, x_test), y_test)
    persistence_mse, _ = evaluate(x_test[:, -1], y_test)
    return model, {
        "test_mse": mse, "test_mae": mae, "persistence_mse": persistence_mse,
        "mse_vs_persistence": mse / persistence_mse if persistence_mse > 0 else None,
        "final_train_mse_scaled": history[-1][0],
        "final_valid_mse_scaled": history[-1][1],
    }


def cmd_train_workload(args) -> int:
    cfg, base_dir = ExperimentConfig.load(args.config)
    trace, rps, _ = _prepare_data(cfg, base_dir)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    fits = _map_tasks(lambda idx, service: _fit_forecaster(cfg, rps[service], idx, service),
                      list(enumerate(cfg.graph.nodes)))
    metrics: dict = {"window": cfg.lstm.window, "trace_sha256": trace_digest(trace),
                     "services": {}}
    for service, (model, scores) in zip(cfg.graph.nodes, fits):
        model.save(_lstm_path(out_dir, service))
        metrics["services"][service] = scores
        log.info("trained forecaster for %s: test mse %.4f (persistence %.4f)",
                 service, scores["test_mse"], scores["persistence_mse"])
    _write_json(out_dir / "workload_metrics.json", metrics)
    print(f"trained {len(cfg.graph.nodes)} forecasters into {out_dir}")
    return 0


def cmd_train_resource(args) -> int:
    cfg, base_dir = ExperimentConfig.load(args.config)
    trace, rps, usage = _prepare_data(cfg, base_dir)
    models_dir = Path(args.models)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    k = cfg.gcn.window
    lstm_models = _load_lstm_models(models_dir, cfg.graph.nodes)

    n = len(trace)
    i1, i2 = _segment_bounds(n, cfg.train_frac, cfg.valid_frac)
    segments = [(0, i1), (i1, i2), (i2, n)]
    tasks = [(lo, hi, s) for lo, hi in segments for s in cfg.graph.nodes]
    forecasts = dict(zip(tasks, _map_tasks(
        lambda lo, hi, s: forecast_series(lstm_models[s], rps[s][lo:hi]), tasks)))
    datasets = []
    for lo, hi in segments:
        seg_rps = {s: rps[s][lo:hi] for s in cfg.graph.nodes}
        seg_usage = {s: usage[s][lo:hi] for s in cfg.graph.nodes}
        seg_fc = {s: forecasts[lo, hi, s] for s in cfg.graph.nodes}
        datasets.append(build_resource_dataset(seg_rps, seg_fc, seg_usage,
                                               cfg.graph.nodes, k))
    train_set, valid_set, test_set = datasets

    model, history = train_gcn(train_set, cfg.graph, cfg.gcn, valid_set)
    train_mse = evaluate_gcn(model, cfg.graph, train_set)
    test_mse = evaluate_gcn(model, cfg.graph, test_set)
    target_variance = float(np.var(scale_targets(model.target_scalers, train_set[1])))
    model.save(_gcn_path(out_dir))
    _write_json(out_dir / "resource_metrics.json", {
        "window": k, "trace_sha256": trace_digest(trace),
        "samples": {"train": len(train_set[0]), "valid": len(valid_set[0]),
                    "test": len(test_set[0])},
        "train_mse_scaled": train_mse,
        "valid_mse_scaled": history[-1][1],
        "test_mse_scaled": test_mse,
        "test_mse_scaled_per_service": evaluate_gcn_per_node(model, cfg.graph, test_set),
        "train_target_variance_scaled": target_variance,
    })
    log.info("trained demand predictor: train %.6f test %.6f var %.6f",
             train_mse, test_mse, target_variance)
    print(f"trained demand predictor into {out_dir} "
          f"(train mse {train_mse:.6f}, test mse {test_mse:.6f})")
    return 0


def _build_policy(cfg: ExperimentConfig, name: str, threshold: float | None,
                  models_dir: Path | None):
    if name == "phpa":
        if models_dir is None:
            raise ValidationError("phpa policy needs --models")
        lstm_models = _load_lstm_models(models_dir, cfg.graph.nodes)
        gcn = GcnModel.load(_gcn_path(models_dir))
        return PredictivePolicy(lstm_models, gcn, cfg.graph, cfg.bounds)
    if name == "reactive":
        hpa = cfg.hpa if threshold is None else HpaConfig(
            scale_out=threshold, scale_in=cfg.hpa.scale_in,
            stabilization_minutes=cfg.hpa.stabilization_minutes)
        return ReactivePolicy(hpa, cfg.bounds)
    raise ValidationError(f"unknown policy {name!r}")


def _run_one(cfg: ExperimentConfig, base_dir: Path, policy, out_dir: Path):
    trace = _resolve_trace(cfg, base_dir)
    n = len(trace)
    _, i2 = _segment_bounds(n, cfg.train_frac, cfg.valid_frac)
    test_trace = slice_trace(trace, i2, n)
    initial = initial_pod_counts(cfg.demand, float(test_trace.values[0]), cfg.bounds)
    log_ = run_simulation(test_trace, cfg.demand, policy, cfg.bounds, seed=cfg.sim_seed,
                          warmup=cfg.lstm.window, startup_delay=cfg.startup_delay,
                          max_total_pods=cfg.max_total_pods, initial_pods=initial)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_.write_csv(out_dir / "sim.csv")
    summary = log_.summary()
    _write_json(out_dir / "summary.json", summary)
    if log_.decisions:
        log_.write_decisions_csv(out_dir / "decisions.csv")
    return log_, summary


def cmd_simulate(args) -> int:
    cfg, base_dir = ExperimentConfig.load(args.config)
    if args.seed is not None:
        cfg = replace(cfg, sim_seed=args.seed)
    models_dir = Path(args.models) if args.models else None
    policy = _build_policy(cfg, args.policy, args.threshold, models_dir)
    log_, summary = _run_one(cfg, base_dir, policy, Path(args.out))
    totals = summary["totals"]
    print(f"{log_.policy_name}: pod_minutes={totals['pod_minutes']} "
          f"overload_minutes={totals['overload_minutes']} "
          f"peak_total_pods={totals['peak_total_pods']}")
    return 0


def cmd_compare(args) -> int:
    from .report import load_run, render_table_text, write_comparison
    logs = [load_run(d) for d in args.runs]
    table = write_comparison(Path(args.out), logs, args.baseline)
    sys.stdout.write(render_table_text(table))
    return 0


def cmd_experiment(args) -> int:
    from .report import render_table_text, write_comparison
    cfg, base_dir = ExperimentConfig.load(args.config)
    out_dir = Path(args.out)
    models_dir = out_dir / "models"

    ns = argparse.Namespace(config=args.config, out=str(models_dir))
    cmd_train_workload(ns)
    ns = argparse.Namespace(config=args.config, models=str(models_dir),
                            out=str(models_dir))
    cmd_train_resource(ns)

    logs = []
    phpa = _build_policy(cfg, "phpa", None, models_dir)
    logs.append(_run_one(cfg, base_dir, phpa, out_dir / "runs" / "phpa")[0])
    for threshold in args.thresholds:
        policy = _build_policy(cfg, "reactive", threshold, None)
        logs.append(_run_one(cfg, base_dir, policy, out_dir / "runs" / policy.name)[0])

    baseline = args.baseline or logs[-1].policy_name
    table = write_comparison(out_dir / "comparison", logs, baseline)
    sys.stdout.write(render_table_text(table))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graph-phpa",
                                     description="proactive autoscaling testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="synthesize a workload trace CSV")
    p.add_argument("--pattern", choices=("sine", "diurnal", "bursty"), default="diurnal")
    p.add_argument("--length", type=int, default=2880)
    p.add_argument("--amplitude", type=float, default=140.0)
    p.add_argument("--base", type=float, default=180.0)
    p.add_argument("--period", type=float, default=None)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("train-workload", help="fit per-service forecasters")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_workload)

    p = sub.add_parser("train-resource", help="fit the graph demand predictor")
    p.add_argument("--config", required=True)
    p.add_argument("--models", required=True, help="directory with lstm_<service>.json")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_resource)

    p = sub.add_parser("simulate", help="replay the test window under one policy")
    p.add_argument("--config", required=True)
    p.add_argument("--policy", choices=("phpa", "reactive"), required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="scale-out threshold override for the reactive policy")
    p.add_argument("--models", default=None, help="model directory (phpa only)")
    p.add_argument("--seed", type=int, default=None,
                   help="propagation noise seed override")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="tabulate finished runs against a baseline")
    p.add_argument("--baseline", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("runs", nargs="+")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("experiment", help="train, simulate all policies, compare")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--thresholds", type=float, nargs="+", default=[0.9, 0.7],
                   help="reactive scale-out thresholds to run")
    p.add_argument("--baseline", default=None,
                   help="baseline policy name (default: last reactive run)")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("PHPA_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphPhpaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
