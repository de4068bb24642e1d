"""Command-line entry points over a library pipeline.

    graph-phpa gen-trace        synthesize a workload CSV
    graph-phpa train-workload   fit one forecaster per service
    graph-phpa train-resource   fit the graph demand predictor
    graph-phpa simulate         replay the test window under one policy
    graph-phpa compare          tabulate finished runs against a baseline
    graph-phpa experiment       all of the above in one deterministic pass

Each command is a thin wrapper over the library pipeline: prepare resolves the
trace and its split once; train_workload, train_resource and replay take what
it returns, write their files and return what they built.

Set PHPA_LOG=DEBUG (or INFO) for training progress on stderr. Output files
are byte-stable: rerunning a command with the same config and seeds rewrites
identical bytes. The per-service fits and forecasts run on a pool of worker
processes forked from the command, one per usable core (limit the cores with
taskset); with one usable core, or no OpenBLAS to pin, they run in-process.
Each result is independent of the process that computed it, so the bytes do
not depend on the core count.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .cluster_sim import (PredictivePolicy, ReactivePolicy, ScalingPolicy, SimulationLog,
                          run_simulation)
from .config import ExperimentConfig
from .errors import GraphPhpaError, ValidationError
from .forecast_lstm import (LstmModel, evaluate, evaluate_lstm, make_windows, forecast_series,
                            predict_windows, train_lstm)
from .predict_gcn import GcnModel, build_resource_dataset, evaluate_gcn, scale_targets, train_gcn
from .tensor import mix_seed, one_blas_thread
from .traces import (WorkloadTrace, generate_synthetic_trace, save_trace, slice_trace,
                     split_dataset, trace_digest)

log = logging.getLogger(__name__)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8", newline="\n")


def _lstm_path(models_dir: Path, service: str) -> Path:
    return models_dir / f"lstm_{service}.json"


def _load(cls, path: Path, cfg: ExperimentConfig):
    """cls.load(path), once the model was trained for cfg's lstm.window and,
    a GCN, for its graph.nodes; else a ValidationError naming the file."""
    model = cls.load(path)
    if model.config.window != cfg.lstm.window:
        raise ValidationError(f"{path}: config.window {model.config.window} is not the "
                              f"config's lstm.window {cfg.lstm.window}")
    if cls is GcnModel and model.nodes != cfg.graph.nodes:
        raise ValidationError(f"{path}: nodes {list(model.nodes)} are not the config's "
                              f"graph.nodes {list(cfg.graph.nodes)}")
    return model


def _load_lstm_models(models_dir: Path, cfg: ExperimentConfig) -> dict[str, LstmModel]:
    return {s: _load(LstmModel, _lstm_path(models_dir, s), cfg) for s in cfg.graph.nodes}


def _worker_count(tasks: int) -> int:
    """Worker processes for independent tasks: one per usable core, never more
    than tasks. At 1, as on a single usable core, the tasks run in-process."""
    return min(tasks, len(os.sched_getaffinity(0)))


# (fn, tasks) of the _map_tasks call whose pool is running. Workers are forked
# after it is set, so they read fn and the tasks from their copy of memory and
# only the results are pickled: fn may be a closure.
_job: tuple | None = None


def _run_job_task(index: int):
    fn, tasks = _job
    return fn(*tasks[index])


def _map_tasks(fn, tasks: list[tuple]) -> list:
    """[fn(*task) for task in tasks], spread over forked worker processes.

    OpenBLAS is pinned to one thread meanwhile, and the workers inherit the
    pin, so they do not oversubscribe the cores. With one usable core, or
    without an OpenBLAS to pin, the tasks run in this process one after
    another. Every worker has exited when this returns. The first task to fail
    raises its error here; a worker that dies raises BrokenProcessPool.

    The pool forks all its workers before it starts its own management thread.
    Nothing in the command may start a thread before then: forking a process
    with threads can deadlock the child, and Python 3.12+ warns about it.
    """
    global _job
    with one_blas_thread() as pinned:
        workers = _worker_count(len(tasks)) if pinned else 1
        if workers <= 1:
            return [fn(*task) for task in tasks]
        # Imported here: a command that runs no pool does not load multiprocessing.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        _job = (fn, tasks)
        try:
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                return list(pool.map(_run_job_task, range(len(tasks))))
        finally:
            _job = None


@dataclass(frozen=True)
class Prepared:
    """One experiment's inputs: the config, its 1-minute trace and the
    chronological (train, valid, test) segments as (lo, hi) minute indexes."""

    cfg: ExperimentConfig
    trace: WorkloadTrace
    segments: tuple[tuple[int, int], ...]

    @cached_property
    def series(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Whole-trace (request rates, vCPU usage) per service, the training
        data. Computed on first use: a replay never reads them."""
        return self.cfg.demand.demand_series(self.trace.values, self.trace.start_minute,
                                             self.cfg.sim.seed)


def prepare(cfg: ExperimentConfig, base_dir: Path) -> Prepared:
    """Resolve cfg's trace (paths relative to base_dir) and split it."""
    trace = cfg.trace.resolve(base_dir)
    if trace.resolution != 1:
        raise ValidationError("experiment trace must resolve to 1-minute bins; "
                              "set trace.interpolate for 5-minute inputs")
    split = split_dataset(range(len(trace)), cfg.split)
    return Prepared(cfg, trace, tuple((r.start, r.stop) for r in split))


def train_workload(prepared: Prepared, out: Path) -> dict[str, LstmModel]:
    """Fit one forecaster per service; writes lstm_<service>.json and
    workload_metrics.json into out and returns the forecasters by service."""
    cfg = prepared.cfg
    rps, _ = prepared.series

    def fit(idx: int, service: str):
        """Train one service's forecaster and score it on the validation and
        test segments."""
        train_set, valid_set, (x_test, y_test) = (
            make_windows(rps[service][lo:hi], cfg.lstm.window) for lo, hi in prepared.segments)
        model, history = train_lstm(train_set,
                                    replace(cfg.lstm, seed=mix_seed(cfg.lstm.seed, idx)),
                                    service_id=service)
        mse, mae = evaluate(predict_windows(model, x_test), y_test)
        persistence_mse, _ = evaluate(x_test[:, -1], y_test)
        return model, {
            "test_mse": mse, "test_mae": mae, "persistence_mse": persistence_mse,
            "mse_vs_persistence": mse / persistence_mse if persistence_mse > 0 else None,
            "final_train_mse_scaled": history[-1],
            "final_valid_mse_scaled": evaluate_lstm(model, valid_set),
        }

    out.mkdir(parents=True, exist_ok=True)
    fits = _map_tasks(fit, list(enumerate(cfg.graph.nodes)))
    metrics: dict = {"window": cfg.lstm.window, "trace_sha256": trace_digest(prepared.trace),
                     "services": {}}
    for service, (model, scores) in zip(cfg.graph.nodes, fits):
        model.save(_lstm_path(out, service))
        metrics["services"][service] = scores
        log.info("trained forecaster for %s: test mse %.4f (persistence %.4f)",
                 service, scores["test_mse"], scores["persistence_mse"])
    _write_json(out / "workload_metrics.json", metrics)
    return {service: model for service, (model, _) in zip(cfg.graph.nodes, fits)}


def train_resource(prepared: Prepared, models: dict[str, LstmModel],
                   out: Path) -> tuple[GcnModel, dict]:
    """Fit the graph demand predictor on the forecasters' own outputs; writes
    gcn.json and resource_metrics.json into out and returns (model, metrics)."""
    cfg = prepared.cfg
    nodes, k = cfg.graph.nodes, cfg.gcn.window
    rps, usage = prepared.series
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(lo, hi, s) for lo, hi in prepared.segments for s in nodes]
    forecasts = dict(zip(tasks, _map_tasks(
        lambda lo, hi, s: forecast_series(models[s], rps[s][lo:hi]), tasks)))
    train_set, valid_set, test_set = (
        build_resource_dataset({s: rps[s][lo:hi] for s in nodes},
                               {s: forecasts[lo, hi, s] for s in nodes},
                               {s: usage[s][lo:hi] for s in nodes}, nodes, k)
        for lo, hi in prepared.segments)

    model, _ = train_gcn(train_set, cfg.graph, cfg.gcn)
    (train_mse, _), (valid_mse, _), (test_mse, test_per_service) = (
        evaluate_gcn(model, cfg.graph, dataset) for dataset in (train_set, valid_set, test_set))
    target_variance = float(np.var(scale_targets(model.target_scalers, train_set[1])))
    model.save(out / "gcn.json")
    metrics = {
        "window": k, "trace_sha256": trace_digest(prepared.trace),
        "samples": {"train": len(train_set[0]), "valid": len(valid_set[0]),
                    "test": len(test_set[0])},
        "train_mse_scaled": train_mse,
        "valid_mse_scaled": valid_mse,
        "test_mse_scaled": test_mse,
        "test_mse_scaled_per_service": test_per_service,
        "train_target_variance_scaled": target_variance,
    }
    _write_json(out / "resource_metrics.json", metrics)
    log.info("trained demand predictor: train %.6f test %.6f var %.6f",
             train_mse, test_mse, target_variance)
    return model, metrics


def replay(prepared: Prepared, policy: ScalingPolicy,
           out: Path) -> tuple[SimulationLog, dict]:
    """Replay the test segment under policy; writes sim.csv, summary.json and,
    when the policy logged decisions, decisions.csv into out."""
    cfg = prepared.cfg
    test_trace = slice_trace(prepared.trace, *prepared.segments[2])
    log_ = run_simulation(test_trace, cfg.demand, policy, cfg.bounds, cfg.sim,
                          warmup=cfg.lstm.window)
    out.mkdir(parents=True, exist_ok=True)
    log_.write_csv(out / "sim.csv")
    summary = log_.summary()
    _write_json(out / "summary.json", summary)
    if log_.decisions:
        log_.write_decisions_csv(out / "decisions.csv")
    return log_, summary


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


def cmd_train_workload(args) -> int:
    prepared = prepare(*ExperimentConfig.load(args.config))
    out = Path(args.out)
    models = train_workload(prepared, out)
    print(f"trained {len(models)} forecasters into {out}")
    return 0


def cmd_train_resource(args) -> int:
    prepared = prepare(*ExperimentConfig.load(args.config))
    models = _load_lstm_models(Path(args.models), prepared.cfg)
    out = Path(args.out)
    _, metrics = train_resource(prepared, models, out)
    print(f"trained demand predictor into {out} (train mse "
          f"{metrics['train_mse_scaled']:.6f}, test mse {metrics['test_mse_scaled']:.6f})")
    return 0


def cmd_simulate(args) -> int:
    cfg, base_dir = ExperimentConfig.load(args.config)
    if args.seed is not None:
        cfg = replace(cfg, sim=replace(cfg.sim, seed=args.seed))
    if args.policy == "reactive":
        hpa = cfg.hpa if args.threshold is None else replace(cfg.hpa, scale_out=args.threshold)
        policy = ReactivePolicy(hpa, cfg.bounds)
    elif args.models is None:
        raise ValidationError("phpa policy needs --models")
    else:
        models_dir = Path(args.models)
        policy = PredictivePolicy(_load_lstm_models(models_dir, cfg),
                                  _load(GcnModel, models_dir / "gcn.json", cfg), cfg.graph,
                                  cfg.bounds)
    log_, summary = replay(prepare(cfg, base_dir), policy, Path(args.out))
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
    prepared = prepare(*ExperimentConfig.load(args.config))
    out = Path(args.out)
    models_dir = out / "models"
    models = train_workload(prepared, models_dir)
    print(f"trained {len(models)} forecasters into {models_dir}")
    gcn, metrics = train_resource(prepared, models, models_dir)
    print(f"trained demand predictor into {models_dir} (train mse "
          f"{metrics['train_mse_scaled']:.6f}, test mse {metrics['test_mse_scaled']:.6f})")

    cfg = prepared.cfg
    policies = [PredictivePolicy(models, gcn, cfg.graph, cfg.bounds)]
    policies += [ReactivePolicy(replace(cfg.hpa, scale_out=threshold), cfg.bounds)
                 for threshold in args.thresholds]
    logs = [replay(prepared, policy, out / "runs" / policy.name)[0] for policy in policies]
    baseline = args.baseline or logs[-1].policy_name
    table = write_comparison(out / "comparison", logs, baseline)
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
