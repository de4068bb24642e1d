"""Command-line entry points over a library pipeline.

    graph-phpa gen-trace        synthesize a workload CSV
    graph-phpa train-workload   fit the forecaster the services share
    graph-phpa train-resource   fit the graph demand predictor
    graph-phpa simulate         replay the test window under one policy
    graph-phpa compare          tabulate finished runs against a baseline
    graph-phpa experiment       all of the above in one deterministic pass

Each command is a thin wrapper over the library pipeline: prepare resolves the
trace and its split once; train_workload, train_resource and replay take what
it returns, write their files and return what they built, each whole on one
OpenBLAS thread (tensor.one_blas_thread), so training and replay forecast alike.

Set PHPA_LOG=DEBUG (or INFO) for training progress on stderr. Output files
are byte-stable: rerunning a command with the same config and seeds rewrites
identical bytes. Everything runs in the command's own process: train-workload
fits one forecaster for every service, its weights on the entry service's
request rates and a scaler for each service on that service's own.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .autoscaler import build_resource_dataset
from .cluster_sim import (PredictivePolicy, ReactivePolicy, ScalingPolicy, SimulationLog,
                          run_simulation)
from .config import ExperimentConfig
from .errors import ConfigError, GraphPhpaError, ValidationError, write_json
from .forecast_lstm import (LstmModel, evaluate, forecast_services, make_windows,
                            scaled_mse, train_lstm)
from .predict_gcn import GcnModel, evaluate_gcn, scale_targets, train_gcn
from .tensor import mix_seed, one_blas_thread
from .traces import (WorkloadTrace, generate_synthetic_trace, save_trace, slice_trace,
                     split_dataset, trace_digest)

log = logging.getLogger(__name__)


def _load_lstm(models_dir: Path, cfg: ExperimentConfig) -> LstmModel:
    """The forecaster of models_dir/lstm.json, once the file was written for
    cfg's lstm.window and holds a scaler for each of cfg's graph.nodes and no
    other; else a ValidationError naming the file."""
    path = models_dir / "lstm.json"
    model = LstmModel.load(path)
    if model.config.window != cfg.lstm.window:
        raise ValidationError(f"{path}: config.window {model.config.window} is not the "
                              f"config's lstm.window {cfg.lstm.window}")
    if sorted(model.scalers) != sorted(cfg.graph.nodes):
        raise ValidationError(f"{path}: scalers for {sorted(model.scalers)} are not for the "
                              f"config's graph.nodes {list(cfg.graph.nodes)}")
    return model


def _edges(graph) -> list[tuple[str, str]]:
    return [(graph.nodes[i], graph.nodes[j]) for i, j in np.argwhere(np.triu(graph.adjacency))]


def _load_gcn(models_dir: Path, cfg: ExperimentConfig) -> GcnModel:
    """models_dir/gcn.json, once it was trained for cfg's lstm.window on cfg's
    call graph, its nodes in order and its edges; else a ValidationError naming the file."""
    path = models_dir / "gcn.json"
    model = GcnModel.load(path)
    if model.window != cfg.lstm.window:
        raise ValidationError(f"{path}: weights[0] has {model.window} rows, one per feature, "
                              f"but the config's lstm.window is {cfg.lstm.window}")
    graph = model.graph
    if graph.nodes != cfg.graph.nodes:
        raise ValidationError(f"{path}: nodes {list(graph.nodes)} are not the config's "
                              f"graph.nodes {list(cfg.graph.nodes)}")
    if not np.array_equal(graph.adjacency, cfg.graph.adjacency):
        raise ValidationError(f"{path}: trained on the call graph with edges {_edges(graph)}, "
                              f"not the config's demand.fan_out edges {_edges(cfg.graph)}")
    return model


def _check_phpa_delay(cfg: ExperimentConfig, path: str) -> None:
    """A ConfigError above delay 1: the predictive policy sizes minute m's
    pods for minute m + 1's forecast, so slower pods land after their minute."""
    if cfg.sim.startup_delay > 1:
        raise ConfigError(f"{path}: sim.startup_delay must be 1 for the phpa policy, got "
                          f"{cfg.sim.startup_delay}: it sizes pods for the next minute")


@dataclass(frozen=True)
class Prepared:
    """One experiment's inputs: the config, its 1-minute trace and the
    chronological (train, valid, test) segments as (lo, hi) minute indexes."""

    cfg: ExperimentConfig
    trace: WorkloadTrace
    segments: tuple[tuple[int, int], ...]

    @cached_property
    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """Whole-trace (request rates, vCPU usage) grids, the training data:
        row i is the trace's minute i, column j is graph.nodes[j]. Computed
        on first use: a replay never reads them."""
        return self.cfg.demand.demand_series(self.trace.values, self.trace.start_minute,
                                             self.cfg.sim.seed)


def prepare(cfg: ExperimentConfig, base_dir: Path) -> Prepared:
    """Resolve cfg's trace (paths relative to base_dir) and split it."""
    trace = cfg.trace.resolve(base_dir)
    split = split_dataset(range(len(trace)), cfg.split)
    for name, segment in zip(("train", "valid", "test"), split):
        if len(segment) <= cfg.lstm.window:
            raise ConfigError(f"split leaves the {name} segment {len(segment)} of the trace's "
                              f"{len(trace)} minutes, fewer than lstm.window + 1 = "
                              f"{cfg.lstm.window + 1}")
    return Prepared(cfg, trace, tuple((r.start, r.stop) for r in split))


@one_blas_thread()
def train_workload(prepared: Prepared, out: Path) -> LstmModel:
    """Fit the forecaster of every service, its weights on the entry service's
    rates; writes lstm.json and workload_metrics.json into out and returns it.

    With demand.noise_sigma 0 every service's rates are a fixed multiple of
    the entry's, so their scaled windows are the entry's bit for bit, and
    forecast_services scores every service with one forward per segment.
    """
    cfg = prepared.cfg
    nodes, k, entry = cfg.graph.nodes, cfg.lstm.window, cfg.demand.entry
    rps, _ = prepared.series
    lo, hi = prepared.segments[0]
    model, history = train_lstm(
        {service: rps[lo:hi, j] for j, service in enumerate(nodes)}, entry,
        replace(cfg.lstm, seed=mix_seed(cfg.lstm.seed, nodes.index(entry))))

    def windows(segment):  # made as they are forecast, one service at a time
        lo, hi = prepared.segments[segment]
        return (make_windows(rps[lo:hi, j], k)[0] for j in range(len(nodes)))

    valids = forecast_services(model, nodes, windows(1), "scaled")
    tests = forecast_services(model, nodes, windows(2), "original")
    scores = {}
    for j, (service, valid, test) in enumerate(zip(nodes, valids, tests)):
        (_, y_valid), (x_test, y_test) = (make_windows(rps[lo:hi, j], k)
                                          for lo, hi in prepared.segments[1:])
        mse, mae = evaluate(test, y_test)
        persistence_mse, _ = evaluate(x_test[:, -1], y_test)
        scores[service] = {
            "test_mse": mse, "test_mae": mae, "persistence_mse": persistence_mse,
            "mse_vs_persistence": mse / persistence_mse if persistence_mse > 0 else None,
            "final_valid_mse_scaled": scaled_mse(model.scalers[service], valid, y_valid),
        }
        log.info("forecaster for %s: test mse %.4f (persistence %.4f)",
                 service, mse, persistence_mse)

    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "lstm.json")
    write_json(out / "workload_metrics.json", {
        "window": k, "trace_sha256": trace_digest(prepared.trace), "fitted_on": entry,
        "final_train_mse_scaled": history[-1], "services": scores}, indent=2)
    return model


@one_blas_thread()
def train_resource(prepared: Prepared, lstm: LstmModel,
                   out: Path) -> tuple[GcnModel, dict]:
    """Fit the graph demand predictor on the forecaster's own outputs, built
    as the replay builds them (autoscaler.build_resource_dataset); writes
    gcn.json and resource_metrics.json into out and returns (model, metrics)."""
    cfg = prepared.cfg
    rps, usage = prepared.series
    out.mkdir(parents=True, exist_ok=True)
    train_set, valid_set, test_set = (
        build_resource_dataset(lstm, cfg.graph, rps[lo:hi], usage[lo:hi])
        for lo, hi in prepared.segments)
    model, _ = train_gcn(train_set, cfg.graph, cfg.gcn)
    (train_mse, _), (valid_mse, _), (test_mse, test_per_service) = (
        evaluate_gcn(model, dataset) for dataset in (train_set, valid_set, test_set))
    target_variance = float(np.var(scale_targets(model.target_scalers, train_set[1])))
    model.save(out / "gcn.json")
    metrics = {
        "window": cfg.lstm.window, "trace_sha256": trace_digest(prepared.trace),
        "samples": {"train": len(train_set[0]), "valid": len(valid_set[0]),
                    "test": len(test_set[0])},
        "train_mse_scaled": train_mse,
        "valid_mse_scaled": valid_mse,
        "test_mse_scaled": test_mse,
        "test_mse_scaled_per_service": test_per_service,
        "train_target_variance_scaled": target_variance,
    }
    write_json(out / "resource_metrics.json", metrics, indent=2)
    log.info("trained demand predictor: train %.6f test %.6f var %.6f",
             train_mse, test_mse, target_variance)
    return model, metrics


@one_blas_thread()
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
    write_json(out / "summary.json", summary, indent=2)
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
    model = train_workload(prepared, out)
    print(f"trained one forecaster for {len(model.scalers)} services into {out}")
    return 0


def cmd_train_resource(args) -> int:
    prepared = prepare(*ExperimentConfig.load(args.config))
    lstm = _load_lstm(Path(args.models), prepared.cfg)
    out = Path(args.out)
    _, metrics = train_resource(prepared, lstm, out)
    print(f"trained demand predictor into {out} (train mse "
          f"{metrics['train_mse_scaled']:.6f}, test mse {metrics['test_mse_scaled']:.6f})")
    return 0


def cmd_simulate(args) -> int:
    cfg, base_dir = ExperimentConfig.load(args.config)
    if args.seed is not None:
        cfg = replace(cfg, sim=replace(cfg.sim, seed=args.seed))
    if args.policy == "reactive":
        if args.models is not None:
            raise ValidationError("reactive policy takes no --models")
        hpa = cfg.hpa if args.threshold is None else replace(cfg.hpa, scale_out=args.threshold)
        policy = ReactivePolicy(hpa, cfg.bounds)
    elif args.models is None:
        raise ValidationError("phpa policy needs --models")
    elif args.threshold is not None:
        raise ValidationError("phpa policy takes no --threshold")
    else:
        _check_phpa_delay(cfg, args.config)
        models_dir = Path(args.models)
        policy = PredictivePolicy(_load_lstm(models_dir, cfg), _load_gcn(models_dir, cfg),
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
    from .report import check_policy_names, render_table_text, write_comparison
    prepared = prepare(*ExperimentConfig.load(args.config))
    cfg = prepared.cfg
    # The startup delay, thresholds, policy names and baseline are checked
    # before training.
    _check_phpa_delay(cfg, args.config)
    reactive = [ReactivePolicy(replace(cfg.hpa, scale_out=threshold), cfg.bounds)
                for threshold in args.thresholds]
    names = [PredictivePolicy.name, *(policy.name for policy in reactive)]
    baseline = args.baseline or names[-1]
    check_policy_names(names, baseline)
    out = Path(args.out)
    models_dir = out / "models"
    lstm = train_workload(prepared, models_dir)
    print(f"trained one forecaster for {len(lstm.scalers)} services into {models_dir}")
    gcn, metrics = train_resource(prepared, lstm, models_dir)
    print(f"trained demand predictor into {models_dir} (train mse "
          f"{metrics['train_mse_scaled']:.6f}, test mse {metrics['test_mse_scaled']:.6f})")

    policies = [PredictivePolicy(lstm, gcn, cfg.bounds), *reactive]
    logs = [replay(prepared, policy, out / "runs" / policy.name)[0] for policy in policies]
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

    p = sub.add_parser("train-workload", help="fit the forecaster the services share")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_workload)

    p = sub.add_parser("train-resource", help="fit the graph demand predictor")
    p.add_argument("--config", required=True)
    p.add_argument("--models", required=True, help="directory with lstm.json")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_resource)

    p = sub.add_parser("simulate", help="replay the test window under one policy")
    p.add_argument("--config", required=True)
    p.add_argument("--policy", choices=("phpa", "reactive"), required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="scale-out threshold override for the reactive policy")
    p.add_argument("--models", default=None,
                   help="directory with lstm.json and gcn.json (phpa only)")
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
    except OSError as exc:  # the system refused a path: an --out that is a file, say
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
