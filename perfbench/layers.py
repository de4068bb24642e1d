"""Where the traced run hooks into each module, and how spans become metrics.

Each target names the place a caller looks the function up, so the span
covers every call the program makes through that name. Every per-layer value
is the cost of one set-up plus one step: set-up spans count once, step spans
are divided by the number of traced steps.
"""
from __future__ import annotations

from tracing import Patches, Recorder, install

SETUP, STEP = 1, 2


def _count(name, fn):
    def hook(rec, args, kwargs, result):
        rec.count(name, fn(args, result))
    return hook


def _count_moves(rec, args, kwargs, result):
    pods = args[4] if len(args) > 4 else kwargs["pods"]
    targets = result[0]
    rec.count("decided", len(pods))
    rec.count("moved", sum(1 for s, n in pods.items() if targets.get(s, n) != n))


# target -> hook adding counts at the same boundary (or None). Hooks read the
# positional arguments: train_lstm(train, valid, config), predict_windows(model, x),
# forecast_series(model, values), train_gcn(train, graph, config) and
# decide(self, minute, history, utilization, pods) -> (targets, rows).
TARGETS = {
    "config:ExperimentConfig.load": None,
    "config:TraceSpec.resolve": None,
    "cli:generate_synthetic_trace": None,
    "config:generate_synthetic_trace": None,
    "cluster_sim:DemandModel.demand_series": None,
    "cluster_sim:DemandModel.propagate_workload": None,
    "cluster_sim:Rng": None,
    "cli:train_lstm": _count("lstm_windows", lambda a, r: len(a[0][0]) * a[2].epochs),
    "forecast_lstm:LstmModel.save": None,
    "forecast_lstm:LstmModel.load": None,
    "autoscaler:lstm_forward": _count("infer_rows", lambda a, r: 1),
    "cli:predict_windows": _count("infer_rows", lambda a, r: len(a[1])),
    "cli:forecast_series": _count("infer_rows", lambda a, r: len(a[1]) - a[0].config.window),
    "forecast_lstm:adam_step": None,
    "predict_gcn:adam_step": None,
    "forecast_lstm:sigmoid": None,
    "cli:build_resource_dataset": None,
    "cli:train_gcn": _count("gcn_samples", lambda a, r: len(a[0][0]) * a[2].epochs),
    "autoscaler:predict_resource": None,
    "autoscaler:predict_demand": None,
    "cluster_sim:predict_demand": None,
    "autoscaler:integrate_step": None,
    "cli:run_simulation": None,
    "cluster_sim:ReactivePolicy.decide": _count_moves,
    "cluster_sim:PredictivePolicy.decide": _count_moves,
    "cluster_sim:SimulationLog.write_csv": None,
    "cluster_sim:SimulationLog.write_decisions_csv": None,
    "cluster_sim:SimulationLog.summary": None,
    "report:load_run": None,
    "report:write_comparison": None,
}

CLI_COMMANDS = ("gen_trace", "train_workload", "train_resource", "simulate", "compare")

_INFER = ["autoscaler.lstm_forward", "cli.predict_windows", "cli.forecast_series"]
_ADAM = ["forecast_lstm.adam_step", "predict_gcn.adam_step"]
_DECIDE = ["cluster_sim.ReactivePolicy.decide", "cluster_sim.PredictivePolicy.decide"]
_PREDICT_DEMAND = ["autoscaler.predict_demand", "cluster_sim.predict_demand"]
_PROPAGATE = ["cluster_sim.DemandModel.propagate_workload"]
_RUN_SIM = ["cli.run_simulation"]

# name -> (unit, better, kind, spans, counter)
PER_LAYER = {}
for _cmd in CLI_COMMANDS:
    PER_LAYER[f"cli.{_cmd}_s"] = ("s", "lower", "total", [f"cli.{_cmd}"], None)
    PER_LAYER[f"cli.{_cmd}_self_s"] = ("s", "lower", "self", [f"cli.{_cmd}"], None)
PER_LAYER.update({
    "config.load_s": ("s", "lower", "total", ["config.ExperimentConfig.load"], None),
    "traces.resolve_s": ("s", "lower", "total", ["config.TraceSpec.resolve"], None),
    "traces.generate_s": ("s", "lower", "total", ["cli.generate_synthetic_trace",
                                                  "config.generate_synthetic_trace"], None),
    "cluster_sim.demand_series_s": ("s", "lower", "total",
                                    ["cluster_sim.DemandModel.demand_series"], None),
    "cluster_sim.propagate_calls": ("count", "lower", "calls", _PROPAGATE, None),
    "cluster_sim.propagate_us_mean": ("us", "lower", "us_mean", _PROPAGATE, None),
    "tensor.rng_calls": ("count", "lower", "calls", ["cluster_sim.Rng.__init__"], None),
    "tensor.rng_s": ("s", "lower", "total", ["cluster_sim.Rng.__init__",
                                             "cluster_sim.Rng.normal"], None),
    "forecast_lstm.train_s": ("s", "lower", "total", ["cli.train_lstm"], None),
    "forecast_lstm.train_windows": ("count", "higher", "count", [], "lstm_windows"),
    "forecast_lstm.windows_per_s": ("1/s", "higher", "rate", ["cli.train_lstm"],
                                    "lstm_windows"),
    "forecast_lstm.model_io_s": ("s", "lower", "total", ["forecast_lstm.LstmModel.save",
                                                         "forecast_lstm.LstmModel.load"], None),
    "forecast_lstm.infer_calls": ("count", "lower", "calls", _INFER, None),
    "forecast_lstm.infer_rows_per_call": ("count", "higher", "per_call", _INFER,
                                          "infer_rows"),
    "forecast_lstm.infer_s": ("s", "lower", "total", _INFER, None),
    "tensor.adam_step_calls": ("count", "lower", "calls", _ADAM, None),
    "tensor.adam_step_s": ("s", "lower", "total", _ADAM, None),
    "tensor.sigmoid_calls": ("count", "lower", "calls", ["forecast_lstm.sigmoid"], None),
    "tensor.sigmoid_s": ("s", "lower", "total", ["forecast_lstm.sigmoid"], None),
    "predict_gcn.build_dataset_s": ("s", "lower", "total", ["cli.build_resource_dataset"],
                                    None),
    "predict_gcn.train_s": ("s", "lower", "total", ["cli.train_gcn"], None),
    "predict_gcn.train_samples": ("count", "higher", "count", [], "gcn_samples"),
    "predict_gcn.predict_calls": ("count", "lower", "calls",
                                  ["autoscaler.predict_resource"], None),
    "predict_gcn.predict_us_mean": ("us", "lower", "us_mean",
                                    ["autoscaler.predict_resource"], None),
    "autoscaler.predict_demand_calls": ("count", "lower", "calls", _PREDICT_DEMAND, None),
    "autoscaler.predict_demand_s": ("s", "lower", "total", _PREDICT_DEMAND, None),
    "autoscaler.integrate_step_us_mean": ("us", "lower", "us_mean",
                                          ["autoscaler.integrate_step"], None),
    "cluster_sim.run_simulation_s": ("s", "lower", "total", _RUN_SIM, None),
    "cluster_sim.loop_self_s": ("s", "lower", "self", _RUN_SIM, None),
    "cluster_sim.decide_calls": ("count", "lower", "calls", _DECIDE, None),
    "cluster_sim.decide_s": ("s", "lower", "total", _DECIDE, None),
    "cluster_sim.moved_frac": ("ratio", "lower", "frac", [], ("moved", "decided")),
    "cluster_sim.write_csv_s": ("s", "lower", "total",
                                ["cluster_sim.SimulationLog.write_csv",
                                 "cluster_sim.SimulationLog.write_decisions_csv"], None),
    "cluster_sim.summary_s": ("s", "lower", "total", ["cluster_sim.SimulationLog.summary"],
                              None),
    "report.load_run_s": ("s", "lower", "total", ["report.load_run"], None),
    "report.write_comparison_s": ("s", "lower", "total", ["report.write_comparison"], None),
})


def install_all(rec: Recorder, package: str = "graph_phpa") -> Patches:
    patches = Patches(package)
    for target, hook in TARGETS.items():
        install(patches, rec, target, hook)
    return patches


def layer_metrics(rec: Recorder, traced_steps: int) -> dict[str, float]:
    """Per-layer values for one set-up plus one step of the traced run."""
    n = max(traced_steps, 1)
    spans: dict[str, list[float]] = {}
    for phase, scale in ((SETUP, 1.0), (STEP, 1.0 / n)):
        for name, (calls, total, self_s) in rec.totals(phase).items():
            acc = spans.setdefault(name, [0.0, 0.0, 0.0])
            acc[0] += calls * scale
            acc[1] += total * scale
            acc[2] += self_s * scale
    counters: dict[str, float] = {}
    for (phase, name), value in rec.counters.items():
        scale = 1.0 if phase == SETUP else 1.0 / n
        counters[name] = counters.get(name, 0.0) + value * scale

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric, (_, _, kind, names, counter) in PER_LAYER.items():
        if kind == "frac":
            out[metric] = ratio(*(counters.get(c, 0.0) for c in counter))
            continue
        calls, total, self_s = (sum(spans.get(s, (0.0, 0.0, 0.0))[i] for s in names)
                                for i in range(3))
        count = counters.get(counter, 0.0)
        out[metric] = {"total": total, "self": self_s, "calls": calls,
                       "us_mean": ratio(total, calls) * 1e6, "count": count,
                       "per_call": ratio(count, calls), "rate": ratio(count, total)}[kind]
    return out
