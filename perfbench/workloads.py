"""The three benchmark workloads: set-up, one closed-loop step, output checks.

Every operation is one CLI command run in-process through
``graph_phpa.cli.main(argv)``. A step runs its commands back to back, each
starting when the previous one returns. Output checks run after the step's
clock stops; a failed check marks the operation that wrote the output.
"""
from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
import sys
import traceback
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Scenario:
    """Inputs every workload derives from; the seed varies only what it names."""

    config: dict                  # experiment config; its trace path is absolute
    bursty_length: int            # minutes in the generated bursty trace
    bursty_split: dict            # split for the bursty replay: sets its test window
    min_decisions: int            # phpa decisions per replay-phpa step, at least
    reactive_totals: dict | None  # policy -> [pod_minutes, overload_minutes], diurnal window
    bursty_totals: dict | None    # str(seed) -> policy -> [pod_minutes, overload_minutes]


def full_scenario(root: Path) -> Scenario:
    """The bundled four-service scenario with three-epoch forecasters."""
    config = json.loads((root / "configs" / "experiment.json").read_text(encoding="utf-8"))
    config["trace"]["file"] = str((root / "data" / "diurnal_3600.csv").resolve())
    config["lstm"]["epochs"] = 3
    return Scenario(
        config=config, bursty_length=12_500, bursty_split={"train": 0.1, "valid": 0.1},
        min_decisions=1000,
        # The README's table for the bundled window.
        reactive_totals={"reactive@0.9": [12046, 15], "reactive@0.7": [15266, 13]},
        bursty_totals=json.loads((HERE / "bursty_totals.json").read_text(encoding="utf-8")))


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        for f in sorted(path.rglob("*")) if path.is_dir() else [path]:
            if f.is_file():
                h.update(f.name.encode())
                h.update(f.read_bytes())
    return h.hexdigest()


class Run:
    """Operation accounting, deferred checks and collected outputs of one run."""

    def __init__(self, program, scenario: Scenario, seed: int, rec):
        self.program = program
        self.scenario = scenario
        self.seed = seed
        self.rec = rec
        self.ops: list[str] = []
        self.failures: dict[int, str] = {}
        self.deferred: list = []
        self.first: dict[str, str] = {}
        # Workloads without models or replays report these as 0.
        self.details: dict[str, float] = {"forecast_mse_ratio": 0.0,
                                          "resource_mse_scaled": 0.0,
                                          "pod_minutes": 0, "overload_minutes": 0}
        self.decision_ms: list[float] = []
        self.collect_decisions = False
        self.sim_minutes = 0
        self.summaries: dict[str, dict] = {}
        self.notes: list[str] = []

    @contextmanager
    def op(self, label: str):
        oid = len(self.ops)
        self.ops.append(label)
        try:
            yield oid
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.fail(oid, f"{type(exc).__name__}: {exc}", traceback.format_exc())

    def fail(self, oid: int, message: str, trace: str = "") -> None:
        if oid not in self.failures:
            self.failures[oid] = f"{self.ops[oid]}: {message}"
            print(f"FAILED {self.failures[oid]}\n{trace}", file=sys.stderr)

    def later(self, oid: int, check, *args) -> None:
        self.deferred.append((oid, check, args))

    def run_checks(self) -> None:
        for oid, check, args in self.deferred:
            try:
                check(*args)
            except Exception as exc:  # a failed check fails its operation only
                self.fail(oid, f"{type(exc).__name__}: {exc}", traceback.format_exc())
        self.deferred.clear()

    def cli(self, *argv) -> str:
        argv = [str(a) for a in argv]
        out = io.StringIO()
        with self.rec.span("cli." + argv[0].replace("-", "_")), redirect_stdout(out):
            code = self.program.cli.main(argv)
        expect(code == 0, f"exit code {code}")
        return out.getvalue()

    def same_as_first(self, key: str, value: str) -> None:
        expect(self.first.setdefault(key, value) == value,
               f"{key} differs from the first run's bytes")

    def verify_inputs(self, config_path: Path, length: int | None = None) -> None:
        """Parse the config and resolve its trace with the program's own loader."""
        with self.op("load inputs"):
            cfg, base_dir = self.program.config.ExperimentConfig.load(config_path)
            trace = cfg.trace.resolve(base_dir)
            expect(trace.resolution == 1, "trace must resolve to 1-minute bins")
            expect(length is None or len(trace) == length,
                   f"trace has {len(trace)} minutes, expected {length}")

    # -- output checks --------------------------------------------------------

    def check_run_dir(self, config: dict, run_dir: Path) -> dict:
        """Pod limits per minute and summary totals that agree with sim.csv."""
        max_pods = {s: b["max_pods"] for s, b in config["bounds"].items()}
        budget = config["sim"]["max_total_pods"]
        per_minute: dict[int, int] = {}
        pod_minutes = overload = 0
        with open(run_dir / "sim.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                pods = int(row["pods"])
                expect(1 <= pods <= max_pods[row["service"]],
                       f"{row['service']} has {pods} pods at minute {row['minute']}")
                minute = int(row["minute"])
                per_minute[minute] = per_minute.get(minute, 0) + pods
                pod_minutes += pods
                overload += int(row["overloaded"])
        expect(max(per_minute.values()) <= budget,
               f"{max(per_minute.values())} pods exceed the budget {budget}")
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        totals = summary["totals"]
        expect([totals["pod_minutes"], totals["overload_minutes"]] == [pod_minutes, overload],
               f"summary.json totals disagree with sim.csv in {run_dir.name}")
        return summary

    def check_totals(self, summary: dict, expected: dict | None) -> None:
        if expected is None:
            return
        got = [summary["totals"]["pod_minutes"], summary["totals"]["overload_minutes"]]
        want = expected[summary["policy"]]
        expect(got == want, f"{summary['policy']} totals {got}, recorded {want}")

    def check_compare(self, out_dir: Path, run_dirs: list[Path]) -> None:
        table = json.loads((out_dir / "table.json").read_text(encoding="utf-8"))
        rows = {r["policy"]: [r["pod_minutes"], r["overload_minutes"]]
                for r in table["policies"]}
        for run_dir in run_dirs:
            s = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
            expect(rows.get(s["policy"]) == [s["totals"]["pod_minutes"],
                                              s["totals"]["overload_minutes"]],
                   f"compare table disagrees with {run_dir.name}/summary.json")

    def record_quality(self, models: Path) -> None:
        """Forecast and resource-model quality from the training metrics files."""
        wm = json.loads((models / "workload_metrics.json").read_text(encoding="utf-8"))
        ratios = [s["mse_vs_persistence"] for s in wm["services"].values()]
        expect(all(r is not None and math.isfinite(r) for r in ratios),
               "forecast MSE ratio missing or not finite")
        rm = json.loads((models / "resource_metrics.json").read_text(encoding="utf-8"))
        expect(math.isfinite(rm["test_mse_scaled"]), "resource test MSE not finite")
        self.details["forecast_mse_ratio"] = sum(ratios) / len(ratios)
        self.details["resource_mse_scaled"] = rm["test_mse_scaled"]

    def record_policy(self, summaries: list[dict]) -> None:
        self.details["pod_minutes"] = sum(s["totals"]["pod_minutes"] for s in summaries)
        self.details["overload_minutes"] = sum(s["totals"]["overload_minutes"]
                                               for s in summaries)


def write_config(path: Path, config: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def model_config(scenario: Scenario, seed: int) -> dict:
    config = copy.deepcopy(scenario.config)
    config["lstm"]["seed"] = seed
    config["gcn"]["seed"] = seed
    return config


def train(run: Run, config_path: Path, models: Path) -> None:
    with run.op("train-workload"):
        run.cli("train-workload", "--config", config_path, "--out", models)
    with run.op("train-resource") as oid:
        run.cli("train-resource", "--config", config_path, "--models", models, "--out", models)
        run.later(oid, run.record_quality, models)
        run.later(oid, lambda: run.same_as_first("models", digest(models)))


def simulate(run: Run, config: dict, config_path: Path, out: Path, policy: str,
             models: Path | None = None, threshold: str | None = None, expected=None,
             same_key: str | None = None) -> None:
    """One replay; checks its pods, totals and (optionally) byte-identity."""
    argv = ["simulate", "--config", config_path, "--policy", policy, "--out", out]
    argv += ["--models", models] if models else ["--threshold", threshold]
    with run.op(f"simulate {policy}{'@' + threshold if threshold else ''}") as oid:
        run.cli(*argv)

        def check():
            summary = run.summaries[out.name] = run.check_run_dir(config, out)
            run.sim_minutes += summary["horizon"]
            run.check_totals(summary, expected)
            if same_key:
                files = [out / "sim.csv"] + ([out / "decisions.csv"] if models else [])
                run.same_as_first(same_key, digest(*files))

        run.later(oid, check)


def compare(run: Run, out: Path, run_dirs: list[Path], policy_runs: list[Path]) -> None:
    """Tabulate the runs; ``policy_runs`` give the pod and overload minutes."""
    with run.op("compare") as oid:
        run.cli("compare", "--baseline", "reactive@0.7", "--out", out, *run_dirs)
        run.later(oid, run.check_compare, out, run_dirs)
        run.later(oid, lambda: run.record_policy([run.summaries[r.name] for r in policy_runs]))


class TrainDiurnal:
    """train-workload then train-resource on the bundled diurnal trace."""

    def setup(self, run: Run, d: Path):
        path = write_config(d / "experiment.json", model_config(run.scenario, run.seed))
        run.verify_inputs(path)
        return path

    def step(self, run: Run, config_path: Path, d: Path) -> None:
        train(run, config_path, d / "models")


class ReplayPhpaDiurnal:
    """Predictive replays of the held-out diurnal window, then both reactive ones."""

    def __init__(self):
        self.passes = None  # phpa passes per step, fixed by the first pass

    def setup(self, run: Run, d: Path):
        config = model_config(run.scenario, run.seed)
        path = write_config(d / "experiment.json", config)
        run.verify_inputs(path)
        train(run, path, d / "models")
        return config, path, d / "models"

    def step(self, run: Run, state, d: Path) -> None:
        config, path, models = state
        p = 0
        while p < (self.passes or 1):
            simulate(run, config, path, d / f"phpa{p}", "phpa", models=models, same_key="phpa")
            if self.passes is None:
                decisions = d / "phpa0" / "decisions.csv"
                rows = (decisions.read_text(encoding="utf-8").count("\n") - 1
                        if decisions.exists() else 0)
                per_pass = rows // len(config["graph"]["nodes"])
                self.passes = -(-run.scenario.min_decisions // per_pass) if per_pass else 1
            p += 1
        for threshold in ("0.9", "0.7"):
            simulate(run, config, path, d / f"reactive{threshold}", "reactive",
                     threshold=threshold, expected=run.scenario.reactive_totals,
                     same_key=f"diurnal{threshold}")
        runs = [d / "phpa0", d / "reactive0.9", d / "reactive0.7"]
        compare(run, d / "compare", runs, runs[:1])


class ReplayReactiveBursty:
    """Reactive replays at two thresholds of a long, noisy bursty trace."""

    def setup(self, run: Run, d: Path):
        trace = d / "trace.csv"
        with run.op("gen-trace"):
            run.cli("gen-trace", "--pattern", "bursty", "--length", run.scenario.bursty_length,
                    "--seed", run.seed, "--out", trace)
        config = copy.deepcopy(run.scenario.config)
        config["trace"] = {"file": str(trace)}
        config["demand"]["noise_sigma"] = 0.1
        config["sim"]["seed"] = run.seed
        config["split"] = dict(run.scenario.bursty_split)
        path = write_config(d / "experiment.json", config)
        run.verify_inputs(path, run.scenario.bursty_length)
        return config, path

    def step(self, run: Run, state, d: Path) -> None:
        config, path = state
        totals = (run.scenario.bursty_totals or {}).get(str(run.seed))
        if totals is None and not run.notes:
            run.notes.append(f"no recorded bursty totals for seed {run.seed}; "
                             "totals checked only for repeatability")
        for threshold in ("0.9", "0.7"):
            simulate(run, config, path, d / f"reactive{threshold}", "reactive",
                     threshold=threshold, expected=totals, same_key=f"bursty{threshold}")
        runs = [d / "reactive0.9", d / "reactive0.7"]
        compare(run, d / "compare", runs, runs)


WORKLOADS = {
    "train-diurnal": TrainDiurnal,
    "replay-phpa-diurnal": ReplayPhpaDiurnal,
    "replay-reactive-bursty": ReplayReactiveBursty,
}
