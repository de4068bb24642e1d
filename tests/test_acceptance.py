"""Acceptance suite: ten gate checks, one printed verdict line each.

Each test prints `ACCEPTANCE <n> PASS|FAIL <label>` so the suite's outcome can
be scanned from the pytest output (pass lines appear in the -rA summary).
The heavyweight artifacts (trained models, simulation runs on the bundled
trace) are built once per session by the fixtures below and shared.
"""
import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from graph_phpa.autoscaler import ScalingBounds, integrate_step
from graph_phpa.cli import main as cli_main
from graph_phpa.predict_gcn import GcnConfig, GcnModel, ServiceGraph, gcn_forward
from graph_phpa.tensor import MinMaxScaler, Rng
from graph_phpa.traces import WorkloadTrace, interpolate_to_minutes, split_dataset
from conftest import run_cli
from oracles import finite_diff_gradient, gcn_forward_oracle
from test_forecast_lstm import gradcheck_params, random_model as random_lstm
from test_predict_gcn import loss_and_grads as gcn_loss_and_grads

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "experiment.json"


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {verdict} {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


@pytest.fixture(scope="session")
def trained(tmp_path_factory):
    """Models trained on the bundled trace, with wall-clock timings."""
    out = tmp_path_factory.mktemp("acceptance_models")
    t0 = time.perf_counter()
    assert cli_main(["train-workload", "--config", str(CONFIG), "--out", str(out)]) == 0
    t1 = time.perf_counter()
    assert cli_main(["train-resource", "--config", str(CONFIG),
                     "--models", str(out), "--out", str(out)]) == 0
    t2 = time.perf_counter()
    return {
        "dir": out,
        "workload_seconds": t1 - t0,
        "resource_seconds": t2 - t1,
        "workload_metrics": json.loads((out / "workload_metrics.json").read_text()),
        "resource_metrics": json.loads((out / "resource_metrics.json").read_text()),
    }


@pytest.fixture(scope="session")
def runs(trained, tmp_path_factory):
    """Test-window simulations of every policy on the bundled trace."""
    out = tmp_path_factory.mktemp("acceptance_runs")
    plans = [
        ("phpa", ["--policy", "phpa", "--models", str(trained["dir"])]),
        ("reactive@0.9", ["--policy", "reactive", "--threshold", "0.9"]),
        ("reactive@0.7", ["--policy", "reactive", "--threshold", "0.7"]),
    ]
    dirs = {}
    for name, extra in plans:
        run_dir = out / name
        assert cli_main(["simulate", "--config", str(CONFIG), "--out", str(run_dir)]
                        + extra) == 0
        dirs[name] = run_dir
    return dirs


def load_summary(run_dir: Path) -> dict:
    return json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))


def test_01_gcn_forward_matches_dense_oracle():
    started = time.perf_counter()
    rng = Rng(1001)
    unit = MinMaxScaler(0.0, 1.0, 0.0, 1.0)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 7))          # N <= 6
        depth = int(rng.integers(1, 4))      # L <= 3
        hidden = tuple(int(rng.integers(1, 5)) for _ in range(depth - 1))
        d_in = int(rng.integers(2, 6))

        a = np.zeros((n, n))
        for i in range(1, n):
            j = int(rng.integers(0, i))
            a[i, j] = a[j, i] = 1.0
        graph = ServiceGraph(nodes=tuple(f"s{i}" for i in range(n)), adjacency=a)

        config = GcnConfig(window=d_in, hidden=hidden, epochs=1)
        widths = config.widths
        weights = [rng.normal(0.0, 0.6, (widths[i], widths[i + 1]))
                   for i in range(len(widths) - 1)]
        model = GcnModel(config, graph.nodes, weights, unit, (unit,) * n)
        x = rng.uniform(-1.0, 1.0, (n, d_in))

        got = gcn_forward(model, graph, x)
        want = np.asarray(gcn_forward_oracle(a.tolist(),
                                             [w.tolist() for w in weights],
                                             model.config.activations, x.tolist()))
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - started
    report(1, "gcn_forward equals dense layer-by-layer oracle",
           worst < 1e-9 and elapsed < 10.0,
           f"200 instances, max |diff| {worst:.2e}, {elapsed:.1f}s")


def point_rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a) + abs(n), 1e-8)


def test_02_gradient_checks():
    started = time.perf_counter()
    rng = Rng(2024)

    # LSTM: 1 layer, 3 hidden units, window 4.
    model = random_lstm(rng, 1, 3, 4)
    x = rng.uniform(-0.8, 0.8, (6, 4))
    y = rng.uniform(-0.8, 0.8, (6,))
    coords = []
    for name, analytic, numeric in gradcheck_params(model, x, y, eps=1e-5):
        analytic = np.asarray(analytic)
        for idx in np.ndindex(analytic.shape):
            coords.append((f"lstm {name}{list(idx)}", float(analytic[idx]),
                           float(numeric[idx])))
    picks = rng.permutation(len(coords))[:50]
    lstm_worst = max(point_rel_err(coords[i][1], coords[i][2]) for i in picks)

    # GCN: 4 nodes, 3 input features, 2 layers.
    graph_rng = rng.child(2)
    a = np.zeros((4, 4))
    for i, j in ((0, 1), (0, 2), (2, 3)):
        a[i, j] = a[j, i] = 1.0
    graph = ServiceGraph(nodes=("a", "b", "c", "d"), adjacency=a)
    config = GcnConfig(window=3, hidden=(4,), epochs=1)
    widths = config.widths
    weights = [graph_rng.normal(0.0, 0.5, (widths[i], widths[i + 1]))
               for i in range(len(widths) - 1)]
    gx = graph_rng.uniform(0.0, 1.0, (5, 4, 3))
    gy = graph_rng.uniform(0.0, 1.0, (5, 4, 1))
    _, grads = gcn_loss_and_grads(weights, graph.a_hat, gx, gy)
    numerics = []
    for li in range(len(weights)):
        def f(p, li=li):
            saved = weights[li]
            weights[li] = p
            try:
                loss, _ = gcn_loss_and_grads(weights, graph.a_hat, gx, gy)
            finally:
                weights[li] = saved
            return loss
        numerics.append(finite_diff_gradient(f, weights[li], 1e-5))
    gcn_coords = []
    for li in range(len(weights)):
        for idx in np.ndindex(weights[li].shape):
            gcn_coords.append((float(grads[li][idx]), float(numerics[li][idx])))
    picks = graph_rng.integers(0, len(gcn_coords), 50)
    gcn_worst = max(point_rel_err(*gcn_coords[i]) for i in picks)

    elapsed = time.perf_counter() - started
    report(2, "analytic gradients match finite differences",
           lstm_worst < 1e-4 and gcn_worst < 1e-4 and elapsed < 30.0,
           f"lstm worst {lstm_worst:.2e}, gcn worst {gcn_worst:.2e}, {elapsed:.1f}s")


def test_03_pod_integration_example_and_fuzz():
    b = ScalingBounds(r_lb=1.0, r_ub=8.0, pod_capacity=0.5, max_pods=40)
    d = integrate_step({"svc": 2.0}, {"svc": 4}, {"svc": 2.5}, {"svc": b})["svc"]
    example_ok = d.n_new - d.n_prev == 1 and d.r_new == 2.5

    rng = Rng(303)
    fuzz_ok = True
    for _ in range(1000):
        r_lb = float(rng.uniform(0.1, 3.0))
        r_ub = r_lb + float(rng.uniform(0.0, 10.0))
        v_p = float(rng.uniform(0.1, 2.0))
        q = int(rng.integers(1, 25))
        bounds = ScalingBounds(r_lb, r_ub, v_p, q)
        n_cur = int(rng.integers(1, q + 1))
        r_cur = float(rng.uniform(r_lb, r_ub))
        predicted = float(rng.uniform(-2.0, r_ub + 5.0))
        out = integrate_step({"s": r_cur}, {"s": n_cur}, {"s": predicted},
                             {"s": bounds})["s"]
        if not (1 <= out.n_new <= q and r_lb <= out.r_new <= r_ub):
            fuzz_ok = False
            break
    report(3, "pod integration worked example and 1000-case fuzz",
           example_ok and fuzz_ok,
           "R 2.0 -> 2.5 at 0.5 vCPU/pod adds exactly one pod")


def test_04_forecaster_beats_persistence(trained):
    services = trained["workload_metrics"]["services"]
    ratios = {s: m["test_mse"] / m["persistence_mse"] for s, m in services.items()}
    worst = max(ratios.values())
    ok = worst <= 0.9 and trained["workload_seconds"] < 300.0
    report(4, "forecaster test MSE at most 0.9x persistence",
           ok, f"worst ratio {worst:.3f}, trained in {trained['workload_seconds']:.0f}s")


def test_05_resource_model_fit(trained):
    m = trained["resource_metrics"]
    generalizes = m["test_mse_scaled"] <= 2.0 * m["train_mse_scaled"]
    fits = m["train_mse_scaled"] < m["train_target_variance_scaled"]
    ok = generalizes and fits and trained["resource_seconds"] < 300.0
    report(5, "resource model generalizes and beats target variance",
           ok, f"train {m['train_mse_scaled']:.5f}, test {m['test_mse_scaled']:.5f}, "
               f"variance {m['train_target_variance_scaled']:.5f}, "
               f"{trained['resource_seconds']:.0f}s")


def test_06_proactive_beats_reactive_direction(runs):
    phpa = load_summary(runs["phpa"])["totals"]
    r09 = load_summary(runs["reactive@0.9"])["totals"]
    r07 = load_summary(runs["reactive@0.7"])["totals"]
    saves_pods = phpa["pod_minutes"] < r07["pod_minutes"]
    threshold_direction = r09["pod_minutes"] < r07["pod_minutes"]
    overload_ok = phpa["overload_minutes"] <= r09["overload_minutes"]
    report(6, "proactive saves pods without extra overload",
           saves_pods and threshold_direction and overload_ok,
           f"pod-minutes phpa {phpa['pod_minutes']} / r0.9 {r09['pod_minutes']} / "
           f"r0.7 {r07['pod_minutes']}; overload phpa {phpa['overload_minutes']} "
           f"vs r0.9 {r09['overload_minutes']}")


def test_07_split_is_chronological_2400_800_800():
    train, valid, test = split_dataset(np.arange(4000.0), 0.6, 0.2)
    ok = (len(train), len(valid), len(test)) == (2400, 800, 800) \
        and test[0] == 3200.0 and test[-1] == 3999.0 \
        and np.array_equal(test, np.arange(3200.0, 4000.0))
    report(7, "4000-point split is 2400/800/800 with the last 800 as test", ok)


def test_08_cli_outputs_are_byte_identical(tiny_config_path, tiny_models_dir,
                                           tmp_path):
    def tree_bytes(d: Path) -> dict:
        return {p.relative_to(d).as_posix(): p.read_bytes()
                for p in sorted(d.rglob("*")) if p.is_file()}

    results = []

    # gen-trace
    for out in (tmp_path / "g1.csv", tmp_path / "g2.csv"):
        run_cli("gen-trace", "--pattern", "diurnal", "--length", "200",
                "--amplitude", "50", "--noise", "0.05", "--seed", "8",
                "--out", str(out))
    results.append((tmp_path / "g1.csv").read_bytes()
                   == (tmp_path / "g2.csv").read_bytes())

    # train-workload and train-resource
    for out in (tmp_path / "m1", tmp_path / "m2"):
        run_cli("train-workload", "--config", tiny_config_path, "--out", str(out))
        run_cli("train-resource", "--config", tiny_config_path,
                "--models", str(out), "--out", str(out))
    results.append(tree_bytes(tmp_path / "m1") == tree_bytes(tmp_path / "m2"))

    # simulate, both policies
    for policy, extra in (("reactive", []),
                          ("phpa", ["--models", tiny_models_dir])):
        for out in (tmp_path / f"{policy}1", tmp_path / f"{policy}2"):
            run_cli("simulate", "--config", tiny_config_path, "--policy", policy,
                    *extra, "--out", str(out))
        results.append(tree_bytes(tmp_path / f"{policy}1")
                       == tree_bytes(tmp_path / f"{policy}2"))

    # compare
    for out in (tmp_path / "c1", tmp_path / "c2"):
        run_cli("compare", "--baseline", "reactive@0.9", "--out", str(out),
                str(tmp_path / "reactive1"), str(tmp_path / "phpa1"))
    results.append(tree_bytes(tmp_path / "c1") == tree_bytes(tmp_path / "c2"))

    report(8, "every CLI command rewrites identical bytes", all(results),
           "gen-trace, train-workload, train-resource, simulate x2, compare")


def test_09_cluster_budget_never_exceeded(runs):
    worst = 0
    scanned = 0
    for run_dir in runs.values():
        by_minute: dict[int, int] = {}
        with open(run_dir / "sim.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                m = int(row["minute"])
                by_minute[m] = by_minute.get(m, 0) + int(row["pods"])
        worst = max(worst, max(by_minute.values()))
        scanned += len(by_minute)
    report(9, "no minute allocates more than 79 pods", worst <= 79,
           f"peak {worst} pods across {scanned} minute-slices")


def test_10_interpolation_conserves_totals():
    rng = Rng(1010)
    ok = True
    for _ in range(1000):
        bins = int(rng.integers(1, 40))
        counts = tuple(int(v) for v in rng.integers(0, 5000, bins))
        start = int(rng.integers(0, 500)) * 5
        trace = WorkloadTrace(resolution=5, start_minute=start, counts=counts)
        minutes = interpolate_to_minutes(trace)
        per_bin = np.asarray(minutes.counts).reshape(len(counts), 5).sum(axis=1)
        if not np.array_equal(per_bin, np.asarray(counts)):
            ok = False
            break
    report(10, "interpolation conserves every 5-minute bin exactly", ok,
           "1000 random traces")
