"""Command-line workflow tests on a small configuration."""
import json
import math
import shutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import TINY_CONFIG, run_cli
from graph_phpa import cli, tensor
from graph_phpa.cluster_sim import SimulationLog
from graph_phpa.config import ExperimentConfig, TraceSpec
from graph_phpa.errors import DivergenceError
from graph_phpa.forecast_lstm import LstmConfig, LstmLayer, LstmModel, predict_windows
from graph_phpa.report import load_run
from graph_phpa.tensor import MinMaxScaler


def negative_forecaster(k: int) -> LstmModel:
    """Zero-weight LSTM pinned to -0.9 in scaled units: -6.25 rps on a 0-100 scale."""
    hidden = 2
    layer = LstmLayer(np.zeros((1, 4 * hidden)), np.zeros((hidden, 4 * hidden)),
                      np.zeros(4 * hidden))
    return LstmModel(LstmConfig(window=k, hidden_units=hidden), [layer],
                     np.zeros((hidden, 1)), math.atanh(-0.9), MinMaxScaler(0.0, 100.0))


class TestGenTrace:
    def test_writes_deterministic_csv(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["gen-trace", "--pattern", "sine", "--length", "100",
                "--amplitude", "30", "--seed", "4"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        out = capsys.readouterr().out
        assert "wrote 100 bins" in out
        assert "sha256" in out

    def test_different_seed_changes_content(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("gen-trace", "--pattern", "bursty", "--length", "100",
                "--amplitude", "30", "--noise", "0.1", "--seed", "1", "--out", str(a))
        run_cli("gen-trace", "--pattern", "bursty", "--length", "100",
                "--amplitude", "30", "--noise", "0.1", "--seed", "2", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()


class TestTraining:
    def test_train_workload_outputs(self, tiny_models_dir):
        d = Path(tiny_models_dir)
        assert (d / "lstm_front.json").exists()
        assert (d / "lstm_back.json").exists()
        metrics = json.loads((d / "workload_metrics.json").read_text(encoding="utf-8"))
        assert set(metrics["services"]) == {"front", "back"}
        for entry in metrics["services"].values():
            assert entry["test_mse"] >= 0.0
            assert entry["persistence_mse"] > 0.0

    def test_train_resource_outputs(self, tiny_models_dir):
        d = Path(tiny_models_dir)
        assert (d / "gcn.json").exists()
        metrics = json.loads((d / "resource_metrics.json").read_text(encoding="utf-8"))
        assert metrics["samples"]["train"] > metrics["samples"]["test"]
        assert metrics["train_mse_scaled"] >= 0.0
        assert set(metrics["test_mse_scaled_per_service"]) == {"front", "back"}

    def test_training_features_clamp_negative_forecasts(self, tiny_config_path, tmp_path,
                                                       monkeypatch):
        # Replay clamps forecasts at zero, so the graph predictor must be
        # trained on clamped forecasts too.
        k = TINY_CONFIG["lstm"]["window"]
        model = negative_forecaster(k)
        assert np.all(predict_windows(model, np.full((3, k), 50.0)) < 0)
        for service in TINY_CONFIG["graph"]["nodes"]:
            model.save(tmp_path / f"lstm_{service}.json")
        features = []
        build = cli.build_resource_dataset

        def recording(*args, **kwargs):
            x, y = build(*args, **kwargs)
            features.append(x)
            return x, y

        monkeypatch.setattr(cli, "build_resource_dataset", recording)
        assert run_cli("train-resource", "--config", tiny_config_path,
                       "--models", str(tmp_path), "--out", str(tmp_path / "out")) == 0
        assert len(features) == 3  # train, valid and test segments
        for x in features:
            assert np.all(x[..., -1] == 0.0)

    def test_train_resource_without_models_fails_cleanly(self, tiny_config_path,
                                                         tmp_path, capsys):
        code = run_cli("train-resource", "--config", tiny_config_path,
                       "--models", str(tmp_path), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "missing forecaster model" in capsys.readouterr().err


class TestMalformedModelFiles:
    """A corrupt model file exits with code 2 and a message naming the bad
    key, never with a traceback."""

    @staticmethod
    def corrupt(models_dir: str, tmp_path: Path, name: str, edit) -> Path:
        out = tmp_path / "models"
        shutil.copytree(models_dir, out)
        doc = json.loads((out / name).read_text(encoding="utf-8"))
        edit(doc)
        (out / name).write_text(json.dumps(doc), encoding="utf-8")
        return out

    def simulate_phpa(self, config: str, models: Path, tmp_path: Path) -> int:
        return run_cli("simulate", "--config", config, "--policy", "phpa",
                       "--models", str(models), "--out", str(tmp_path / "run"))

    def test_vector_last_gcn_weight(self, tiny_config_path, tiny_models_dir, tmp_path,
                                    capsys):
        def flatten_last(doc):
            doc["weights"][-1] = [row[0] for row in doc["weights"][-1]]
        models = self.corrupt(tiny_models_dir, tmp_path, "gcn.json", flatten_last)
        assert self.simulate_phpa(tiny_config_path, models, tmp_path) == 2
        assert "weights[1] must be a matrix" in capsys.readouterr().err

    def test_missing_scaler_key(self, tiny_config_path, tiny_models_dir, tmp_path, capsys):
        models = self.corrupt(tiny_models_dir, tmp_path, "lstm_back.json",
                              lambda doc: doc["scaler"].pop("hi"))
        code = run_cli("train-resource", "--config", tiny_config_path,
                       "--models", str(models), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "scaler is missing key 'hi'" in capsys.readouterr().err

    @pytest.mark.parametrize("name, where", [("gcn.json", "gcn config"),
                                             ("lstm_front.json", "lstm config")])
    def test_unknown_config_key(self, tiny_config_path, tiny_models_dir, tmp_path, capsys,
                                name, where):
        models = self.corrupt(tiny_models_dir, tmp_path, name,
                              lambda doc: doc["config"].update(dropout=0.5))
        assert self.simulate_phpa(tiny_config_path, models, tmp_path) == 2
        assert f"unknown key 'dropout' in {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, message", [
        pytest.param("lstm_front.json", lambda doc: doc["config"].update(window="5"),
                     "lstm config 'window' must be an integer, got '5'", id="lstm-window-string"),
        pytest.param("lstm_front.json", lambda doc: doc.update(layers=5),
                     "lstm model 'layers' must be a list", id="lstm-layers-number"),
        pytest.param("lstm_front.json", lambda doc: doc.update(head_bias=[1.0]),
                     "lstm model 'head_bias' must be a finite number", id="lstm-head-bias-list"),
        pytest.param("lstm_back.json", lambda doc: doc["scaler"].update(lo="a"),
                     "scaler 'lo' must be a finite number, got 'a'", id="scaler-lo-string"),
        pytest.param("lstm_back.json", lambda doc: doc["scaler"].update(lo=float("nan")),
                     "scaler 'lo' must be a finite number, got nan", id="scaler-lo-nan"),
        pytest.param("lstm_back.json", lambda doc: doc["layers"][0]["w_h"][1].pop(),
                     "lstm layers[0] 'w_h' must be a rectangular array", id="lstm-ragged-w_h"),
        pytest.param("gcn.json", lambda doc: doc["config"].update(hidden=8),
                     "gcn config 'hidden' must be a list", id="gcn-hidden-number"),
        pytest.param("gcn.json", lambda doc: doc.update(weights=3),
                     "gcn model 'weights' must be a list", id="gcn-weights-number"),
        pytest.param("gcn.json", lambda doc: doc["weights"][0][2].pop(),
                     "gcn weights[0] must be a rectangular array", id="gcn-ragged-weight"),
        pytest.param("gcn.json", lambda doc: doc["feature_scaler"].update(hi=None),
                     "scaler 'hi' must be a finite number, got None", id="scaler-hi-null"),
    ])
    def test_value_of_the_wrong_type(self, tiny_config_path, tiny_models_dir, tmp_path, capsys,
                                     name, edit, message):
        models = self.corrupt(tiny_models_dir, tmp_path, name, edit)
        assert self.simulate_phpa(tiny_config_path, models, tmp_path) == 2
        assert message in capsys.readouterr().err

    def test_truncated_file(self, tiny_config_path, tiny_models_dir, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(tiny_models_dir, models)
        text = (models / "gcn.json").read_text(encoding="utf-8")
        (models / "gcn.json").write_text(text[:len(text) // 2], encoding="utf-8")
        assert self.simulate_phpa(tiny_config_path, models, tmp_path) == 2
        assert "gcn.json is not valid JSON" in capsys.readouterr().err


def train_both(config: str, out: Path) -> dict[str, bytes]:
    """train-workload then train-resource into out; every written file's bytes."""
    assert run_cli("train-workload", "--config", config, "--out", str(out)) == 0
    assert run_cli("train-resource", "--config", config, "--models", str(out),
                   "--out", str(out)) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestConcurrentTraining:
    """The per-service fits and forecasts run on threads; results must not show it."""

    def test_any_worker_count_writes_identical_files(self, tiny_config_path, tmp_path,
                                                      monkeypatch):
        # Four workers exceed the cores and the two forecasters; with a short
        # switch interval the threads interleave as often as they can.
        outputs = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for workers in (1, 2, 4):
                monkeypatch.setattr(cli, "_worker_count",
                                    lambda tasks, w=workers: min(tasks, w))
                outputs[workers] = train_both(tiny_config_path, tmp_path / f"w{workers}")
        finally:
            sys.setswitchinterval(interval)
        assert len(outputs[1]) == 5  # two forecasters, the GCN and both metrics files
        assert outputs[1] == outputs[2] == outputs[4]

    def test_tasks_run_on_worker_threads_in_order(self, monkeypatch):
        monkeypatch.setattr(cli, "_worker_count", lambda tasks: 2)
        seen = []

        def task(i):
            seen.append(threading.get_ident())
            return i * i

        results = cli._map_tasks(task, [(i,) for i in range(6)])
        assert results == [i * i for i in range(6)]
        if tensor._openblas_thread_api() is not None:
            assert threading.get_ident() not in seen

    def test_blas_pin_restores_the_thread_count(self):
        api = tensor._openblas_thread_api()
        if api is None:
            pytest.skip("numpy did not load an OpenBLAS")
        get, set_ = api
        before = get()
        try:
            set_(2)
            with tensor.one_blas_thread() as pinned:
                assert pinned
                assert get() == 1
            assert get() == 2
            with pytest.raises(RuntimeError), tensor.one_blas_thread():
                raise RuntimeError("boom")
            assert get() == 2
        finally:
            set_(before)

    def test_without_openblas_nothing_is_pinned_and_one_worker_runs(self, monkeypatch):
        monkeypatch.setattr(tensor, "_openblas_thread_api", lambda: None)
        monkeypatch.setattr(cli, "_worker_count", lambda tasks: 2)
        with tensor.one_blas_thread() as pinned:
            assert not pinned
        seen = []
        cli._map_tasks(lambda i: seen.append(threading.get_ident()), [(i,) for i in range(4)])
        assert seen == [threading.get_ident()] * 4

    def test_a_failing_fit_exits_with_its_error(self, tiny_config_path, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setattr(cli, "_worker_count", lambda tasks: min(tasks, 2))
        train = cli.train_lstm

        def failing(train_set, valid_set, config, service_id=None):
            if service_id == "back":
                raise DivergenceError("training loss diverged at epoch 3", epoch=3)
            return train(train_set, valid_set, config, service_id=service_id)

        monkeypatch.setattr(cli, "train_lstm", failing)
        code = run_cli("train-workload", "--config", tiny_config_path,
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert "error: training loss diverged at epoch 3" in capsys.readouterr().err
        assert not (tmp_path / "out" / "workload_metrics.json").exists()


class TestSimulate:
    def test_reactive_run_layout(self, tiny_config_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("simulate", "--config", tiny_config_path, "--policy", "reactive",
                       "--out", str(out))
        assert code == 0
        assert "reactive@0.9" in capsys.readouterr().out
        log = load_run(out)
        # Test window of a 400-minute trace: the last 80 minutes, 2 services.
        assert log.horizon == 80
        assert log.start_minute == 320
        assert log.pods.shape == (80, 2)
        assert not (out / "decisions.csv").exists()

    def test_summary_computed_once(self, tiny_config_path, tmp_path, monkeypatch, capsys):
        calls = []
        summary = SimulationLog.summary

        def counting(self):
            calls.append(self.policy_name)
            return summary(self)

        monkeypatch.setattr(SimulationLog, "summary", counting)
        assert run_cli("simulate", "--config", tiny_config_path, "--policy", "reactive",
                       "--out", str(tmp_path / "r")) == 0
        assert calls == ["reactive@0.9"]
        saved = json.loads((tmp_path / "r" / "summary.json").read_text(encoding="utf-8"))
        assert f"pod_minutes={saved['totals']['pod_minutes']}" in capsys.readouterr().out

    def test_threshold_override_changes_policy_name(self, tiny_config_path, tmp_path):
        out = tmp_path / "run"
        run_cli("simulate", "--config", tiny_config_path, "--policy", "reactive",
                "--threshold", "0.7", "--out", str(out))
        assert load_run(out).policy_name == "reactive@0.7"

    def test_phpa_run_writes_decisions(self, tiny_config_path, tiny_models_dir,
                                       tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "--config", tiny_config_path, "--policy", "phpa",
                       "--models", tiny_models_dir, "--out", str(out))
        assert code == 0
        assert (out / "decisions.csv").exists()
        log = load_run(out)
        assert log.policy_name == "phpa"
        assert log.pods.min() >= 1 and log.pods.max() <= 5

    def test_phpa_without_models_fails(self, tiny_config_path, tmp_path, capsys):
        code = run_cli("simulate", "--config", tiny_config_path, "--policy", "phpa",
                       "--out", str(tmp_path / "run"))
        assert code == 2
        assert "needs --models" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tiny_config_path, tiny_models_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("simulate", "--config", tiny_config_path, "--policy", "phpa",
                    "--models", tiny_models_dir, "--out", str(out))
        for name in ("sim.csv", "summary.json", "decisions.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_noise(self, tiny_config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--config", tiny_config_path, "--policy", "reactive",
                "--out", str(a))
        run_cli("simulate", "--config", tiny_config_path, "--policy", "reactive",
                "--seed", "999", "--out", str(b))
        sa = json.loads((a / "summary.json").read_text(encoding="utf-8"))
        sb = json.loads((b / "summary.json").read_text(encoding="utf-8"))
        assert sa["seed"] != sb["seed"]
        assert sa["services"] != sb["services"]

    def test_missing_config_fails_cleanly(self, tmp_path, capsys):
        code = run_cli("simulate", "--config", str(tmp_path / "nope.json"),
                       "--policy", "reactive", "--out", str(tmp_path / "run"))
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestCompare:
    def test_compare_two_runs(self, tiny_config_path, tiny_models_dir, tmp_path,
                              capsys):
        phpa = tmp_path / "phpa"
        react = tmp_path / "react"
        run_cli("simulate", "--config", tiny_config_path, "--policy", "phpa",
                "--models", tiny_models_dir, "--out", str(phpa))
        run_cli("simulate", "--config", tiny_config_path, "--policy", "reactive",
                "--out", str(react))
        capsys.readouterr()
        out = tmp_path / "cmp"
        code = run_cli("compare", "--baseline", "reactive@0.9", "--out", str(out),
                       str(phpa), str(react))
        assert code == 0
        stdout = capsys.readouterr().out
        assert "phpa" in stdout and "reactive@0.9" in stdout
        table = json.loads((out / "table.json").read_text(encoding="utf-8"))
        assert table["baseline"] == "reactive@0.9"
        assert (out / "pods_front.svg").exists()

    def test_mismatched_runs_rejected(self, tiny_config_path, tiny_models_dir,
                                      tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_cli("simulate", "--config", tiny_config_path, "--policy", "reactive",
                "--out", str(a))
        run_cli("simulate", "--config", tiny_config_path, "--policy", "phpa",
                "--models", tiny_models_dir, "--seed", "99", "--out", str(b))
        code = run_cli("compare", "--baseline", "reactive@0.9",
                       "--out", str(tmp_path / "cmp"), str(a), str(b))
        assert code == 2
        assert "differ in" in capsys.readouterr().err


class TestExperiment:
    def test_full_pipeline_layout(self, tiny_config_path, tmp_path, capsys):
        out = tmp_path / "exp"
        code = run_cli("experiment", "--config", tiny_config_path, "--out", str(out),
                       "--thresholds", "0.9", "0.7")
        assert code == 0
        stdout = capsys.readouterr().out
        assert "phpa" in stdout
        assert (out / "models" / "gcn.json").exists()
        assert (out / "runs" / "phpa" / "sim.csv").exists()
        assert (out / "runs" / "reactive@0.9" / "sim.csv").exists()
        assert (out / "runs" / "reactive@0.7" / "sim.csv").exists()
        table = json.loads((out / "comparison" / "table.json").read_text(encoding="utf-8"))
        # Default baseline is the last reactive threshold given.
        assert table["baseline"] == "reactive@0.7"
        assert len(table["policies"]) == 3

    def test_one_pass_writes_what_the_separate_commands_write(
            self, tiny_config_path, tiny_models_dir, tmp_path, monkeypatch):
        # experiment prepares once: one config load and one trace resolution
        # for training, both replays and the comparison.
        calls = []
        load, resolve = ExperimentConfig.load, TraceSpec.resolve

        def counting_load(path):
            calls.append("load")
            return load(path)

        def counting_resolve(spec, base_dir):
            calls.append("resolve")
            return resolve(spec, base_dir)

        monkeypatch.setattr(ExperimentConfig, "load", staticmethod(counting_load))
        monkeypatch.setattr(TraceSpec, "resolve", counting_resolve)
        exp = tmp_path / "exp"
        assert run_cli("experiment", "--config", tiny_config_path, "--out", str(exp),
                       "--thresholds", "0.9", "0.7") == 0
        assert sorted(calls) == ["load", "resolve"]

        # tiny_models_dir holds what train-workload and train-resource wrote.
        sep = tmp_path / "sep"
        shutil.copytree(tiny_models_dir, sep / "models")
        runs = [sep / "runs" / name for name in ("phpa", "reactive@0.9", "reactive@0.7")]
        assert run_cli("simulate", "--config", tiny_config_path, "--policy", "phpa",
                       "--models", tiny_models_dir, "--out", str(runs[0])) == 0
        for threshold, run in zip(("0.9", "0.7"), runs[1:]):
            assert run_cli("simulate", "--config", tiny_config_path, "--policy", "reactive",
                           "--threshold", threshold, "--out", str(run)) == 0
        assert run_cli("compare", "--baseline", "reactive@0.7",
                       "--out", str(sep / "comparison"), *map(str, runs)) == 0

        def files(root: Path) -> dict:
            return {p.relative_to(root): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        written = files(exp)
        assert len(written) == 16  # 5 model files, 3 + 2 + 2 in the runs, 4 compared
        assert written == files(sep)

    def test_runs_share_the_same_window(self, tiny_config_path, tmp_path):
        out = tmp_path / "exp"
        run_cli("experiment", "--config", tiny_config_path, "--out", str(out),
                "--thresholds", "0.9")
        logs = [load_run(out / "runs" / name) for name in ("phpa", "reactive@0.9")]
        assert logs[0].trace_sha256 == logs[1].trace_sha256
        assert logs[0].start_minute == logs[1].start_minute
        assert logs[0].horizon == logs[1].horizon
