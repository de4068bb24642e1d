"""Command-line workflow tests on a small configuration."""
import copy
import json
import math
import multiprocessing
import os
import pickle
import shutil
import signal
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from conftest import TINY_CONFIG, mutations, run_cli
from graph_phpa import cli, tensor
from graph_phpa.cluster_sim import SimulationLog
from graph_phpa.config import ExperimentConfig, TraceSpec
from graph_phpa.errors import DivergenceError, RunMismatchError, TraceFormatError
from graph_phpa.forecast_lstm import (LstmConfig, LstmLayer, LstmModel, forecast_series,
                                      make_windows, predict_windows)
from graph_phpa.predict_gcn import GcnModel, build_resource_dataset, scale_targets
from graph_phpa.report import load_run
from graph_phpa.tensor import MinMaxScaler
from oracles import gcn_forward_scaled_oracle, lstm_forward_scaled_oracle


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

    @pytest.mark.parametrize("period", ["0", "-0.0", "1e-320"])
    def test_degenerate_period_exits_2(self, tmp_path, capsys, period):
        out = tmp_path / "t.csv"
        assert run_cli("gen-trace", f"--period={period}", "--out", str(out)) == 2
        assert "error: period " in capsys.readouterr().err
        assert not out.exists()

    def test_negative_noise_exits_2(self, tmp_path, capsys):
        # A negative jitter used to be skipped: a noise-free trace and exit 0.
        out = tmp_path / "t.csv"
        assert run_cli("gen-trace", "--noise", "-1", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: noise must be >= 0, got -1.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("option, message", [
        # These ran to exit 0: a negative level clipped to 0, and counts past
        # 2**53 that float64 cannot hold exactly.
        ("--base=-1", "base must be >= 0, got -1.0"),
        ("--amplitude=-1", "amplitude must be >= 0, got -1.0"),
        ("--base=1e16", "base 1e+16, amplitude 140.0 and noise 0.0 give diurnal counts above "
                        "2**53, more than float64 holds exactly"),
    ])
    def test_out_of_range_level_exits_2(self, tmp_path, capsys, option, message):
        out = tmp_path / "t.csv"
        assert run_cli("gen-trace", option, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


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

    def test_validation_mse_equals_an_independent_evaluation(self, tiny_config_path,
                                                             tiny_models_dir):
        # Each fit's recorded validation MSE is its returned model's, scored on
        # the validation segment through the oracles' forwards, bit for bit.
        prepared = cli.prepare(*ExperimentConfig.load(tiny_config_path))
        cfg, (lo, hi) = prepared.cfg, prepared.segments[1]
        rps, usage = ({s: v[lo:hi] for s, v in table.items()} for table in prepared.series)
        d = Path(tiny_models_dir)
        workload = json.loads((d / "workload_metrics.json").read_text(encoding="utf-8"))
        models = {s: LstmModel.load(d / f"lstm_{s}.json") for s in cfg.graph.nodes}
        for service, model in models.items():
            x, y = make_windows(rps[service], cfg.lstm.window)
            yhat, _ = lstm_forward_scaled_oracle(model.params, model.scaler.transform(x))
            assert workload["services"][service]["final_valid_mse_scaled"] == float(
                np.mean((yhat - model.scaler.transform(y)) ** 2))

        gcn = GcnModel.load(d / "gcn.json")
        forecasts = {s: forecast_series(m, rps[s]) for s, m in models.items()}
        x, y = build_resource_dataset(rps, forecasts, usage, cfg.graph.nodes, cfg.lstm.window)
        out, _ = gcn_forward_scaled_oracle(gcn.weights, gcn.config.activations, cfg.graph.a_hat,
                                           gcn.feature_scaler.transform(x))
        resource = json.loads((d / "resource_metrics.json").read_text(encoding="utf-8"))
        assert resource["valid_mse_scaled"] == float(
            np.mean((out - scale_targets(gcn.target_scalers, y)) ** 2))

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
        assert f"cannot read {tmp_path / 'lstm_front.json'}" in capsys.readouterr().err


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
        assert f"{models / 'gcn.json'}: weights[1] must be a matrix" in capsys.readouterr().err

    def test_missing_scaler_key(self, tiny_config_path, tiny_models_dir, tmp_path, capsys):
        models = self.corrupt(tiny_models_dir, tmp_path, "lstm_back.json",
                              lambda doc: doc["scaler"].pop("hi"))
        code = run_cli("train-resource", "--config", tiny_config_path,
                       "--models", str(models), "--out", str(tmp_path / "out"))
        assert code == 2
        assert (f"{models / 'lstm_back.json'}: missing required key 'hi' in scaler"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name", ["gcn.json", "lstm_front.json"])
    def test_unknown_config_key(self, tiny_config_path, tiny_models_dir, tmp_path, capsys, name):
        models = self.corrupt(tiny_models_dir, tmp_path, name,
                              lambda doc: doc["config"].update(dropout=0.5))
        assert self.simulate_phpa(tiny_config_path, models, tmp_path) == 2
        assert f"{models / name}: unknown key 'dropout' in config" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, message", [
        pytest.param("lstm_front.json", lambda doc: doc["config"].update(window="5"),
                     "config.window must be an integer, got '5'", id="lstm-window-string"),
        pytest.param("lstm_front.json", lambda doc: doc.update(layers=5),
                     "layers must be a list", id="lstm-layers-number"),
        pytest.param("lstm_front.json", lambda doc: doc.update(head_bias=[1.0]),
                     "head_bias must be a finite number", id="lstm-head-bias-list"),
        pytest.param("lstm_back.json", lambda doc: doc["scaler"].update(lo="a"),
                     "scaler.lo must be a finite number, got 'a'", id="scaler-lo-string"),
        pytest.param("lstm_back.json", lambda doc: doc["scaler"].update(lo=float("nan")),
                     "scaler.lo must be a finite number, got nan", id="scaler-lo-nan"),
        pytest.param("lstm_back.json", lambda doc: doc["layers"][0]["w_h"][1].pop(),
                     "layers[0].w_h must be a rectangular array", id="lstm-ragged-w_h"),
        pytest.param("gcn.json", lambda doc: doc["config"].update(hidden=8),
                     "config.hidden must be a list", id="gcn-hidden-number"),
        pytest.param("gcn.json", lambda doc: doc.update(weights=3),
                     "weights must be a list", id="gcn-weights-number"),
        pytest.param("gcn.json", lambda doc: doc["weights"][0][2].pop(),
                     "weights[0] must be a rectangular array", id="gcn-ragged-weight"),
        pytest.param("gcn.json", lambda doc: doc["feature_scaler"].update(hi=None),
                     "feature_scaler.hi must be a finite number, got None", id="scaler-hi-null"),
        # Values of the right type the replay cannot use. These failed mid-replay
        # without naming a file, or with a ZeroDivisionError.
        pytest.param("lstm_front.json", lambda doc: doc["config"].update(window=6),
                     "config.window 6 is not the config's lstm.window 5", id="lstm-other-window"),
        pytest.param("gcn.json", lambda doc: doc.update(nodes=["back", "front"]),
                     "nodes ['back', 'front'] are not the config's graph.nodes "
                     "['front', 'back']", id="gcn-other-nodes"),
        pytest.param("gcn.json", lambda doc: doc["target_scalers"][0].update(out_lo=1.0),
                     "target_scalers[0].out_lo 1.0 must be below target_scalers[0].out_hi 1.0",
                     id="scaler-empty-output-range"),
    ])
    def test_value_of_the_wrong_type(self, tiny_config_path, tiny_models_dir, tmp_path, capsys,
                                     name, edit, message):
        # Every message starts with the file: one of N forecasters is at fault.
        models = self.corrupt(tiny_models_dir, tmp_path, name, edit)
        assert self.simulate_phpa(tiny_config_path, models, tmp_path) == 2
        assert f"{models / name}: {message}" in capsys.readouterr().err

    def test_missing_file(self, tiny_config_path, tiny_models_dir, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(tiny_models_dir, models)
        (models / "gcn.json").unlink()
        assert self.simulate_phpa(tiny_config_path, models, tmp_path) == 2
        assert f"cannot read {models / 'gcn.json'}: No such file" in capsys.readouterr().err

    def test_truncated_file(self, tiny_config_path, tiny_models_dir, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(tiny_models_dir, models)
        text = (models / "gcn.json").read_text(encoding="utf-8")
        (models / "gcn.json").write_text(text[:len(text) // 2], encoding="utf-8")
        assert self.simulate_phpa(tiny_config_path, models, tmp_path) == 2
        assert "gcn.json is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["gcn.json", "lstm_back.json"])
    def test_every_single_mutation_exits_0_or_2_naming_the_file(
            self, tiny_config_path, tiny_models_dir, tmp_path, capsys, name):
        # Every key and the first element of every list, each set to each of
        # MUTANT_VALUES and dropped, and an extra key in each object.
        models = tmp_path / "models"
        shutil.copytree(tiny_models_dir, models)
        original = json.loads((models / name).read_text(encoding="utf-8"))
        faults, unnamed, admitted = [], [], []
        sweep = list(mutations(original, first_elements=True))
        for label, _, edit in sweep:
            doc = copy.deepcopy(original)
            edit(doc)
            (models / name).write_text(json.dumps(doc), encoding="utf-8")
            try:
                code = self.simulate_phpa(tiny_config_path, models, tmp_path)
            except Exception as exc:  # collected: any exception is a fault
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            if code not in (0, 2):
                faults.append((label, code))
            elif code == 2 and not err.startswith(f"error: {models / name}: "):
                unnamed.append((label, err))
            elif code == 0:
                admitted.append(label)
        assert len(sweep) > 200
        assert faults == []
        assert unnamed == []
        # No key of a model file takes true or false. A true first weight
        # used to load as 1.0 and run.
        assert [label for label in admitted if label.endswith("=True")] == []


def train_both(config: str, out: Path) -> dict[str, bytes]:
    """train-workload then train-resource into out; every written file's bytes."""
    assert run_cli("train-workload", "--config", config, "--out", str(out)) == 0
    assert run_cli("train-resource", "--config", config, "--models", str(out),
                   "--out", str(out)) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestConcurrentTraining:
    """The per-service fits and forecasts run on worker processes; results must
    not show it."""

    def test_any_worker_count_writes_identical_files(self, tiny_config_path, tmp_path,
                                                      monkeypatch):
        # Four workers exceed the cores and the two forecasters.
        outputs = {}
        for workers in (1, 2, 4):
            monkeypatch.setattr(cli, "_worker_count", lambda tasks, w=workers: min(tasks, w))
            outputs[workers] = train_both(tiny_config_path, tmp_path / f"w{workers}")
        assert len(outputs[1]) == 5  # two forecasters, the GCN and both metrics files
        assert outputs[1] == outputs[2] == outputs[4]

    @staticmethod
    def needs_pool():
        if tensor._openblas_thread_api() is None:
            pytest.skip("numpy did not load an OpenBLAS, so the tasks run in-process")

    def test_tasks_run_in_worker_processes_in_order(self, monkeypatch):
        self.needs_pool()
        monkeypatch.setattr(cli, "_worker_count", lambda tasks: 2)
        results = cli._map_tasks(lambda i: (i * i, os.getpid()), [(i,) for i in range(6)])
        assert [square for square, _ in results] == [i * i for i in range(6)]
        assert os.getpid() not in {pid for _, pid in results}
        assert multiprocessing.active_children() == []

        def failing(i):
            if i == 3:
                raise ValueError("task 3 failed")
            return i

        with pytest.raises(ValueError, match="task 3 failed"):
            cli._map_tasks(failing, [(i,) for i in range(6)])
        assert multiprocessing.active_children() == []
        assert cli._job is None

    def test_a_dying_worker_raises_instead_of_hanging(self, monkeypatch):
        self.needs_pool()
        monkeypatch.setattr(cli, "_worker_count", lambda tasks: 2)

        def timed_out(signum, frame):
            raise TimeoutError("_map_tasks hung after its worker died")

        def dying(i):
            if i == 1:
                os._exit(3)
            return i

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                cli._map_tasks(dying, [(i,) for i in range(4)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error, field, value", [
        (DivergenceError("training loss diverged at epoch 3", epoch=3), "epoch", 3),
        (TraceFormatError("line 7: not a number", line=7), "line", 7),
        (RunMismatchError("runs differ in horizon", field="horizon"), "field", "horizon"),
    ], ids=["DivergenceError", "TraceFormatError", "RunMismatchError"])
    def test_errors_keep_their_fields_across_processes(self, monkeypatch, error, field,
                                                       value):
        def check(copy):
            assert type(copy) is type(error)
            assert str(copy) == str(error)
            assert getattr(copy, field) == value

        check(pickle.loads(pickle.dumps(error)))
        self.needs_pool()
        monkeypatch.setattr(cli, "_worker_count", lambda tasks: 2)

        def raising(i):
            if i == 1:
                raise error
            return i

        with pytest.raises(type(error)) as raised:
            cli._map_tasks(raising, [(i,) for i in range(2)])
        check(raised.value)

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
        assert cli._map_tasks(lambda i: os.getpid(), [(i,) for i in range(4)]) == [os.getpid()] * 4

    def test_a_failing_fit_exits_with_its_error(self, tiny_config_path, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setattr(cli, "_worker_count", lambda tasks: min(tasks, 2))
        train = cli.train_lstm

        def failing(train_set, config, service_id=None):
            if service_id == "back":
                raise DivergenceError("training loss diverged at epoch 3", epoch=3)
            return train(train_set, config, service_id=service_id)

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
        assert f"cannot read {tmp_path / 'nope.json'}: No such file" in capsys.readouterr().err


class TestUnreadableInputs:
    """A file that is missing or not UTF-8 exits 2 with its path, never a traceback."""

    def simulate(self, config: dict, tmp_path: Path) -> int:
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return run_cli("simulate", "--config", str(path), "--policy", "reactive",
                       "--out", str(tmp_path / "run"))

    def test_missing_trace_file(self, tmp_path, capsys):
        config = dict(TINY_CONFIG, trace={"file": "nope.csv"})
        assert self.simulate(config, tmp_path) == 2
        assert (f"cannot read {tmp_path / 'nope.csv'}: No such file"
                in capsys.readouterr().err)

    def test_trace_that_is_not_utf8(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_bytes(b"minute,requests\n0,5\n1,\xff\n")
        config = dict(TINY_CONFIG, trace={"file": "t.csv"})
        assert self.simulate(config, tmp_path) == 2
        assert (f"cannot read {tmp_path / 't.csv'}: byte 22 is not UTF-8"
                in capsys.readouterr().err)

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "experiment.json"
        path.write_bytes(json.dumps(TINY_CONFIG).encode("utf-8")[:-1] + b', "\xff": 1}')
        code = run_cli("simulate", "--config", str(path), "--policy", "reactive",
                       "--out", str(tmp_path / "run"))
        assert code == 2
        assert f"cannot read {path}: byte " in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace('"horizon"', '"horizons"'),
         ": missing required key 'horizon' in summary"),
        (lambda text: text[:len(text) // 2], " is not valid JSON: "),
        (lambda text: text.replace('"seed": 17', '"seed": "17"'),
         ": seed must be an integer, got '17'"),
        (lambda text: text.replace('"policy": "reactive@0.9"', '"policy": null'),
         ": policy must be a string, got None"),
    ], ids=["no-horizon", "not-json", "string-seed", "null-policy"])
    def test_compare_with_a_bad_summary(self, tiny_config_path, tmp_path, capsys, edit,
                                        message):
        runs = [tmp_path / "a", tmp_path / "b"]
        for run, threshold in zip(runs, ("0.9", "0.7")):
            assert run_cli("simulate", "--config", tiny_config_path, "--policy", "reactive",
                           "--threshold", threshold, "--out", str(run)) == 0
        summary = runs[0] / "summary.json"
        summary.write_text(edit(summary.read_text(encoding="utf-8")), encoding="utf-8")
        capsys.readouterr()
        code = run_cli("compare", "--baseline", "reactive@0.7", "--out", str(tmp_path / "cmp"),
                       *map(str, runs))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {summary}{message}")

    @pytest.mark.parametrize("old, new, message", [
        (b",front,", b",fr\xffnt,",
         "line 4: expected minute 321, service 'front', policy 'reactive@0.9' by summary.json, "
         "got minute 321, service 'fr\\udcffnt'"),
        (b",1,", b",\xff,", "line 4: could not convert string '\\udcff' to int64"),
    ], ids=["in-a-name", "in-a-number"])
    def test_compare_with_a_sim_csv_that_is_not_utf8(self, tiny_config_path, tmp_path, capsys,
                                                     old, new, message):
        runs = [tmp_path / "a", tmp_path / "b"]
        for run, threshold in zip(runs, ("0.9", "0.7")):
            assert run_cli("simulate", "--config", tiny_config_path, "--policy", "reactive",
                           "--threshold", threshold, "--out", str(run)) == 0
        sim = runs[0] / "sim.csv"
        lines = sim.read_bytes().split(b"\n")
        assert lines[3].startswith(b"321,front,")
        lines[3] = lines[3].replace(old, new, 1)
        sim.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        code = run_cli("compare", "--baseline", "reactive@0.7", "--out", str(tmp_path / "cmp"),
                       *map(str, runs))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {sim} {message}")


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

    @pytest.mark.parametrize("variant", [
        # One service and no calls: the GCN's graph is a single node.
        {"graph": {"nodes": ["front"]},
         "demand": {"entry": "front", "cpu_per_request": {"front": 0.01}, "fan_out": {}},
         "bounds": {"front": TINY_CONFIG["bounds"]["front"]}},
        # A constant trace, then an all-zero one.
        {"trace": {"synthetic": dict(TINY_CONFIG["trace"]["synthetic"],
                                     amplitude=0.0, noise=0.0)}},
        {"trace": {"synthetic": dict(TINY_CONFIG["trace"]["synthetic"],
                                     amplitude=0.0, noise=0.0, base=0.0)}},
    ], ids=["one-node-graph", "constant-trace", "all-zero-trace"])
    def test_near_degenerate_data_runs_end_to_end(self, tmp_path, capsys, variant):
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({**TINY_CONFIG, **variant}), encoding="utf-8")
        out = tmp_path / "exp"
        assert run_cli("experiment", "--config", str(config), "--out", str(out)) == 0, \
            capsys.readouterr().err
        table = json.loads((out / "comparison" / "table.json").read_text(encoding="utf-8"))
        assert [row["policy"] for row in table["policies"]] == [
            "phpa", "reactive@0.9", "reactive@0.7"]
        assert (out / "comparison" / "table.txt").read_text(encoding="utf-8") in \
            capsys.readouterr().out

    def test_runs_share_the_same_window(self, tiny_config_path, tmp_path):
        out = tmp_path / "exp"
        run_cli("experiment", "--config", tiny_config_path, "--out", str(out),
                "--thresholds", "0.9")
        logs = [load_run(out / "runs" / name) for name in ("phpa", "reactive@0.9")]
        assert logs[0].trace_sha256 == logs[1].trace_sha256
        assert logs[0].start_minute == logs[1].start_minute
        assert logs[0].horizon == logs[1].horizon
