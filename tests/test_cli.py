"""Command-line workflow tests on a small configuration."""
import copy
import json
import math
import os
import shutil
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import (TINY_CONFIG, counting_forwards, forecast_rates, mutations, predict_windows,
                      run_cli)
from graph_phpa import autoscaler, cli, forecast_lstm, tensor
from graph_phpa.cluster_sim import SimulationLog
from graph_phpa.config import ExperimentConfig, TraceSpec
from graph_phpa.errors import DivergenceError
from graph_phpa.forecast_lstm import LstmConfig, LstmModel, make_windows, train_lstm
from graph_phpa.predict_gcn import GcnModel, build_resource_dataset, scale_targets
from graph_phpa.report import load_run
from graph_phpa.tensor import MinMaxScaler, mix_seed
from oracles import assert_bitwise_equal, gcn_forward_scaled_oracle, lstm_forward_scaled_oracle


def negative_forecaster(k: int) -> LstmModel:
    """Zero-weight LSTM pinned to -0.9 in scaled units: -6.25 rps on a 0-100 scale."""
    hidden = 2
    return LstmModel(LstmConfig(window=k, hidden_units=hidden), np.zeros((1, 4 * hidden)),
                     np.zeros((hidden, 4 * hidden)), np.zeros(4 * hidden),
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

    # A negative period used to write a time-reversed wave.
    @pytest.mark.parametrize("period", ["0", "-0.0", "1e-320", "-240"])
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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        # --seed -1 used to write the trace of --seed 2**64 - 1.
        out = tmp_path / "t.csv"
        assert run_cli("gen-trace", "--seed", seed, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert not out.exists()
        assert run_cli("gen-trace", "--seed", str(2**64 - 1), "--out", str(out)) == 0


class TestTraining:
    def test_train_workload_outputs(self, tiny_models_dir):
        d = Path(tiny_models_dir)
        assert (d / "lstm.json").exists()
        assert sorted(d.glob("lstm_*.json")) == []
        doc = json.loads((d / "lstm.json").read_text(encoding="utf-8"))
        assert doc["fitted_on"] == "front"
        assert sorted(doc["scalers"]) == ["back", "front"]
        metrics = json.loads((d / "workload_metrics.json").read_text(encoding="utf-8"))
        assert metrics["fitted_on"] == "front"
        assert metrics["final_train_mse_scaled"] >= 0.0
        assert set(metrics["services"]) == {"front", "back"}
        for entry in metrics["services"].values():
            assert entry["test_mse"] >= 0.0
            assert entry["persistence_mse"] > 0.0
            assert entry["mse_vs_persistence"] == entry["test_mse"] / entry["persistence_mse"]

    def test_the_shared_fit_is_the_entry_services_own(self, tmp_path):
        # The entry is graph.nodes[1] here, so its fit takes mix_seed(seed, 1).
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({**TINY_CONFIG, "graph": {"nodes": ["back", "front"]}}),
                          encoding="utf-8")
        prepared = cli.prepare(*ExperimentConfig.load(config))
        cfg, (lo, hi) = prepared.cfg, prepared.segments[0]
        rps, k = prepared.series[0][lo:hi], cfg.lstm.window
        models = cli.train_workload(prepared, tmp_path / "models")
        own, _ = train_lstm(make_windows(rps[:, 1], k),
                            replace(cfg.lstm, seed=mix_seed(cfg.lstm.seed, 1)))
        assert models["front"].scaler == own.scaler
        loaded = cli._load_lstm_models(tmp_path / "models", cfg)
        assert list(models) == list(loaded) == ["back", "front"]
        for j, service in enumerate(cfg.graph.nodes):
            # Each service's own training targets fit its scaler.
            scaler = MinMaxScaler.fit(make_windows(rps[:, j], k)[1])
            for model in (models[service], loaded[service]):
                assert model.scaler == scaler
                for got, want in zip(model.params, own.params, strict=True):
                    assert_bitwise_equal(got, want)

    def test_a_failing_fit_exits_with_its_error(self, tiny_config_path, tmp_path,
                                                monkeypatch, capsys):
        def failing(train_set, config):
            raise DivergenceError("training loss diverged at epoch 3", epoch=3)

        monkeypatch.setattr(cli, "train_lstm", failing)
        code = run_cli("train-workload", "--config", tiny_config_path,
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert "error: training loss diverged at epoch 3" in capsys.readouterr().err
        assert not (tmp_path / "out" / "workload_metrics.json").exists()

    @pytest.mark.parametrize("section, command", [("lstm", "train-workload"),
                                                  ("gcn", "train-resource")])
    def test_a_learning_rate_beyond_float32_exits_2_naming_it(self, tiny_models_dir, tmp_path,
                                                              capsys, section, command):
        # lstm.learning_rate 1e39 used to warn of an overflow in a cast, then
        # exit 2 with "adam_step result contains non-finite entries".
        d = copy.deepcopy(TINY_CONFIG)
        d[section]["learning_rate"] = 1e39
        config, out = tmp_path / "experiment.json", tmp_path / "out"
        config.write_text(json.dumps(d), encoding="utf-8")
        models = ["--models", tiny_models_dir] if command == "train-resource" else []
        assert run_cli(command, "--config", str(config), *models, "--out", str(out)) == 2
        assert capsys.readouterr().err == (f"error: {section}.learning_rate must be finite in "
                                           f"float32 (at most 3.40282347e+38), got 1e+39\n")
        assert not out.exists()

    def test_an_adam_step_past_float32_exits_2_naming_the_epoch(self, tiny_config_path,
                                                                tmp_path, capsys):
        # Float32 holds lstm.learning_rate 1e38, but the tanh-bounded loss
        # stays finite while Adam's step overflows a weight; that used to exit
        # 2 with "adam_step result contains non-finite entries".
        d = copy.deepcopy(TINY_CONFIG)
        d["lstm"]["learning_rate"] = 1e38
        config, out = tmp_path / "experiment.json", tmp_path / "out"
        config.write_text(json.dumps(d), encoding="utf-8")
        assert run_cli("train-workload", "--config", str(config), "--out", str(out)) == 2
        assert capsys.readouterr().err == ("error: training diverged at epoch 0: an Adam step "
                                           "left non-finite weights (learning_rate 1e+38)\n")
        assert not out.exists()

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
        rps, usage = (grid[lo:hi] for grid in prepared.series)
        d = Path(tiny_models_dir)
        workload = json.loads((d / "workload_metrics.json").read_text(encoding="utf-8"))
        models = list(cli._load_lstm_models(d, cfg).values())
        for j, (service, model) in enumerate(zip(cfg.graph.nodes, models)):
            x, y = make_windows(rps[:, j], cfg.lstm.window)
            yhat, _ = lstm_forward_scaled_oracle(model.params, model.scaler.transform(x))
            assert workload["services"][service]["final_valid_mse_scaled"] == float(
                np.mean((yhat - model.scaler.transform(y)) ** 2))

        gcn = GcnModel.load(d / "gcn.json")
        forecasts = np.column_stack([forecast_rates(m, make_windows(rps[:, j], cfg.lstm.window)[0])
                                     for j, m in enumerate(models)])
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
        model.save(tmp_path / "lstm.json",
                   {service: model.scaler for service in TINY_CONFIG["graph"]["nodes"]}, "front")
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
        assert f"cannot read {tmp_path / 'lstm.json'}: No such file" in capsys.readouterr().err

    def test_per_service_forecaster_files_exit_2(self, tiny_config_path, tiny_models_dir,
                                                 tmp_path, capsys):
        # Schema v2 kept one lstm_<service>.json per service. Neither those
        # files nor a v2 document named lstm.json is read: the first is a
        # missing lstm.json, and the second names the schema train-workload
        # writes now.
        models = tmp_path / "models"
        shutil.copytree(tiny_models_dir, models)
        lstm = models / "lstm.json"
        v2 = json.loads(lstm.read_text(encoding="utf-8"))
        scalers = v2.pop("scalers")
        v2.update(schema="graph-phpa/lstm-model/v2", scaler=scalers.pop(v2.pop("fitted_on")))
        for service in TINY_CONFIG["graph"]["nodes"]:
            (models / f"lstm_{service}.json").write_text(json.dumps(dict(v2, service=service)),
                                                         encoding="utf-8")
        lstm.unlink()
        argvs = [("train-resource", "--config", tiny_config_path, "--models", str(models),
                  "--out", str(tmp_path / "out")),
                 ("simulate", "--config", tiny_config_path, "--policy", "phpa",
                  "--models", str(models), "--out", str(tmp_path / "run"))]
        for argv in argvs:
            assert run_cli(*argv) == 2
            assert capsys.readouterr().err == (
                f"error: cannot read {lstm}: No such file or directory\n")
        shutil.copy(models / "lstm_front.json", lstm)
        for argv in argvs:
            assert run_cli(*argv) == 2
            assert capsys.readouterr().err == (
                f"error: {lstm}: schema must be 'graph-phpa/lstm-model/v5', "
                f"got 'graph-phpa/lstm-model/v2'\n")
        assert not (tmp_path / "out").exists() and not (tmp_path / "run").exists()

    @staticmethod
    def assert_old_schema_exits_2(config, models: Path, tmp_path: Path, capsys, doc: dict):
        lstm = models / "lstm.json"
        lstm.write_text(json.dumps(doc), encoding="utf-8")
        for argv in [("train-resource", "--config", config, "--models", str(models),
                      "--out", str(tmp_path / "out")),
                     ("simulate", "--config", config, "--policy", "phpa",
                      "--models", str(models), "--out", str(tmp_path / "run"))]:
            assert run_cli(*argv) == 2
            assert capsys.readouterr().err == (
                f"error: {lstm}: schema must be 'graph-phpa/lstm-model/v5', "
                f"got {doc['schema']!r}\n")
        assert not (tmp_path / "out").exists() and not (tmp_path / "run").exists()

    def test_float64_forecaster_file_exits_2(self, tiny_config_path, tiny_models_dir,
                                             tmp_path, capsys):
        # Schema v3 held float64 weights. Cast to float32 they would forecast
        # differently without a word, so a v3 file must be retrained.
        models = tmp_path / "models"
        shutil.copytree(tiny_models_dir, models)
        doc = json.loads((models / "lstm.json").read_text(encoding="utf-8"))
        assert doc["schema"] == "graph-phpa/lstm-model/v5"
        self.assert_old_schema_exits_2(tiny_config_path, models, tmp_path, capsys,
                                       dict(doc, schema="graph-phpa/lstm-model/v3"))

    def test_list_of_layers_file_exits_2(self, tiny_config_path, tiny_models_dir, tmp_path,
                                         capsys):
        # Schema v4 listed the weights per layer and its config named the
        # number of layers; v5 holds its one layer's weights at the top level.
        models = tmp_path / "models"
        shutil.copytree(tiny_models_dir, models)
        doc = json.loads((models / "lstm.json").read_text(encoding="utf-8"))
        layer = {key: doc.pop(key) for key in ("w_x", "w_h", "b")}
        doc["config"]["layers"] = 1
        self.assert_old_schema_exits_2(tiny_config_path, models, tmp_path, capsys,
                                       dict(doc, schema="graph-phpa/lstm-model/v4",
                                            layers=[layer]))


class TestConcurrentTraining:
    """The one fit runs in the command's process, on one BLAS thread where
    numpy loaded OpenBLAS."""

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

    def test_both_fits_run_on_one_blas_thread(self, tiny_config_path, tmp_path,
                                              monkeypatch):
        api = tensor._openblas_thread_api()
        if api is None:
            pytest.skip("numpy did not load an OpenBLAS")
        get, set_ = api
        threads = []

        def recording(fit):
            def run(*args, **kwargs):
                threads.append((fit.__name__, get()))
                return fit(*args, **kwargs)
            return run

        monkeypatch.setattr(cli, "train_lstm", recording(cli.train_lstm))
        monkeypatch.setattr(cli, "train_gcn", recording(cli.train_gcn))
        before = get()
        try:
            set_(2)
            assert run_cli("experiment", "--config", tiny_config_path,
                           "--out", str(tmp_path / "exp")) == 0
            assert threads == [("train_lstm", 1), ("train_gcn", 1)]
            assert get() == 2
        finally:
            set_(before)

    def test_without_openblas_nothing_is_pinned_and_one_worker_runs(self, tiny_config_path,
                                                                    tmp_path, monkeypatch):
        monkeypatch.setattr(tensor, "_openblas_thread_api", lambda: None)
        with tensor.one_blas_thread() as pinned:
            assert not pinned
        train, fits = cli.train_lstm, []

        def recording(train_set, config):
            fits.append(os.getpid())
            return train(train_set, config)

        monkeypatch.setattr(cli, "train_lstm", recording)
        assert run_cli("train-workload", "--config", tiny_config_path,
                       "--out", str(tmp_path / "out")) == 0
        # One fit for every service, in the command's own process.
        assert fits == [os.getpid()]
        assert (tmp_path / "out" / "lstm.json").exists()


# Four services whose rates are the entry's times powers of two, so without
# demand noise their scaled windows are the entry's bit for bit.
FOUR_SERVICES = {
    "graph": {"nodes": ["front", "cart", "stock", "db"]},
    "demand": {"entry": "front",
               "cpu_per_request": {"front": 0.01, "cart": 0.005, "stock": 0.004, "db": 0.002},
               "fan_out": {"front": {"cart": 1.0, "stock": 0.5}, "cart": {"db": 2.0}},
               "noise_sigma": 0.0},
    "bounds": {s: TINY_CONFIG["bounds"]["front"] for s in ("front", "cart", "stock", "db")},
    "sim": dict(TINY_CONFIG["sim"], max_total_pods=40),
}


class TestSharedForward:
    """train_workload, train_resource and the replay's predict_demand forecast
    every service through one forecast_services call, which runs one LSTM
    forward per distinct scaled series."""

    @pytest.mark.parametrize("noise_sigma, forwards", [(0.0, 1), (0.05, 4)],
                             ids=["noise-free", "noisy"])
    def test_one_forward_per_distinct_series(self, tmp_path, monkeypatch, noise_sigma,
                                             forwards):
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({
            **TINY_CONFIG, **FOUR_SERVICES,
            "demand": dict(FOUR_SERVICES["demand"], noise_sigma=noise_sigma)}),
            encoding="utf-8")
        forward, shared, calls = forecast_lstm._forward_scaled, forecast_lstm.forecast_services, []
        counted = counting_forwards(monkeypatch)

        def recording(models, windows, units="rates"):
            windows, before = list(windows), len(counted)
            out = shared(models, windows, units)
            calls.append((models, windows, units, out, len(counted) - before))
            return out

        for module in (cli, autoscaler):
            monkeypatch.setattr(module, "forecast_services", recording)
        assert run_cli("experiment", "--config", str(config), "--out",
                       str(tmp_path / "exp"), "--thresholds", "0.9") == 0
        # train_workload's validation and test forecasts, train_resource's
        # three segments, then the replay.
        assert [units for *_, units, _, _ in calls][:5] == ["scaled", "original"] + 3 * ["rates"]
        assert len(calls) > 5
        for models, windows, units, out, n in calls:
            assert len(models) == 4
            assert n == forwards
            for model, x, got in zip(models, windows, out, strict=True):
                want = {"scaled": lambda: forward(model.params, model.scaler.transform(x)),
                        "original": lambda: predict_windows(model, x),
                        "rates": lambda: forecast_rates(model, x)}[units]()
                assert_bitwise_equal(got, want)


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
        models = self.corrupt(tiny_models_dir, tmp_path, "lstm.json",
                              lambda doc: doc["scalers"]["back"].pop("hi"))
        code = run_cli("train-resource", "--config", tiny_config_path,
                       "--models", str(models), "--out", str(tmp_path / "out"))
        assert code == 2
        assert (f"{models / 'lstm.json'}: missing required key 'hi' in scalers.back"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name", ["gcn.json", "lstm.json"])
    def test_unknown_config_key(self, tiny_config_path, tiny_models_dir, tmp_path, capsys, name):
        models = self.corrupt(tiny_models_dir, tmp_path, name,
                              lambda doc: doc["config"].update(dropout=0.5))
        assert self.simulate_phpa(tiny_config_path, models, tmp_path) == 2
        assert f"{models / name}: unknown key 'dropout' in config" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, message", [
        pytest.param("lstm.json", lambda doc: doc["config"].update(window="5"),
                     "config.window must be an integer, got '5'", id="lstm-window-string"),
        pytest.param("lstm.json", lambda doc: doc.update(layers=5),
                     "unknown key 'layers' in lstm model", id="lstm-layers-number"),
        pytest.param("lstm.json", lambda doc: doc.update(head_bias=[1.0]),
                     "head_bias must be a finite number", id="lstm-head-bias-list"),
        pytest.param("lstm.json", lambda doc: doc["scalers"]["back"].update(lo="a"),
                     "scalers.back.lo must be a finite number, got 'a'", id="scaler-lo-string"),
        pytest.param("lstm.json", lambda doc: doc["scalers"]["back"].update(lo=float("nan")),
                     "scalers.back.lo must be a finite number, got nan", id="scaler-lo-nan"),
        pytest.param("lstm.json", lambda doc: doc["w_h"][1].pop(),
                     "w_h must be a rectangular array", id="lstm-ragged-w_h"),
        pytest.param("lstm.json", lambda doc: doc["w_x"][0].__setitem__(0, 1e39),
                     "w_x must be a rectangular array of finite float32 numbers",
                     id="lstm-weight-beyond-float32"),
        pytest.param("lstm.json", lambda doc: doc["scalers"].pop("back"),
                     "scalers for ['front'] are not for the config's graph.nodes "
                     "['front', 'back']", id="lstm-scalers-missing-a-node"),
        pytest.param("lstm.json", lambda doc: doc["scalers"].update(side=doc["scalers"]["back"]),
                     "scalers for ['back', 'front', 'side'] are not for the config's graph.nodes "
                     "['front', 'back']", id="lstm-scalers-of-another-node"),
        pytest.param("lstm.json", lambda doc: doc.update(fitted_on="side"),
                     "fitted_on 'side' has no entry in scalers", id="lstm-fitted-on-no-scaler"),
        # Weights that are not one layer of the config's hidden units. These
        # loaded, and the replay ended in numpy's matmul ValueError.
        pytest.param("lstm.json", lambda doc: doc["w_x"].append(doc["w_x"][0]),
                     "w_x shape (2, 24) is not (1, 24): one input and the config's 6 hidden "
                     "units", id="lstm-first-layer-two-inputs"),
        pytest.param("lstm.json", lambda doc: doc["w_x"][0].pop(),
                     "w_x shape (1, 23) is not (1, 24)", id="lstm-w_x-wrong-width"),
        pytest.param("lstm.json", lambda doc: doc["b"].pop(),
                     "b shape (23,) is not (24,)", id="lstm-b-wrong-length"),
        pytest.param("lstm.json", lambda doc: doc["config"].update(layers=2),
                     "unknown key 'layers' in config", id="lstm-fewer-layers-than-config"),
        pytest.param("lstm.json", lambda doc: doc["config"].update(hidden_units=7),
                     "w_x shape (1, 24) is not (1, 28): one input and the config's 7 hidden "
                     "units", id="lstm-other-hidden-units"),
        pytest.param("lstm.json", lambda doc: doc.update(head_bias=1e39),
                     "head_bias must be a finite float32 number, got 1e+39",
                     id="lstm-head-bias-beyond-float32"),
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
        pytest.param("lstm.json", lambda doc: doc["config"].update(window=6),
                     "config.window 6 is not the config's lstm.window 5", id="lstm-other-window"),
        pytest.param("gcn.json", lambda doc: doc.update(nodes=["back", "front"]),
                     "nodes ['back', 'front'] are not the config's graph.nodes "
                     "['front', 'back']", id="gcn-other-nodes"),
        pytest.param("gcn.json", lambda doc: doc["target_scalers"][0].update(out_lo=1.0),
                     "target_scalers[0].out_lo 1.0 must be below target_scalers[0].out_hi 1.0",
                     id="scaler-empty-output-range"),
        # An inverted scaler loaded and forecast mirrored.
        pytest.param("gcn.json", lambda doc: doc["target_scalers"][1].update(lo=5.0, hi=1.0),
                     "target_scalers[1].lo 5.0 must not be above target_scalers[1].hi 1.0",
                     id="scaler-inverted"),
        pytest.param("lstm.json", lambda doc: doc["scalers"]["back"].update(lo=5.0, hi=1.0),
                     "scalers.back.lo 5.0 must not be above scalers.back.hi 1.0",
                     id="lstm-scaler-inverted"),
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

    @pytest.mark.parametrize("name", ["gcn.json", "lstm.json"])
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
        # A seed is a 64-bit word; -1 used to load.
        assert "config.seed=-1" in [label for label, _, _ in sweep]
        assert "config.seed=-1" not in admitted


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

    @pytest.mark.parametrize("policy, flag, message", [
        ("phpa", ["--threshold", "0.5"], "phpa policy takes no --threshold"),
        ("reactive", [], "reactive policy takes no --models"),
    ])
    def test_the_other_policys_flag_exits_2(self, tiny_config_path, tiny_models_dir,
                                            tmp_path, capsys, policy, flag, message):
        # Both used to exit 0, ignoring the flag.
        out = tmp_path / "run"
        code = run_cli("simulate", "--config", tiny_config_path, "--policy", policy,
                       "--models", tiny_models_dir, *flag, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64 + 3)])
    def test_seed_override_outside_64_bits_exits_2(self, tiny_config_path, tmp_path, capsys,
                                                    seed):
        # 2**64 + 3 used to replay seed 3 while summary.json recorded 2**64 + 3.
        out = tmp_path / "run"
        code = run_cli("simulate", "--config", tiny_config_path, "--policy", "reactive",
                       "--seed", seed, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert not out.exists()

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
        (lambda text: json.dumps(dict(json.loads(text), horizon=0)), " has a zero horizon"),
    ], ids=["no-horizon", "not-json", "string-seed", "null-policy", "zero-horizon"])
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
    @pytest.mark.parametrize("args, message", [
        (["--thresholds", "0.2"], "need 0 < scale_in < scale_out, got 0.3 / 0.2"),
        (["--baseline", "nope"], "baseline policy 'nope' not among runs "
                                 "['phpa', 'reactive@0.7', 'reactive@0.9']"),
        (["--thresholds", "0.9", "0.9"], "duplicate policy names in comparison: "
                                         "['phpa', 'reactive@0.9', 'reactive@0.9']"),
    ], ids=["threshold-at-scale-in", "unknown-baseline", "duplicate-names"])
    def test_bad_arguments_exit_2_before_training(self, tiny_config_path, tmp_path, capsys,
                                                  args, message):
        out = tmp_path / "exp"
        assert run_cli("experiment", "--config", tiny_config_path, "--out", str(out),
                       *args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "models").exists()

    def test_names_that_need_quoting_or_escaping(self, tmp_path, capsys):
        # "a,b" needs CSV quoting; "<b&>" used to give a pods chart that is
        # not well-formed XML.
        names = ("a,b", "<b&>")
        text = json.dumps(TINY_CONFIG)
        for old, name in zip(('"front"', '"back"'), names):
            text = text.replace(old, json.dumps(name))
        config, out = tmp_path / "experiment.json", tmp_path / "exp"
        config.write_text(text, encoding="utf-8")
        assert run_cli("experiment", "--config", str(config), "--out", str(out)) == 0
        lstm = json.loads((out / "models" / "lstm.json").read_text(encoding="utf-8"))
        assert sorted(lstm["scalers"]) == sorted(names)
        for name in names:
            root = ElementTree.parse(out / "comparison" / f"pods_{name}.svg").getroot()
            assert f"pods over time: {name}" in [e.text for e in root.iter()]
        assert load_run(out / "runs" / "phpa").services == names

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
        assert len(written) == 15  # 4 model files, 3 + 2 + 2 in the runs, 4 compared
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
        # A constant entry trace under strong demand noise: the forecaster is
        # fitted on a constant series, while the service it also forecasts
        # for varies.
        {"trace": {"synthetic": dict(TINY_CONFIG["trace"]["synthetic"],
                                     amplitude=0.0, noise=0.0)},
         "demand": dict(TINY_CONFIG["demand"], noise_sigma=0.5)},
    ], ids=["one-node-graph", "constant-trace", "all-zero-trace", "constant-entry-noisy-callee"])
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
        if variant.get("demand", {}).get("noise_sigma"):  # the premise of the last variant
            scalers = json.loads((out / "models" / "lstm.json").read_text(encoding="utf-8"))[
                "scalers"]
            assert scalers["front"]["lo"] == scalers["front"]["hi"]
            assert scalers["back"]["lo"] < scalers["back"]["hi"]

    def test_runs_share_the_same_window(self, tiny_config_path, tmp_path):
        out = tmp_path / "exp"
        run_cli("experiment", "--config", tiny_config_path, "--out", str(out),
                "--thresholds", "0.9")
        logs = [load_run(out / "runs" / name) for name in ("phpa", "reactive@0.9")]
        assert logs[0].trace_sha256 == logs[1].trace_sha256
        assert logs[0].start_minute == logs[1].start_minute
        assert logs[0].horizon == logs[1].horizon
