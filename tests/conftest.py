"""Shared fixtures: a small, fast experiment config for end-to-end tests, a
traced-memory probe for the memory bounds, a counter of LSTM forwards, the
one-service forecasts and score the tests take through forecast_services,
and the graph predictor's network alone on scaled features."""
import json
import tracemalloc

import numpy as np
import pytest

from graph_phpa import forecast_lstm, predict_gcn
from graph_phpa.cli import main as cli_main
from graph_phpa.tensor import MinMaxScaler

TINY_CONFIG = {
    "trace": {"synthetic": {"pattern": "sine", "length": 400, "amplitude": 60.0,
                            "base": 120.0, "period": 120.0, "noise": 0.05, "seed": 9}},
    "graph": {"nodes": ["front", "back"]},
    "demand": {"entry": "front",
               "cpu_per_request": {"front": 0.01, "back": 0.005},
               "fan_out": {"front": {"back": 1.0}},
               "noise_sigma": 0.05},
    "bounds": {"front": {"r_lb": 1.0, "r_ub": 5.0, "pod_capacity": 1.0, "max_pods": 5},
               "back": {"r_lb": 1.0, "r_ub": 5.0, "pod_capacity": 1.0, "max_pods": 5}},
    "lstm": {"window": 5, "hidden_units": 6, "epochs": 8, "batch_size": 32,
             "learning_rate": 0.01, "seed": 21},
    "gcn": {"hidden": [8], "epochs": 40, "batch_size": 128,
            "learning_rate": 0.005, "seed": 21},
    "hpa": {"scale_out": 0.9, "scale_in": 0.3, "stabilization_minutes": 5},
    "sim": {"seed": 17, "startup_delay": 1, "max_total_pods": 20},
    "split": {"train": 0.6, "valid": 0.2},
}


def run_cli(*argv: str) -> int:
    return cli_main(list(argv))


# Every value a mutation puts in place of a key or list element.
MUTANT_VALUES = [None, "x", [], {}, True, -1, 0, 2.5]


def key_path(path) -> str:
    """A path of keys and list indexes as the error messages write it: a.b[0].c."""
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out


def mutations(node, first_elements=False, path=()):
    """(label, path, edit) for one change at a time under node: every key and
    list element (only the first of each list, with first_elements) set to each
    of MUTANT_VALUES and dropped, and every object given an extra key. path is
    the changed key's, or the object's for the extra key; edit(doc) applies
    the change to a copy of the document."""
    if isinstance(node, dict):
        yield f"{key_path(path) or 'root'}+extra", path, lambda doc: _at(doc, path).update(extra=1)
        children = list(node.items())
    else:
        children = list(enumerate(node))[:1 if first_elements else None] \
            if isinstance(node, list) else []
    for key, child in children:
        here = path + (key,)
        for value in MUTANT_VALUES:
            yield (f"{key_path(here)}={value!r}", here,
                   lambda doc, k=key, v=value: _at(doc, path).__setitem__(k, v))
        yield f"drop {key_path(here)}", here, lambda doc, k=key: _at(doc, path).pop(k)
        yield from mutations(child, first_elements, here)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def traced_peak(fn) -> int:
    """Peak bytes that Python and numpy held at once above their level when
    fn() began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def counting_forwards(monkeypatch) -> list[int]:
    """Route forecast_lstm's LSTM forwards through a wrapper; returns the row
    count of every forward run from then on."""
    forward, rows = forecast_lstm._forward_scaled, []

    def counting(params, x):
        rows.append(len(x))
        return forward(params, x)

    monkeypatch.setattr(forecast_lstm, "_forward_scaled", counting)
    return rows


def predict_windows(model, x, service=None) -> np.ndarray:
    """One-step forecasts in original units for each row of raw k-length
    windows, under service's scaler, by default the fitted service's."""
    return forecast_lstm.forecast_services(model, [service or model.fitted_on], [x],
                                           "original")[0]


def forecast_rates(model, x, service=None) -> np.ndarray:
    """Request-rate forecasts for raw k-length windows, clamped at zero: the
    units train_resource and the replay forecast in."""
    return forecast_lstm.forecast_services(model, [service or model.fitted_on], [x])[0]


def evaluate_lstm(model, dataset, service=None) -> float:
    """scaled_mse of the model's forecasts over raw (windows, targets), as
    train_workload scores a segment."""
    service = service or model.fitted_on
    forecasts = forecast_lstm.forecast_services(model, [service], [dataset[0]], "scaled")[0]
    return forecast_lstm.scaled_mse(model.scalers[service], forecasts, dataset[1])


def gcn_forward(model, x) -> np.ndarray:
    """The graph predictor's outputs (S, N, 1) for scaled features (S, N, D),
    with no scaler applied: the blocked forward predict_resource and
    evaluate_gcn run, under an identity feature scaler. That scaler's
    0.0 + (x - 0.0) * 1.0 keeps every feature but a negative zero."""
    unit = MinMaxScaler(0.0, 1.0, 0.0, 1.0)
    return predict_gcn._forward_blocks(
        predict_gcn.GcnModel(model.config, model.graph, model.weights, unit,
                             model.target_scalers), x)


@pytest.fixture(scope="session")
def tiny_config_path(tmp_path_factory) -> str:
    d = tmp_path_factory.mktemp("tiny")
    path = d / "experiment.json"
    path.write_text(json.dumps(TINY_CONFIG, indent=2), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="session")
def tiny_models_dir(tiny_config_path, tmp_path_factory) -> str:
    """Forecasters plus demand predictor trained once per session."""
    out = tmp_path_factory.mktemp("tiny_models")
    assert run_cli("train-workload", "--config", tiny_config_path, "--out", str(out)) == 0
    assert run_cli("train-resource", "--config", tiny_config_path,
                   "--models", str(out), "--out", str(out)) == 0
    return str(out)
