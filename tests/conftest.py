"""Shared fixtures: a small, fast experiment config for end-to-end tests, and a
traced-memory probe for the memory bounds."""
import json
import tracemalloc

import pytest

from graph_phpa.cli import main as cli_main

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
