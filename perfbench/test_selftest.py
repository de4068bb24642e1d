"""Self-test: every workload on the tiny test config prints every metric.

    python3 -m pytest perfbench

Uses the two-service, 400-minute config of tests/conftest.py, so each
workload finishes in seconds. Recorded totals apply to the full scenario
only, so this checks structure and output checks, not the recorded numbers.
"""
import copy
import importlib.util
import json

import pytest

import run
import workloads


def tiny_scenario() -> workloads.Scenario:
    run.load_program(run.ROOT)
    spec = importlib.util.spec_from_file_location("tiny_conftest",
                                                  run.ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    config = copy.deepcopy(conftest.TINY_CONFIG)
    return workloads.Scenario(config=config, bursty_length=400,
                              bursty_split=dict(config["split"]), min_decisions=100,
                              reactive_totals=None, bursty_totals=None)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, scenario=tiny_scenario()) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in run.BENCHMARK[section]}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        printed = [line.split() for line in lines[:-1] if line.split()[:1] == [name]]
        assert printed and printed[0][-1] == unit, name
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in expected)


def test_failed_check_is_counted(capsys):
    scenario = tiny_scenario()
    wrong = {"reactive@0.9": [0, 0], "reactive@0.7": [0, 0]}
    scenario = workloads.Scenario(**{**scenario.__dict__, "bursty_totals": {"5": wrong}})
    argv = ["--workload", "replay-reactive-bursty", "--seed", "5", "--seconds", "0"]
    assert run.main(argv, scenario=scenario) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 2
