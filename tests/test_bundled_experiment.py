"""The bundled experiment, end to end: `experiment` on configs/experiment.json
runs once per session, and its outputs are checked against the README table,
the sizing rule and the model-file formats.

The run trains both models at the config's full epochs (about 4 s), so every
check here reads the same outputs.
"""
import csv
import json
import math
import re
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import run_cli

REPO = Path(__file__).resolve().parents[1]
CONFIG = REPO / "configs" / "experiment.json"


@pytest.fixture(scope="session")
def experiment_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundled") / "experiment"
    assert run_cli("experiment", "--config", str(CONFIG), "--out", str(out)) == 0
    return out


def test_table_equals_the_readme_table(experiment_dir):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n(policy .*?)```", readme, re.S).group(1)
    got = (experiment_dir / "comparison" / "table.txt").read_text(encoding="utf-8")

    def lines(text):
        return [" ".join(line.split()) for line in text.splitlines() if line.strip()]

    assert lines(got) == lines(block)


def test_every_pods_chart_parses_as_xml(experiment_dir):
    # Each chart is written a block of minutes at a time.
    charts = sorted((experiment_dir / "comparison").glob("pods_*.svg"))
    assert charts, "the experiment wrote no pods charts"
    for chart in charts:
        ElementTree.parse(chart)


def test_every_phpa_decision_follows_the_sizing_rule(experiment_dir):
    # The 50-epoch models' decisions, under the config's bounds.
    bounds = json.loads(CONFIG.read_text(encoding="utf-8"))["bounds"]
    rows = 0
    with open(experiment_dir / "runs" / "phpa" / "decisions.csv", newline="",
              encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            b = bounds[row["service"]]
            r_new = min(max(float(row["predicted_vcpu"]), b["r_lb"]), b["r_ub"])
            n_new = min(max(math.ceil(r_new / b.get("pod_capacity", 1.0)), 1), b["max_pods"])
            assert (float(row["r_new"]), int(row["n_new"])) == (r_new, n_new), row
            rows += 1
    assert rows, "the phpa run logged no decisions"


def test_one_shared_forecaster_file_of_schema_v5(experiment_dir):
    # One LSTM layer, its float32 weights at the top level and no layers key,
    # and none of the per-service files of the v2 schema.
    models = experiment_dir / "models"
    doc = json.loads((models / "lstm.json").read_text(encoding="utf-8"))
    assert doc["schema"] == "graph-phpa/lstm-model/v5"
    assert "layers" not in doc and "layers" not in doc["config"]
    assert all(key in doc for key in ("w_x", "w_h", "b"))
    assert not list(models.glob("lstm_*.json"))


def test_every_gcn_weight_is_a_float32_value(experiment_dir):
    # The GCN fits in float32, so every gcn.json weight is a float32 value,
    # written as the decimals of its float64 widening.
    doc = json.loads((experiment_dir / "models" / "gcn.json").read_text(encoding="utf-8"))
    for w in doc["weights"]:
        w = np.array(w, dtype=np.float64)
        assert np.array_equal(w.astype(np.float32).astype(np.float64), w)
