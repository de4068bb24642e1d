"""Experiment config parsing: strict keys, defaults, and source resolution."""
import copy
import json

import pytest

from conftest import key_path
from graph_phpa.config import ExperimentConfig, TraceSpec
from graph_phpa.errors import ConfigError


def minimal_config(**overrides) -> dict:
    d = {
        "trace": {"synthetic": {"pattern": "sine", "length": 120,
                                "amplitude": 40.0, "seed": 3}},
        "graph": {"nodes": ["front", "back"]},
        "demand": {"entry": "front",
                   "cpu_per_request": {"front": 0.01, "back": 0.005},
                   "fan_out": {"front": {"back": 1.0}}},
        "bounds": {"front": {"r_lb": 1.0, "r_ub": 5.0, "max_pods": 5},
                   "back": {"r_lb": 1.0, "r_ub": 5.0, "max_pods": 5}},
    }
    d.update(overrides)
    return d


class TestParsing:
    def test_minimal_document_fills_defaults(self):
        cfg = ExperimentConfig.from_json_dict(minimal_config())
        assert cfg.lstm.window == 10
        assert cfg.lstm.hidden_units == 50
        assert cfg.gcn.hidden == (32,)
        assert cfg.hpa.scale_out == 0.9
        assert cfg.sim.seed == 0
        assert cfg.sim.startup_delay == 1
        assert cfg.sim.max_total_pods == 79
        assert cfg.split.train == 0.6
        assert cfg.split.valid == 0.2
        assert cfg.bounds["front"].pod_capacity == 1.0

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'tracee' in config"):
            ExperimentConfig.from_json_dict(minimal_config(tracee={}))

    def test_unknown_nested_key_named_with_context(self):
        d = minimal_config()
        d["lstm"] = {"windw": 5}
        with pytest.raises(ConfigError, match="unknown key 'windw' in lstm"):
            ExperimentConfig.from_json_dict(d)

    def test_unknown_bounds_key_names_the_service(self):
        d = minimal_config()
        d["bounds"]["front"]["max_podz"] = 3
        with pytest.raises(ConfigError, match=r"unknown key 'max_podz' in bounds\.front"):
            ExperimentConfig.from_json_dict(d)

    def test_missing_required_key_named(self):
        d = minimal_config()
        del d["demand"]["entry"]
        with pytest.raises(ConfigError, match="missing required key 'entry' in demand"):
            ExperimentConfig.from_json_dict(d)

    def test_bounds_must_cover_graph_nodes(self):
        d = minimal_config()
        del d["bounds"]["back"]
        with pytest.raises(ConfigError, match="missing required key 'back' in bounds"):
            ExperimentConfig.from_json_dict(d)

    def test_windows_must_agree(self):
        # The GCN's window is lstm.window itself.
        cfg = ExperimentConfig.from_json_dict(minimal_config(lstm={"window": 8}))
        assert cfg.gcn.window == cfg.lstm.window == 8

    def test_demand_services_come_from_graph(self):
        cfg = ExperimentConfig.from_json_dict(minimal_config())
        assert cfg.demand.services == ("front", "back")
        assert cfg.graph.nodes == ("front", "back")

    def test_call_graph_edges_are_undirected(self):
        # Every call of demand.fan_out is an edge both ways in the GCN's graph.
        from pathlib import Path
        root = Path(__file__).resolve().parents[1]
        cfg, _ = ExperimentConfig.load(root / "configs" / "experiment.json")
        assert cfg.graph.nodes == ("productpage", "details", "reviews", "ratings")
        assert cfg.graph.adjacency.tolist() == [[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                                [1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]

    def test_call_graphs_must_agree(self):
        # The GCN's graph comes from demand.fan_out, so the models cannot learn
        # one cluster and replay another: a call is an edge, and no call none.
        from conftest import TINY_CONFIG
        cfg = ExperimentConfig.from_json_dict(TINY_CONFIG)
        assert cfg.graph.adjacency.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        d = minimal_config(demand={"entry": "front",
                                   "cpu_per_request": {"front": 0.01, "back": 0.005},
                                   "fan_out": {}})
        assert ExperimentConfig.from_json_dict(d).graph.adjacency.tolist() == [[0.0, 0.0],
                                                                              [0.0, 0.0]]

    @pytest.mark.parametrize("section, key, value", [
        ("graph", "edges", [["front", "back"]]),
        ("gcn", "window", 5),
    ])
    def test_retired_keys_exit_2_naming_the_key(self, section, key, value, tmp_path, capsys):
        # graph.edges restated demand.fan_out, and gcn.window restated lstm.window.
        from conftest import TINY_CONFIG, run_cli
        d = copy.deepcopy(TINY_CONFIG)
        d[section][key] = value
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(d), encoding="utf-8")
        code = run_cli("simulate", "--config", str(config), "--policy", "reactive",
                       "--out", str(tmp_path / "run"))
        assert code == 2
        assert capsys.readouterr().err == f"error: unknown key {key!r} in {section}\n"

    @pytest.mark.parametrize("split, message", [
        # A negative valid fraction replayed minutes of the training window.
        ({"valid": -0.3}, r"split\.valid must be > 0, got -0\.3"),
        ({"train": -0.1}, r"split\.train must be > 0, got -0\.1"),
        ({"train": 0}, r"split\.train must be > 0, got 0\.0"),
        ({"valid": 0.0}, r"split\.valid must be > 0, got 0\.0"),
        ({"train": float("nan")}, r"split\.train must be a finite number, got nan"),
        ({"train": 0.8, "valid": 0.2}, r"split\.train \+ split\.valid must be < 1"),
        ({"train": 0.9, "valid": 0.5}, r"split\.train \+ split\.valid must be < 1"),
    ])
    def test_bad_split_fractions_rejected(self, split, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_json_dict(minimal_config(split=split))

    @pytest.mark.parametrize("train, valid", [(0.6, 0.2), (0.1, 0.1)])
    def test_split_fractions_in_use_load(self, train, valid):
        cfg = ExperimentConfig.from_json_dict(minimal_config(split={"train": train,
                                                                    "valid": valid}))
        assert (cfg.split.train, cfg.split.valid) == (train, valid)

    def test_non_object_section_rejected(self):
        with pytest.raises(ConfigError, match="lstm must be an object"):
            ExperimentConfig.from_json_dict(minimal_config(lstm=[1, 2]))


# One value of the tiny test config changed at a time. Each of these either
# ended in a traceback (exit 1) or ran with a fractional, boolean or string
# value taken for a number (exit 0).
BAD_VALUES = [
    (("bounds", "front", "r_lb"), "1.0", "bounds.front.r_lb"),
    (("lstm", "epochs"), "8", "lstm.epochs"),
    (("demand", "noise_sigma"), "0.05", "demand.noise_sigma"),
    (("hpa", "scale_in"), "0.3", "hpa.scale_in"),
    (("gcn", "hidden"), 8, "gcn.hidden"),
    (("sim", "max_total_pods"), None, "sim.max_total_pods"),
    (("demand", "cpu_per_request", "back"), None, "demand.cpu_per_request.back"),
    (("demand", "fan_out"), [["front", "back"]], "demand.fan_out"),
    (("bounds", "front", "max_pods"), 2.5, "bounds.front.max_pods"),
    (("bounds", "front", "max_pods"), True, "bounds.front.max_pods"),
    (("split", "train"), "0.6", "split.train"),
    # These exited 0, or exited 2 without naming the key: lstm.window as the
    # GCN's "window must be >= 2", max_total_pods only at run time as
    # "initial pods exceed cluster budget 0". A negative noise was skipped.
    (("lstm", "window"), 1, "lstm.window"),
    (("sim", "max_total_pods"), 0, "sim.max_total_pods"),
    (("trace", "synthetic", "noise"), -1, "trace.synthetic.noise"),
]


class TestValueTypes:
    @pytest.mark.parametrize("path, value, key", BAD_VALUES,
                             ids=[f"{key}={value!r}" for _, value, key in BAD_VALUES])
    def test_wrong_type_exits_2_naming_the_key(self, path, value, key, tmp_path, capsys):
        from conftest import TINY_CONFIG, run_cli
        d = copy.deepcopy(TINY_CONFIG)
        section = d
        for name in path[:-1]:
            section = section[name]
        section[path[-1]] = value
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(d), encoding="utf-8")
        code = run_cli("simulate", "--config", str(config), "--policy", "reactive",
                       "--out", str(tmp_path / "run"))
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: {key} must be "), err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("period", [0, -0.0, 1e-320])
    def test_degenerate_synthetic_period_exits_2(self, period, tmp_path, capsys):
        from conftest import TINY_CONFIG, run_cli
        d = copy.deepcopy(TINY_CONFIG)
        d["trace"]["synthetic"]["period"] = period
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(d), encoding="utf-8")
        code = run_cli("simulate", "--config", str(config), "--policy", "reactive",
                       "--out", str(tmp_path / "run"))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: trace.synthetic.period {period} ")

    def test_counts_above_2_pow_53_exit_2_naming_the_keys(self, tmp_path, capsys):
        from conftest import TINY_CONFIG, run_cli
        d = copy.deepcopy(TINY_CONFIG)
        d["trace"]["synthetic"]["base"] = 1e16
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(d), encoding="utf-8")
        code = run_cli("simulate", "--config", str(config), "--policy", "reactive",
                       "--out", str(tmp_path / "run"))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: trace.synthetic.base 1e+16, trace.synthetic.amplitude 60.0 and "
            "trace.synthetic.noise 0.05 give sine counts above 2**53, more than float64 "
            "holds exactly\n")

    def test_integral_floats_are_not_counts(self):
        d = minimal_config(sim={"seed": 3.0})
        with pytest.raises(ConfigError, match="sim.seed must be an integer, got 3.0"):
            ExperimentConfig.from_json_dict(d)


class TestTraceSpec:
    def test_file_and_synthetic_are_exclusive(self, tmp_path):
        both = TraceSpec(file="x.csv", synthetic={"pattern": "sine"})
        with pytest.raises(ConfigError, match="exactly one"):
            both.resolve(tmp_path)
        neither = TraceSpec()
        with pytest.raises(ConfigError, match="exactly one"):
            neither.resolve(tmp_path)

    def test_synthetic_resolution(self, tmp_path):
        spec = TraceSpec(synthetic={"pattern": "sine", "length": 60,
                                    "amplitude": 10.0, "seed": 1})
        trace = spec.resolve(tmp_path)
        assert len(trace) == 60
        assert trace.resolution == 1

    def test_synthetic_unknown_key(self, tmp_path):
        spec = TraceSpec(synthetic={"pattern": "sine", "length": 60,
                                    "amplitude": 10.0, "seed": 1, "nois": 0.1})
        with pytest.raises(ConfigError, match=r"unknown key 'nois' in trace\.synthetic"):
            spec.resolve(tmp_path)

    def test_file_resolution_relative_to_base_dir(self, tmp_path):
        (tmp_path / "t.csv").write_text("minute,requests\n0,5\n1,7\n", encoding="utf-8")
        trace = TraceSpec(file="t.csv").resolve(tmp_path)
        assert trace.values.tolist() == [5.0, 7.0]

    def test_interpolation_applied(self, tmp_path):
        (tmp_path / "five.csv").write_text(
            "minute,requests\n0,10\n5,10\n10,10\n", encoding="utf-8")
        spec = TraceSpec(file="five.csv", resolution=5, interpolate=True)
        trace = spec.resolve(tmp_path)
        assert trace.resolution == 1
        assert len(trace) == 15
        assert sum(trace.counts) == 30

    def test_rescale_applied(self, tmp_path):
        (tmp_path / "t.csv").write_text("minute,requests\n0,5\n1,10\n", encoding="utf-8")
        trace = TraceSpec(file="t.csv", rescale_peak=200.0).resolve(tmp_path)
        assert max(trace.counts) == 200


class TestLoad:
    def test_load_returns_config_and_base_dir(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(minimal_config()), encoding="utf-8")
        cfg, base = ExperimentConfig.load(path)
        assert base == tmp_path
        assert cfg.graph.size == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read .*nope.json: No such file"):
            ExperimentConfig.load(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.load(path)


class TestBundledConfigs:
    def test_experiment_config_parses_and_resolves(self):
        from pathlib import Path
        root = Path(__file__).resolve().parents[1]
        cfg, base = ExperimentConfig.load(root / "configs" / "experiment.json")
        assert cfg.graph.size == 4
        assert cfg.lstm.window == cfg.gcn.window == 10
        assert cfg.sim.max_total_pods == 79
        trace = cfg.trace.resolve(base)
        assert trace.resolution == 1
        assert len(trace) == 3600


def names_key(message: str, label: str, path: tuple) -> bool:
    """Whether an exit-2 message names the key a mutation changed, or added:
    its dotted path, or "key 'k' in <parent>". A graph.nodes entry must agree
    with the per-service keys of demand, so a message about one names
    graph.nodes and the key it disagrees with."""
    if label.endswith("+extra"):
        path += ("extra",)
    if key_path(path) in message or f"key {path[-1]!r} in {key_path(path[:-1])}" in message:
        return True
    return (path[:2] == ("graph", "nodes") and "graph.nodes" in message
            and any(key in message for key in ("demand.entry", "demand.cpu_per_request")))


# Path prefixes of the config sections that only the trainings read: their
# mutations go through train-workload and train-resource, the others through
# simulate.
MODEL_SECTIONS = (("lstm",), ("gcn",))


def run_sweep(capsys, config, selected, run):
    """Every single mutation of the tiny config whose path selected(path)
    takes, written to config and run by run(); returns (count, faults,
    unnamed, admitted): any exit but 0 or 2, exit-2 messages that do not name
    the changed key, and the labels that exit 0."""
    from conftest import TINY_CONFIG, mutations
    faults, unnamed, admitted = [], [], []
    sweep = [m for m in mutations(TINY_CONFIG) if selected(m[1])]
    for label, path, edit in sweep:
        doc = copy.deepcopy(TINY_CONFIG)
        edit(doc)
        config.write_text(json.dumps(doc), encoding="utf-8")
        try:
            code = run()
        except Exception as exc:  # collected: any exception is a fault
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code not in (0, 2):
            faults.append((label, code))
        elif code == 2 and not names_key(err, label, path):
            unnamed.append((label, err))
        elif code == 0:
            admitted.append(label)
    return len(sweep), faults, unnamed, admitted


class TestMutationSweep:
    def test_every_single_mutation_exits_0_or_2(self, tmp_path, capsys):
        from graph_phpa import cli
        config, out = tmp_path / "experiment.json", tmp_path / "run"
        count, faults, unnamed, admitted = run_sweep(
            capsys, config, lambda path: path[:1] not in MODEL_SECTIONS,
            lambda: cli.main(["simulate", "--config", str(config), "--policy", "reactive",
                              "--out", str(out)]))
        assert count > 400
        assert faults == []
        assert unnamed == []
        # Exit 0 only where the schema admits the value: no key of the tiny
        # config takes true or false, and a synthetic level is never negative.
        # A negative amplitude or base used to run.
        assert [label for label in admitted if label.endswith("=True")] == []
        assert {"trace.synthetic.amplitude=-1", "trace.synthetic.base=-1"}.isdisjoint(admitted)

    def test_model_sections_exit_0_or_2_through_training(self, tmp_path, capsys):
        # simulate --policy reactive never reads lstm or gcn, so their
        # mutations run where they are used: train-workload, then
        # train-resource on the forecasters it wrote. Among them are rates
        # such as lstm.learning_rate=2.5, which reach the divergence checks.
        from graph_phpa import cli
        config, out = tmp_path / "experiment.json", tmp_path / "models"

        def train():
            code = cli.main(["train-workload", "--config", str(config), "--out", str(out)])
            return code or cli.main(["train-resource", "--config", str(config),
                                     "--models", str(out), "--out", str(out)])

        count, faults, unnamed, admitted = run_sweep(
            capsys, config, lambda path: path[:1] in MODEL_SECTIONS, train)
        assert count > 100
        assert faults == []
        assert unnamed == []
        assert [label for label in admitted if label.endswith("=True")] == []
