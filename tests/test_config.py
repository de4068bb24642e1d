"""Experiment config parsing: strict keys, defaults, and source resolution."""
import copy
import json

import pytest

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
        assert cfg.sim_seed == 0
        assert cfg.startup_delay == 1
        assert cfg.max_total_pods == 79
        assert cfg.train_frac == 0.6
        assert cfg.valid_frac == 0.2
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
        with pytest.raises(ConfigError, match="bounds must name exactly"):
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
        ({"train": float("nan")}, r"split\.train must be > 0, got nan"),
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
        assert (cfg.train_frac, cfg.valid_frac) == (train, valid)

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
        assert capsys.readouterr().err.startswith(f"error: period {period} ")

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
        with pytest.raises(ConfigError, match="not found"):
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
        assert cfg.max_total_pods == 79
        trace = cfg.trace.resolve(base)
        assert trace.resolution == 1
        assert len(trace) == 3600


# Every value a mutation puts in place of a key or list element of TINY_CONFIG.
MUTANT_VALUES = [None, "x", [], {}, True, -1, 0, 2.5]


def _children(node):
    if isinstance(node, dict):
        return list(node.items())
    return list(enumerate(node)) if isinstance(node, list) else []


def config_mutations(node, path=()):
    """(label, edit) for one change at a time under node: every key and list
    element set to each of MUTANT_VALUES and dropped, and every object given
    an extra key. edit(doc) applies the change to a copy of the document."""
    label = ".".join(map(str, path)) or "config"
    if isinstance(node, dict):
        yield f"{label}+extra", lambda doc: _at(doc, path).update(extra=1)
    for key, child in _children(node):
        here = path + (key,)
        name = ".".join(map(str, here))
        for value in MUTANT_VALUES:
            yield f"{name}={value!r}", lambda doc, k=key, v=value: _at(doc, path).__setitem__(k, v)
        yield f"drop {name}", lambda doc, k=key: _at(doc, path).pop(k)
        yield from config_mutations(child, here)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


class TestMutationSweep:
    def test_every_single_mutation_exits_0_or_2(self, tmp_path, capsys):
        from conftest import TINY_CONFIG
        from graph_phpa import cli
        config, out = tmp_path / "experiment.json", tmp_path / "run"
        faults = []
        mutations = list(config_mutations(TINY_CONFIG))
        for label, edit in mutations:
            doc = copy.deepcopy(TINY_CONFIG)
            edit(doc)
            config.write_text(json.dumps(doc), encoding="utf-8")
            try:
                code = cli.main(["simulate", "--config", str(config), "--policy", "reactive",
                                 "--out", str(out)])
            except Exception as exc:  # collected: any exception is a fault
                code = f"{type(exc).__name__}: {exc}"
            if code not in (0, 2):
                faults.append((label, code))
            capsys.readouterr()
        assert len(mutations) > 500
        assert faults == []
