"""Comparison reporting: savings math, mismatch guards, chart structure."""
import json

import pytest

from graph_phpa.cluster_sim import SimRow, SimulationLog
from graph_phpa.errors import RunMismatchError, ValidationError
from graph_phpa.report import (
    check_runs_comparable,
    comparison_table,
    load_run,
    pods_chart_svg,
    render_table_text,
    write_comparison,
)


def make_log(policy: str, pods_a, pods_b=None, seed=1, sha="t", start=0):
    """Log over services (a, b) with the given per-minute pod counts."""
    pods_b = pods_b if pods_b is not None else pods_a
    rows = []
    for m, (pa, pb) in enumerate(zip(pods_a, pods_b)):
        util_a = 2.0 / pa
        util_b = 1.0 / pb
        rows.append(SimRow(start + m, "a", 100.0, 100.0, pa, util_a,
                           util_a > 1.0, policy, 0))
        rows.append(SimRow(start + m, "b", 100.0, 50.0, pb, util_b,
                           util_b > 1.0, policy, 0))
    return SimulationLog(policy_name=policy, seed=seed, trace_sha256=sha,
                         start_minute=start, horizon=len(pods_a),
                         services=("a", "b"), rows=rows)


class TestComparability:
    def test_accepts_matching_runs(self):
        check_runs_comparable([make_log("x", [2, 2]), make_log("y", [3, 3])])

    def test_needs_two_runs(self):
        with pytest.raises(ValidationError, match="two runs"):
            check_runs_comparable([make_log("x", [2])])

    def test_duplicate_policy_names(self):
        with pytest.raises(RunMismatchError) as exc:
            check_runs_comparable([make_log("x", [2]), make_log("x", [3])])
        assert exc.value.field == "policy"

    def test_trace_mismatch_names_the_field(self):
        with pytest.raises(RunMismatchError) as exc:
            check_runs_comparable([make_log("x", [2], sha="t1"),
                                   make_log("y", [2], sha="t2")])
        assert exc.value.field == "trace_sha256"

    def test_seed_mismatch(self):
        with pytest.raises(RunMismatchError) as exc:
            check_runs_comparable([make_log("x", [2], seed=1),
                                   make_log("y", [2], seed=2)])
        assert exc.value.field == "seed"

    def test_window_mismatch(self):
        with pytest.raises(RunMismatchError) as exc:
            check_runs_comparable([make_log("x", [2, 2]), make_log("y", [2])])
        assert exc.value.field == "horizon"


class TestComparisonTable:
    def test_savings_formula(self):
        # Baseline 1000 pod-minutes vs 800: 20% savings.
        base = make_log("base", [100] * 5, [100] * 5)   # 5*(100+100) = 1000
        lean = make_log("lean", [80] * 5, [80] * 5)     # 800
        table = comparison_table([lean, base], baseline="base")
        rows = {r["policy"]: r for r in table["policies"]}
        assert rows["base"]["savings_vs_baseline_pct"] is None
        assert rows["lean"]["savings_vs_baseline_pct"] == pytest.approx(20.0)
        assert rows["base"]["pod_minutes"] == 1000
        assert rows["lean"]["pod_minutes"] == 800

    def test_self_comparison_is_zero_percent(self):
        a = make_log("a", [4, 4, 4])
        b = make_log("b", [4, 4, 4])
        table = comparison_table([a, b], baseline="b")
        rows = {r["policy"]: r for r in table["policies"]}
        assert rows["a"]["savings_vs_baseline_pct"] == pytest.approx(0.0)

    def test_overload_and_peak_totals(self):
        # pods_a=1 makes util_a=2.0: overloaded every minute.
        hot = make_log("hot", [1, 1, 1], [1, 1, 1])
        cold = make_log("cold", [4, 4, 4], [4, 4, 4])
        table = comparison_table([hot, cold], baseline="cold")
        rows = {r["policy"]: r for r in table["policies"]}
        assert rows["hot"]["overload_minutes"] == 3
        assert rows["cold"]["overload_minutes"] == 0
        assert rows["hot"]["peak_total_pods"] == 2
        assert rows["cold"]["peak_total_pods"] == 8

    def test_unknown_baseline(self):
        with pytest.raises(ValidationError, match="baseline"):
            comparison_table([make_log("x", [2]), make_log("y", [2])], baseline="z")

    def test_text_rendering_includes_all_policies(self):
        table = comparison_table([make_log("aaa", [2, 2]), make_log("bbb", [3, 3])],
                                 baseline="aaa")
        text = render_table_text(table)
        assert "aaa" in text and "bbb" in text
        assert "baseline" in text
        assert "horizon: 2 minutes" in text


class TestChart:
    def test_one_polyline_per_policy(self):
        logs = [make_log("x", [2, 3, 3, 2]), make_log("y", [4, 4, 4, 4])]
        svg = pods_chart_svg(logs, "a")
        assert svg.count("<polyline") == 2
        assert "x" in svg and "y" in svg
        assert svg.startswith("<svg")

    def test_step_rendering_adds_corner_points(self):
        # 2 -> 3 transitions insert the pre-step vertex, so the polyline has
        # more points than minutes.
        svg = pods_chart_svg([make_log("x", [2, 3, 2, 2])], "a")
        points = svg.split('points="')[1].split('"')[0].split()
        assert len(points) == 4 + 2  # two level changes

    def test_unknown_service(self):
        with pytest.raises(ValidationError, match="unknown service"):
            pods_chart_svg([make_log("x", [2])], "zzz")


class TestWriteAndLoad:
    def test_write_comparison_emits_expected_files(self, tmp_path):
        logs = [make_log("x", [2, 3]), make_log("y", [4, 4])]
        table = write_comparison(tmp_path, logs, baseline="y")
        assert (tmp_path / "table.json").exists()
        assert (tmp_path / "table.txt").exists()
        assert (tmp_path / "pods_a.svg").exists()
        assert (tmp_path / "pods_b.svg").exists()
        on_disk = json.loads((tmp_path / "table.json").read_text(encoding="utf-8"))
        assert on_disk == table

    def test_outputs_are_byte_stable(self, tmp_path):
        logs = [make_log("x", [2, 3]), make_log("y", [4, 4])]
        d1, d2 = tmp_path / "one", tmp_path / "two"
        write_comparison(d1, logs, baseline="y")
        write_comparison(d2, logs, baseline="y")
        for name in ("table.json", "table.txt", "pods_a.svg", "pods_b.svg"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_load_run_round_trip(self, tmp_path):
        log = make_log("x", [2, 3, 4], [1, 1, 2])
        log.write_csv(tmp_path / "sim.csv")
        (tmp_path / "summary.json").write_text(
            json.dumps(log.summary(), sort_keys=True), encoding="utf-8")
        loaded = load_run(tmp_path)
        assert loaded.policy_name == "x"
        assert loaded.rows == log.rows
        assert loaded.summary() == log.summary()

    def test_load_run_rejects_non_run_dir(self, tmp_path):
        with pytest.raises(ValidationError, match="not a run directory"):
            load_run(tmp_path)

    def test_load_run_rejects_a_foreign_header(self, tmp_path):
        log = make_log("x", [2, 3])
        log.write_csv(tmp_path / "sim.csv")
        (tmp_path / "summary.json").write_text(
            json.dumps(log.summary(), sort_keys=True), encoding="utf-8")
        text = (tmp_path / "sim.csv").read_text(encoding="utf-8")
        (tmp_path / "sim.csv").write_text(text.replace("pods,", "replicas,", 1),
                                          encoding="utf-8")
        with pytest.raises(ValidationError, match="sim.csv has header"):
            load_run(tmp_path)
        (tmp_path / "sim.csv").write_text("", encoding="utf-8")
        with pytest.raises(ValidationError, match="sim.csv has header None"):
            load_run(tmp_path)

    def test_load_run_rejects_a_malformed_row(self, tmp_path):
        log = make_log("x", [2, 3])
        log.write_csv(tmp_path / "sim.csv")
        (tmp_path / "summary.json").write_text(
            json.dumps(log.summary(), sort_keys=True), encoding="utf-8")
        with open(tmp_path / "sim.csv", "a", encoding="utf-8") as fh:
            fh.write("2,a,100.0,100.0,two,1.0,0,x,0\n")
        with pytest.raises(ValidationError, match="sim.csv line 6"):
            load_run(tmp_path)

    def test_summary_recomputable_from_csv(self, tmp_path):
        # The invariant reporting relies on: totals in summary.json must be
        # derivable from sim.csv alone.
        log = make_log("x", [2, 3, 4], [1, 2, 1])
        log.write_csv(tmp_path / "sim.csv")
        (tmp_path / "summary.json").write_text(
            json.dumps(log.summary(), sort_keys=True), encoding="utf-8")
        loaded = load_run(tmp_path)
        saved = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert loaded.pod_minutes() == saved["totals"]["pod_minutes"]
        assert loaded.overload_minutes() == saved["totals"]["overload_minutes"]
        assert loaded.peak_total_pods() == saved["totals"]["peak_total_pods"]
