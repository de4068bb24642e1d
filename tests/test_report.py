"""Comparison reporting: savings math, mismatch guards, chart structure.

The column log's aggregates, charts and CSV round trip are checked bit for
bit against row-by-row references in oracles.py.
"""
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_phpa.cluster_sim import SimulationLog
from graph_phpa.errors import RunMismatchError, ValidationError
from graph_phpa.report import (
    _write_pods_chart,
    check_runs_comparable,
    comparison_table,
    load_run,
    render_table_text,
    write_comparison,
)
from graph_phpa.tensor import BLOCK
from conftest import traced_peak
from oracles import (SimRow, assert_same_picture, log_from_rows, log_rows,
                     mean_utilization_oracle, pods_chart_svg_oracle, summary_oracle)


def pods_chart_svg(logs, service) -> str:
    """The pods chart write_comparison writes for one service."""
    out = io.StringIO()
    _write_pods_chart(out, logs, service)
    return out.getvalue()


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
    return log_from_rows(rows, policy_name=policy, services=("a", "b"), start_minute=start,
                         seed=seed, trace_sha256=sha)


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

    @pytest.mark.parametrize("pods, count", [
        ([2, 3, 2, 2], 1 + 2 * 2 + 1), ([2] * 9, 2), ([2] * 8 + [3], 3), ([2], 1),
        ([2, 3] * 4, 15)])
    def test_step_rendering_draws_only_corner_points(self, pods, count):
        # Each level change draws the old level and then the new one at its
        # minute, between the first minute and the last; a change at the last
        # minute already drew it, and a one-minute log is a single point.
        svg = pods_chart_svg([make_log("x", pods)], "a")
        assert len(svg.split('points="')[1].split('"')[0].split()) == count

    def test_unknown_service(self):
        with pytest.raises(ValidationError, match="unknown service"):
            pods_chart_svg([make_log("x", [2])], "zzz")

    def test_markup_in_names_is_escaped(self, tmp_path):
        # A service or policy name with markup used to give a chart that is
        # not well-formed XML.
        services = ("<b&>", "c")
        rows = [SimRow(m, s, 1.0, 1.0, 1 + m, 0.5, False, "p<&>", 0)
                for m in range(2) for s in services]
        log = log_from_rows(rows, policy_name="p<&>", services=services, start_minute=0)
        logs = [log, dataclasses.replace(log, policy_name="q")]
        write_comparison(tmp_path, logs, baseline="q")
        svg = (tmp_path / "pods_<b&>.svg").read_text(encoding="utf-8")
        texts = [e.text for e in ElementTree.fromstring(svg).iter(
            "{http://www.w3.org/2000/svg}text")]
        assert "pods over time: <b&>" in texts and "p<&>" in texts
        assert svg == pods_chart_svg_oracle(logs, "<b&>")


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
        assert log_rows(loaded) == log_rows(log)
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


def save_run(run_dir: Path, log) -> Path:
    run_dir.mkdir(parents=True, exist_ok=True)
    log.write_csv(run_dir / "sim.csv")
    (run_dir / "summary.json").write_text(json.dumps(log.summary(), sort_keys=True),
                                          encoding="utf-8")
    return run_dir


# Names csv must quote, characters np.loadtxt would otherwise treat
# specially (comments, surrounding blanks), and %-formats.
NAMES = st.text(alphabet='ab,"\n\r# é%d', max_size=4)
SPECIAL_FLOATS = st.sampled_from([float("inf"), -float("inf"), float("nan"), 1e-300,
                                  5e-324, 2.2250738585072014e-308 / 3, -0.0, 1 / 3])


def grids(elements, shape):
    n = int(np.prod(shape))
    return st.lists(elements, min_size=n, max_size=n).map(
        lambda values: np.array(values).reshape(shape))


@st.composite
def column_logs(draw, floats=st.floats(allow_nan=False) | SPECIAL_FLOATS,
                pods=st.integers(0, 10**6), horizon=st.integers(1, 6)):
    services = tuple(draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)))
    shape = (draw(horizon), len(services))
    return SimulationLog(policy_name=draw(NAMES), seed=draw(st.integers(0, 99)),
                         trace_sha256="t", start_minute=draw(st.integers(0, 10**6)),
                         services=services,
                         external=draw(grids(floats, shape[:1])).astype(float),
                         service_rps=draw(grids(floats, shape)).astype(float),
                         pods=draw(grids(pods, shape)),
                         utilization=draw(grids(floats, shape)).astype(float),
                         decision_delta=draw(grids(st.integers(-50, 50), shape)))


# Every name character that needs care, and every special float, in one log.
AWKWARD_NAMES = ("a,b", 'q"x', "l\nb", "r\rq", "#c", " s ")
AWKWARD_LOG = SimulationLog(
    policy_name="p,\r\n#%d", seed=3, trace_sha256="t", start_minute=7, services=AWKWARD_NAMES,
    external=np.array([float("inf"), 1e-300]),
    service_rps=np.array([[float("nan"), 5e-324, -0.0, 1 / 3, 1e308, -1.5]] * 2),
    pods=np.array([[1, 2, 3, 4, 5, 6], [0, 9, 9, 9, 9, 2**40]]),
    utilization=np.array([[1.0, 1.0000000000000002, float("nan"), float("inf"), 0.0, 1e-320]] * 2),
    decision_delta=np.array([[0, 1, -1, 2, -2, 3]] * 2))


class TestColumnLog:
    @given(log=column_logs())
    @example(log=AWKWARD_LOG)
    @settings(max_examples=60, deadline=None)
    def test_csv_round_trip_is_bit_exact(self, log):
        with tempfile.TemporaryDirectory() as d:
            loaded = load_run(save_run(Path(d), log))
        assert (loaded.policy_name, loaded.seed, loaded.trace_sha256, loaded.start_minute,
                loaded.services) == (log.policy_name, log.seed, log.trace_sha256,
                                     log.start_minute, log.services)
        for name in ("external", "service_rps", "pods", "utilization", "decision_delta"):
            a, b = getattr(loaded, name), getattr(log, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_aggregates_match_the_row_oracle(self, data):
        utils = st.floats(0.0, 1e6) | st.floats(0.0, 3.0)
        pods = st.integers(1, 40)
        # Long enough that np.sum's unrolled, pairwise order would differ.
        log = data.draw(column_logs(floats=utils, pods=pods, horizon=st.integers(1, 40)))
        logs = [dataclasses.replace(log, policy_name=f"p{i}",
                                    pods=data.draw(grids(pods, log.pods.shape)),
                                    utilization=data.draw(grids(utils, log.pods.shape)))
                for i in range(3)]
        table = comparison_table(logs, baseline="p0")
        for row, log in zip(table["policies"], logs):
            # json.dumps writes repr: equal text means bit-equal floats.
            assert json.dumps(log.summary()) == json.dumps(summary_oracle(log))
            assert repr(row["mean_utilization"]) == repr(mean_utilization_oracle(log))
            totals = summary_oracle(log)["totals"]
            assert (row["pod_minutes"], row["overload_minutes"], row["peak_total_pods"]) \
                == (totals["pod_minutes"], totals["overload_minutes"],
                    totals["peak_total_pods"])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pods_chart_matches_the_row_oracle(self, data):
        # Logs of different windows and lengths, with pod changes anywhere.
        services = tuple(data.draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)))
        logs = []
        for i in range(data.draw(st.integers(1, 3))):
            shape = (data.draw(st.integers(1, 12)), len(services))
            logs.append(SimulationLog(
                policy_name=f"p{i}", seed=1, trace_sha256="t",
                start_minute=data.draw(st.integers(0, 6)), services=services,
                external=np.ones(shape[0]), service_rps=np.ones(shape),
                pods=data.draw(grids(st.integers(1, 4), shape)), utilization=np.ones(shape),
                decision_delta=np.zeros(shape)))
        for service in services:
            assert pods_chart_svg(logs, service) == pods_chart_svg_oracle(logs, service)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_corners_draw_the_every_minute_picture(self, data):
        # Column logs of awkward names and any start, and made logs of runs
        # of levels, of different windows and lengths.
        levels = st.integers(0, 2)
        log = data.draw(column_logs(pods=levels, horizon=st.integers(1, 40)))
        count = st.integers(1, 3)
        columns = [dataclasses.replace(log, policy_name=f"p{i}",
                                       pods=data.draw(grids(levels, log.pods.shape)))
                   for i in range(data.draw(count))]
        runs = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 8)), min_size=1,
                        max_size=8).map(lambda runs: [p for p, n in runs for _ in range(n)])
        made = [make_log(f"m{i}", data.draw(runs), data.draw(runs),
                         start=data.draw(st.integers(0, 6))) for i in range(data.draw(count))]
        for logs in (columns, made):
            for service in logs[0].services:
                assert_same_picture(pods_chart_svg(logs, service),
                                    pods_chart_svg_oracle(logs, service, every_minute=True))

    def test_pods_chart_of_a_single_minute(self):
        logs = [make_log("x", [3]), make_log("y", [1], start=2)]
        for service in ("a", "b"):
            assert pods_chart_svg(logs, service) == pods_chart_svg_oracle(logs, service)


class TestLoadRunRejects:
    def corrupt(self, tmp_path, edit, log=None):
        """Save a run, rewrite sim.csv's data lines with edit, and load it."""
        log = log or make_log("x", [2, 3, 4], [1, 2, 1], start=10)
        run_dir = save_run(tmp_path, log)
        head, *lines = (run_dir / "sim.csv").read_text(encoding="utf-8").splitlines(True)
        (run_dir / "sim.csv").write_text(head + "".join(edit(lines)), encoding="utf-8")
        return lambda: load_run(run_dir)

    def test_rows_out_of_service_order(self, tmp_path):
        load = self.corrupt(tmp_path, lambda ls: ls[:2] + [ls[3], ls[2]] + ls[4:])
        with pytest.raises(ValidationError, match=r"sim.csv line 4: expected minute 11, "
                                                  r"service 'a', policy 'x' by "
                                                  r"summary.json, got minute 11, "
                                                  r"service 'b'"):
            load()

    def test_rows_out_of_minute_order(self, tmp_path):
        load = self.corrupt(tmp_path, lambda ls: ls[2:4] + ls[:2] + ls[4:])
        with pytest.raises(ValidationError, match="sim.csv line 2: expected minute 10"):
            load()

    def test_missing_and_extra_rows(self, tmp_path):
        load = self.corrupt(tmp_path, lambda ls: ls[:-1])
        with pytest.raises(ValidationError, match="line 7: .* got the end of the file"):
            load()
        load = self.corrupt(tmp_path, lambda ls: ls + ls[-2:])
        with pytest.raises(ValidationError, match="line 8: expected no row by summary.json, "
                                                  "got minute 12, service 'a'"):
            load()

    def test_policy_differs_from_summary(self, tmp_path):
        load = self.corrupt(tmp_path, lambda ls: ls[:5] + [ls[5].replace(",x,", ",y,")])
        with pytest.raises(ValidationError, match="line 7: .*policy 'x' by summary.json, "
                                                  "got minute 12, service 'b', policy 'y'"):
            load()

    def test_summary_without_services(self, tmp_path):
        run_dir = save_run(tmp_path, make_log("x", [2]))
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        summary["service_order"] = []
        (run_dir / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
        with pytest.raises(ValidationError, match="summary.json lists no services"):
            load_run(run_dir)

    @pytest.mark.parametrize("name", ["a/b", "a\0b", "b\ud800", "b\x01"])
    def test_summary_with_a_service_name_with_slash_or_nul(self, tmp_path, name):
        # compare writes a pods_<service>.svg per service.
        run_dir = save_run(tmp_path, make_log("x", [2]))
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        summary["service_order"] = ["a", name]
        (run_dir / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
        with pytest.raises(ValidationError, match=r"summary.json: service_order\[1\] .* must "
                                                  r"not contain '/' or NUL"):
            load_run(run_dir)

    @pytest.mark.parametrize("horizon, message", [(-1, "has a negative horizon -1"),
                                                   (0, "has a zero horizon"),
                                                   ("3", "horizon must be an integer")])
    def test_summary_with_a_bad_horizon(self, tmp_path, horizon, message):
        run_dir = save_run(tmp_path, make_log("x", [2, 3, 4]))
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        summary["horizon"] = horizon
        (run_dir / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
        with pytest.raises(ValidationError, match=message):
            load_run(run_dir)

    def test_line_counts_newlines_inside_quoted_names(self, tmp_path):
        rows = [SimRow(m, s, 1.0, 1.0, 1, 0.5, False, "p", 0)
                for m in range(2) for s in ("a\nb", "c")]
        log = log_from_rows(rows, policy_name="p", services=("a\nb", "c"), start_minute=0)
        # Each "a\nb" row spans two lines: the swapped minute-1 rows start on line 5.
        load = self.corrupt(tmp_path, lambda ls: ls[:3] + [ls[5], ls[3], ls[4]], log)
        with pytest.raises(ValidationError, match=re.escape(
                "line 5: expected minute 1, service 'a\\nb', policy 'p' by summary.json, "
                "got minute 1, service 'c'")):
            load()


def random_log(horizon: int, services: tuple[str, ...], policy: str = "p") -> SimulationLog:
    rng = np.random.default_rng(horizon)
    shape = (horizon, len(services))
    return SimulationLog(policy_name=policy, seed=1, trace_sha256="t", start_minute=0,
                         services=services, external=rng.random(horizon) * 300,
                         service_rps=rng.random(shape) * 300, pods=rng.integers(1, 13, shape),
                         utilization=rng.random(shape) * 1.2,
                         decision_delta=rng.integers(-1, 2, shape))


class TestBlockedLoad:
    """load_run parses a block of minutes at a time, yet reports a bad row on
    the line a single whole-file pass reported."""

    # Minute m's two rows start on lines 3m + 2 ("a\nb", two lines) and
    # 3m + 4 ("c"). Minute BLOCK + 44 lies in the second block.
    MINUTE = BLOCK + 44

    def corrupt(self, tmp_path, old: str, new: str):
        run_dir = save_run(tmp_path, random_log(2 * BLOCK + 10, ("a\nb", "c")))
        text = (run_dir / "sim.csv").read_text(encoding="utf-8")
        assert text.count(old) == 1
        (run_dir / "sim.csv").write_text(text.replace(old, new), encoding="utf-8")
        return lambda: load_run(run_dir)

    def test_round_trip_across_blocks(self, tmp_path):
        log = random_log(2 * BLOCK + 10, ("a\nb", "c"))
        assert log_rows(load_run(save_run(tmp_path, log))) == log_rows(log)

    def test_malformed_row_in_the_second_block(self, tmp_path):
        m = self.MINUTE
        load = self.corrupt(tmp_path, f"\n{m},c,", f"\n{m},c,x")
        with pytest.raises(ValidationError, match=f"sim.csv line {3 * m + 4}: could not convert "
                                                  f"string 'x.*' to float64 at row {2 * m + 1}"):
            load()

    def test_row_out_of_place_in_the_second_block(self, tmp_path):
        m = self.MINUTE
        load = self.corrupt(tmp_path, f'\n{m},"a\nb",', f'\n{m + 1},"a\nb",')
        with pytest.raises(ValidationError, match=re.escape(
                f"sim.csv line {3 * m + 2}: expected minute {m}, service 'a\\nb', policy 'p' "
                f"by summary.json, got minute {m + 1}, service 'a\\nb'")):
            load()

    def test_memory_is_bounded(self, tmp_path):
        # A 10,000-minute, 4-service log. Whole-horizon passes peaked at 3.5 MB
        # writing (lists of every cell) and 9.3 MB loading (one record per row,
        # two str each); the loaded arrays themselves take 1.36 MB.
        log = random_log(10_000, ("productpage", "details", "reviews", "ratings"),
                         policy="reactive@0.9")
        peak = traced_peak(lambda: log.write_csv(tmp_path / "sim.csv"))
        assert peak < 1e6, f"write_csv peaked at {peak / 1e6:.1f} MB"
        (tmp_path / "summary.json").write_text(json.dumps(log.summary()), encoding="utf-8")
        peak = traced_peak(lambda: load_run(tmp_path))
        assert peak < 3e6, f"load_run peaked at {peak / 1e6:.1f} MB"

    def test_pods_charts_memory_is_bounded(self, tmp_path):
        # Each chart's corners are written a block of steps at a time: 0.25 MB.
        # Whole charts, each polyline's coordinate list and its join, peaked
        # at 4.26 MB, and one string of each polyline's corners at 1.32 MB.
        services = ("productpage", "details", "reviews", "ratings")
        logs = [random_log(10_000, services, policy=p) for p in ("reactive@0.9", "reactive@0.7")]
        peak = traced_peak(lambda: write_comparison(tmp_path, logs, baseline="reactive@0.7"))
        assert peak < 1.5e6, f"write_comparison peaked at {peak / 1e6:.2f} MB"
        assert len(list(tmp_path.glob("pods_*.svg"))) == len(services)


class TestBlockedPodsCharts:
    """Polyline corners are written a block of steps at a time, yet every
    corner lands where a whole-horizon pass put it: at horizons on the edges
    of blocks of minutes, and at step counts on the edges of blocks of steps."""

    @pytest.mark.parametrize("horizon", [BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK])
    def test_charts_across_the_block_edge(self, tmp_path, horizon):
        # Service a changes level at minutes BLOCK - 1 and BLOCK, the last
        # minute at horizon BLOCK; service b holds its level across BLOCK.
        pods_a = [3 if m < BLOCK - 1 else 5 if m == BLOCK - 1 else 4 for m in range(horizon)]
        pods_b = [2 if m < BLOCK - 2 else 6 for m in range(horizon)]
        logs = [make_log("x", pods_a, pods_b), make_log("y", pods_b, pods_a)]
        write_comparison(tmp_path, logs, baseline="y")
        for service in ("a", "b"):
            svg = (tmp_path / f"pods_{service}.svg").read_text(encoding="utf-8")
            assert svg == pods_chart_svg_oracle(logs, service)

    @pytest.mark.parametrize("hold", [0, 1])
    @pytest.mark.parametrize("steps", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_steps_across_the_block_edge(self, tmp_path, steps, hold):
        # Pods that change every minute, then hold their last level for hold
        # more minutes: two corners a step, the first minute and the held one.
        pods = [3 + m % 2 for m in range(steps + 1)] + [3 + steps % 2] * hold
        logs = [make_log("x", pods), make_log("y", pods[::-1])]
        write_comparison(tmp_path, logs, baseline="y")
        svg = (tmp_path / "pods_a.svg").read_text(encoding="utf-8")
        assert svg == pods_chart_svg_oracle(logs, "a")
        assert len(svg.split('points="')[1].split('"')[0].split()) == 2 * steps + 1 + hold
