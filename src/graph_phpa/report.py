"""Cross-policy comparison: consistency checks, summary tables, pod charts.

Runs are only comparable when they replayed the same trace minutes with the
same propagation seed; anything else silently compares apples to oranges, so
mismatches raise instead of warn. All emitted files are byte-stable for a
given set of runs. A pods chart draws each policy's steps through their
corners only, the picture a point at every minute would draw.
"""
from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .cluster_sim import GRID_COLUMNS, SIM_COLUMNS, SimulationLog
from .errors import (RunMismatchError, ValidationError, check_keys, check_name, check_value,
                     read_json_file, write_json)
from .tensor import blocks

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


# sim.csv's columns as np.loadtxt parses them; names stay Python str objects.
_SIM_DTYPE = np.dtype(list(zip(SIM_COLUMNS, "i8 O f8 f8 i8 f8 i8 O i8".split())))


def _loadtxt(fh, max_rows: int | None = None) -> np.ndarray:
    """The next max_rows rows of an open sim.csv (all the rest when None), as
    _SIM_DTYPE records; np.loadtxt leaves fh just past the last one read."""
    with warnings.catch_warnings():
        # Blank lines are skipped, and reading past the end gives no rows.
        warnings.filterwarnings("ignore", "(Input line|loadtxt: input contained)",
                                UserWarning)
        return np.loadtxt(fh, dtype=_SIM_DTYPE, delimiter=",", quotechar='"',
                          comments=None, ndmin=1, max_rows=max_rows)


def _read_rows(fh, csv_path: Path, max_rows: int | None) -> np.ndarray:
    """_loadtxt, or a ValidationError with the line of the first row in the
    file that does not parse."""
    try:
        return _loadtxt(fh, max_rows)
    except ValueError as exc:
        error = exc
    # Only a failed load pays for this. numpy numbers rows from where its call
    # began, so the whole file is parsed again for its message; then the rows
    # are tried one by one for the line.
    fh.seek(0)
    next(csv.reader(fh))
    try:
        _loadtxt(fh)
    except ValueError as exc:
        error = exc
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    for row in filter(None, reader):  # np.loadtxt skips blank lines too
        try:
            np.array(tuple(row), dtype=_SIM_DTYPE)
        except ValueError:
            break
    raise ValidationError(f"{csv_path} line {reader.line_num}: {error}") from error


def load_run(run_dir: str | Path) -> SimulationLog:
    """Rebuild a simulation log from a run directory's summary.json and sim.csv.

    sim.csv must hold exactly the grid summary.json describes: minutes
    start_minute .. start_minute + horizon - 1 in order, each with the
    services in service_order, every row under the summary's policy. Rows are
    parsed a block of minutes at a time into the log's arrays. A row that
    does not parse is reported ahead of one out of place, wherever it sits.
    """
    run_dir = Path(run_dir)
    summary_path = run_dir / "summary.json"
    csv_path = run_dir / "sim.csv"
    if not summary_path.exists() or not csv_path.exists():
        raise ValidationError(f"{run_dir} is not a run directory "
                              f"(needs summary.json and sim.csv)")
    summary = read_json_file(summary_path, _summary_fields)
    services, policy = tuple(summary["service_order"]), summary["policy"]
    if not services:
        raise ValidationError(f"{summary_path} lists no services")
    start, horizon, width = summary["start_minute"], summary["horizon"], len(services)
    if horizon < 0:
        raise ValidationError(f"{summary_path} has a negative horizon {horizon}")
    if horizon == 0:
        raise ValidationError(f"{summary_path} has a zero horizon: its run has no minutes")
    external = np.empty(horizon)
    grid = {c: np.empty((horizon, width), dtype=_SIM_DTYPE[c]) for c in GRID_COLUMNS}
    names = np.array(services, dtype=object)
    bad = None  # (index of the first row out of place, that row or None at the end)
    # A byte that is not UTF-8 reads as a lone surrogate, which no number
    # parses as and no name in summary.json holds: its row is rejected by line.
    with open(csv_path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != SIM_COLUMNS:
            raise ValidationError(f"{csv_path} has header {header}, expected "
                                  f"{list(SIM_COLUMNS)}")
        for lo, hi in blocks(horizon):
            table = _read_rows(fh, csv_path, (hi - lo) * width)
            if bad is not None:
                continue  # the rest must still parse
            i = np.arange(lo * width, lo * width + len(table))
            fits = ((table["minute"] == start + i // width)
                    & (table["service"] == names[i % width]) & (table["policy"] == policy))
            if not fits.all():
                first = int(np.argmin(fits))
                bad = lo * width + first, table[first]
            elif len(table) < (hi - lo) * width:
                bad = lo * width + len(table), None
            else:
                external[lo:hi] = table["external_rps"][::width]
                for c in GRID_COLUMNS:
                    grid[c][lo:hi] = table[c].reshape(hi - lo, width)
        extra = _read_rows(fh, csv_path, None)  # rows past the grid, if any
    if bad is None and len(extra):
        bad = horizon * width, extra[0]
    if bad is not None:
        index, row = bad
        minutes, j = divmod(index, width)
        # Every row above the bad one is as expected: count its names' newlines.
        line = (2 + index + sum(s.count("\n") for s in services[:j] + (policy,) * j)
                + minutes * sum(s.count("\n") for s in services + (policy,) * width))
        want = _cell(start + minutes, services[j], policy) if minutes < horizon else "no row"
        got = ("the end of the file" if row is None
               else _cell(*row[["minute", "service", "policy"]].tolist()))
        raise ValidationError(f"{csv_path} line {line}: expected {want} by "
                              f"{summary_path.name}, got {got}")
    return SimulationLog(policy_name=policy, seed=summary["seed"],
                         trace_sha256=summary["trace_sha256"], start_minute=start,
                         services=services, external=external, **grid)


# The keys of summary.json that load_run reads, and their types.
_SUMMARY_FIELDS = {"policy": str, "seed": int, "trace_sha256": str, "start_minute": int,
                   "horizon": int, "service_order": tuple[str, ...]}


def _summary_fields(doc) -> dict:
    """doc, once it holds each of _SUMMARY_FIELDS with a value of its type;
    the keys load_run does not read may hold anything."""
    check_keys(doc, "summary", required=_SUMMARY_FIELDS, allowed=doc)
    for key, kind in _SUMMARY_FIELDS.items():
        check_value(doc[key], kind, key)
    for i, name in enumerate(doc["service_order"]):
        check_name(name, f"service_order[{i}]")
    return doc


def _cell(minute, service, policy) -> str:
    return f"minute {minute}, service {service!r}, policy {policy!r}"


def check_policy_names(names: list[str], baseline: str | None = None) -> None:
    """A RunMismatchError if two runs share a policy name, else a
    ValidationError if baseline is given and names none of them."""
    if len(set(names)) != len(names):
        raise RunMismatchError(f"duplicate policy names in comparison: {names}",
                               field="policy")
    if baseline is not None and baseline not in names:
        raise ValidationError(f"baseline policy {baseline!r} not among runs {sorted(names)}")


def check_runs_comparable(logs: list[SimulationLog]) -> None:
    """All runs must share trace, window, propagation seed, and service set."""
    if len(logs) < 2:
        raise ValidationError("need at least two runs to compare")
    check_policy_names([log.policy_name for log in logs])
    first = logs[0]
    for other in logs[1:]:
        for field_ in ("trace_sha256", "start_minute", "horizon", "seed", "services"):
            if getattr(other, field_) != getattr(first, field_):
                raise RunMismatchError(
                    f"runs {first.policy_name!r} and {other.policy_name!r} differ in "
                    f"{field_}: {getattr(first, field_)!r} vs {getattr(other, field_)!r}",
                    field=field_)


def comparison_table(logs: list[SimulationLog], baseline: str) -> dict:
    """Totals per policy plus pod-minute savings relative to the baseline run."""
    check_runs_comparable(logs)
    by_name = {log.policy_name: log for log in logs}
    check_policy_names(list(by_name), baseline)
    base_pm = by_name[baseline].pod_minutes()
    rows = []
    for log in logs:
        pm = log.pod_minutes()
        savings = None
        if log.policy_name != baseline and base_pm > 0:
            savings = (base_pm - pm) / base_pm * 100.0
        rows.append({
            "policy": log.policy_name,
            "pod_minutes": pm,
            "overload_minutes": log.overload_minutes(),
            "mean_utilization": log.mean_utilization(),
            "peak_total_pods": log.peak_total_pods(),
            "savings_vs_baseline_pct": savings,
        })
    return {
        "baseline": baseline,
        "trace_sha256": logs[0].trace_sha256,
        "start_minute": logs[0].start_minute,
        "horizon": logs[0].horizon,
        "seed": logs[0].seed,
        "policies": rows,
    }


def render_table_text(table: dict) -> str:
    """Fixed-width text rendering of a comparison table."""
    header = ("policy", "pod_minutes", "overload_minutes", "mean_util", "peak_pods",
              "savings_%")
    lines = []
    body = []
    for row in table["policies"]:
        savings = row["savings_vs_baseline_pct"]
        body.append((row["policy"], str(row["pod_minutes"]), str(row["overload_minutes"]),
                     f"{row['mean_utilization']:.3f}", str(row["peak_total_pods"]),
                     "baseline" if savings is None else f"{savings:.2f}"))
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(header))))
    lines.append("")
    lines.append(f"horizon: {table['horizon']} minutes from minute {table['start_minute']}, "
                 f"seed {table['seed']}")
    return "\n".join(lines) + "\n"


def _escape(name: str) -> str:
    """name as SVG text (xml.sax.saxutils.escape, whose import loads urllib)."""
    return name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# The pods charts' size and plot margins, in pixels.
_WIDTH, _HEIGHT = 960, 320
_LEFT, _RIGHT, _TOP, _BOTTOM = 60, 20, 36, 44


def _write_pods_chart(fh, logs: list[SimulationLog], service: str) -> None:
    """Write to fh an SVG step chart of the service's pod counts over time,
    one polyline per policy through its corners, a block of steps at a time.
    Names are XML-escaped."""
    if any(service not in log.services for log in logs):
        raise ValidationError(f"unknown service {service!r}")
    width, height, left, right, top, bottom = _WIDTH, _HEIGHT, _LEFT, _RIGHT, _TOP, _BOTTOM
    plot_w, plot_h = width - left - right, height - top - bottom
    m_lo = min(log.start_minute for log in logs)
    m_span = max(max(log.start_minute + log.horizon - 1 for log in logs) - m_lo, 1)
    columns = [log.pods[:, log.services.index(service)] for log in logs]
    levels = set().union(*(set(pods.tolist()) for pods in columns))
    p_hi = max(levels) + 1

    def sx(m):
        return left + (m - m_lo) / m_span * plot_w

    def sy(p):
        return top + (1.0 - p / p_hi) * plot_h

    y_text = {p: f"{sy(p):.2f}" for p in levels}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="20" font-family="sans-serif" font-size="14">'
        f'pods over time: {_escape(service)}</text>',
    ]
    for tick in range(0, p_hi + 1, max(1, p_hi // 6)):
        y = sy(tick)
        parts.append(f'<line x1="{left}" y1="{y:.2f}" x2="{width - right}" y2="{y:.2f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.2f}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="end">{tick}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        m = m_lo + frac * m_span
        parts.append(f'<text x="{sx(m):.2f}" y="{height - bottom + 18}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle">{int(round(m))}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.2f}" y="{height - 8}" '
                 f'font-family="sans-serif" font-size="12" text-anchor="middle">minute</text>')
    fh.write("\n".join(parts))

    for i, (log, pods) in enumerate(zip(logs, columns)):
        color = _PALETTE[i % len(_PALETTE)]
        fh.write(f'\n<polyline fill="none" stroke="{color}" stroke-width="1.5" points="')
        # Corners only: the first minute, the old level and then the new one
        # at each minute whose pods differ from the minute before, and the last.
        first, last = pods[[0, -1]].tolist()
        fh.write(f"{sx(log.start_minute):.2f},{y_text[first]}")
        steps = np.flatnonzero(pods[1:] != pods[:-1]) + 1
        for lo, hi in blocks(len(steps)):
            at = steps[lo:hi]
            # numpy's k / span * plot_w + left is sx's, operation for operation.
            xs = map("%.2f".__mod__, ((at + (log.start_minute - m_lo)) / m_span * plot_w
                                      + left).tolist())
            fh.write("".join(f" {x},{y_text[p]} {x},{y_text[q]}"
                             for x, p, q in zip(xs, pods[at - 1].tolist(), pods[at].tolist())))
        if log.horizon > 1 and pods[-1] == pods[-2]:  # else the last step drew it
            fh.write(f" {sx(log.start_minute + log.horizon - 1):.2f},{y_text[last]}")
        lx = left + 10 + i * 180
        fh.write(f'"/>\n<line x1="{lx}" y1="{top - 6}" x2="{lx + 22}" y2="{top - 6}" '
                 f'stroke="{color}" stroke-width="3"/>\n'
                 f'<text x="{lx + 28}" y="{top - 2}" font-family="sans-serif" '
                 f'font-size="12">{_escape(log.policy_name)}</text>')
    fh.write("\n</svg>\n")


def write_comparison(out_dir: str | Path, logs: list[SimulationLog], baseline: str) -> dict:
    """Emit table.json, table.txt, and one pods chart per service; returns the table."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = comparison_table(logs, baseline)
    write_json(out_dir / "table.json", table, indent=2)
    (out_dir / "table.txt").write_text(render_table_text(table),
                                       encoding="utf-8", newline="\n")
    for service in logs[0].services:
        with open(out_dir / f"pods_{service}.svg", "w", encoding="utf-8", newline="\n") as fh:
            _write_pods_chart(fh, logs, service)
    return table
