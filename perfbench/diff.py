"""Compare two benchmark result files, one row per workload and metric.

    python3 perfbench/diff.py BEFORE.jsonl AFTER.jsonl

A result file holds the JSON lines that ``run.py --out`` appends (``sweep.py``
writes one). Each row shows the median and quartiles of both files and the
change of the median. For an end-to-end metric the verdict is ``worse`` when
the median moved the wrong way by more than the metric's bound, and
``unresolved`` when either file's spread, (Q3 - Q1) / median, exceeds the
bound, unless every run of one file beats every run of the other. Other
metrics have no bound and are listed as ``info``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def load(path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, over every record in a result file."""
    values: dict[tuple[str, str], list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
            if not record["trace"]:
                metrics.update(record["details"])
                metrics["reference_loop_s"] = statistics.median(record["reference_loop_s"])
            for name, value in metrics.items():
                values.setdefault((record["workload"], name), []).append(float(value))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(name: str, before: list[float], after: list[float]) -> str:
    spec = SPEC.get(name)
    if spec is None or "bound" not in spec:
        return "info"
    sign = 1.0 if spec["better"] == "lower" else -1.0
    # Signed so that a larger value is always worse.
    bad_before = [sign * v for v in before]
    bad_after = [sign * v for v in after]
    if max(bad_after) < min(bad_before):
        return "better"
    if (min(bad_after) <= max(bad_before)
            and max(spread(before), spread(after)) > spec["bound"]):
        return "unresolved"
    b, a = statistics.median(bad_before), statistics.median(bad_after)
    return "worse" if b and (a - b) / abs(b) > spec["bound"] else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    header = ("workload", "metric", "before q1/med/q3", "after q1/med/q3", "change",
              "verdict")
    print("  ".join(header))
    bad = 0
    for key in sorted(set(before) & set(after)):
        b, a = before[key], after[key]
        qb, qa = quartiles(b), quartiles(a)
        change = (qa[1] - qb[1]) / abs(qb[1]) * 100 if qb[1] else 0.0
        v = verdict(key[1], b, a)
        bad += v in ("worse", "unresolved")
        print(f"{key[0]:<24} {key[1]:<36} "
              f"{qb[0]:.6g}/{qb[1]:.6g}/{qb[2]:.6g} (n={len(b)})  "
              f"{qa[0]:.6g}/{qa[1]:.6g}/{qa[2]:.6g} (n={len(a)})  {change:+.2f}%  {v}")
    for key in sorted(set(before) ^ set(after)):
        print(f"{key[0]:<24} {key[1]:<36} only in {'before' if key in before else 'after'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
