"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --runs 10 --out results.jsonl
    python3 perfbench/sweep.py --runs 5 --workload replay-phpa-diurnal --out a.jsonl

Run i uses seed i (1, 2, ...) and the run length of BENCHMARK.json. Each run
is a separate ``run.py`` process, started the way BENCHMARK.json's command is. Runs are
interleaved: seed by seed, with the workload order rotated every seed, so
host drift falls on all workloads alike. The summary gives, per workload and
end-to-end metric, the median, the spread (Q3 - Q1) / median and the bound;
a spread above a third of the bound is flagged. Compare two sweep files with
``diff.py``.
"""
from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import diff

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in diff.BENCHMARK["workloads"]]

    for i in range(args.runs):
        seed = i + 1
        for name in names[i % len(names):] + names[:i % len(names)]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--trace", "0",
                   "--out", str(args.out)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                                  timeout=600)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"{name} seed {seed}: exit {proc.returncode} {last[0][:160]}", flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1

    values = diff.load(args.out)
    print(f"\n{'workload':<24} {'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}")
    for (workload, metric), vals in sorted(values.items()):
        spec = diff.SPEC.get(metric, {})
        if "bound" not in spec:
            continue
        s = diff.spread(vals)
        flag = "  above bound/3" if s > spec["bound"] / 3 else ""
        print(f"{workload:<24} {metric:<14} {diff.quartiles(vals)[1]:>12.6g} "
              f"{s:>8.4f} {spec['bound']:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
