"""graph-phpa benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload train-diurnal --seed 42 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it carries the per-layer ones
from a traced run. ``--out FILE`` appends the full record (machine, samples,
workload details) as one JSON line, which ``diff.py`` and ``sweep.py`` read.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

MIN_SETUPS, SETUP_BUDGET_S, MAX_SETUPS = 3, 1.0, 25


class ProgramMissing(Exception):
    pass


def load_program(root: Path):
    """Import graph_phpa from this checkout's src/, never from elsewhere."""
    src = root / "src"
    if not (src / "graph_phpa" / "__init__.py").is_file():
        raise ProgramMissing(f"no graph_phpa package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("graph_phpa")
    if src.resolve() not in Path(package.__file__).resolve().parents:
        raise ProgramMissing(f"graph_phpa imported from {package.__file__}, not {src}")
    for module in ("cli", "config", "cluster_sim"):
        importlib.import_module(f"graph_phpa.{module}")
    return package


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": threads, "seed": seed}


def reference_loop(n: int = 50_000) -> float:
    """Wall time of a fixed matmul loop; shows host drift next to the numbers."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((1, 50)), rng.standard_normal((50, 50))
    start = perf_counter()
    for _ in range(n):
        a @ b
    return perf_counter() - start


def decide_timer(run: workloads.Run):
    """Single timer around PredictivePolicy.decide; samples kept while collecting."""
    def make(decide):
        def timed(*args, **kwargs):
            start = perf_counter()
            result = decide(*args, **kwargs)
            if run.collect_decisions:
                run.decision_ms.append((perf_counter() - start) * 1e3)
            return result
        return timed
    return make


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def execute(args, program, scenario, work: Path, rec: tracing.Recorder) -> dict:
    """Set up, run steps for ``args.seconds``, and return the run's record."""
    run = workloads.Run(program, scenario, args.seed, rec)
    workload = workloads.WORKLOADS[args.workload]()
    timer = tracing.Patches("graph_phpa")
    timer.replace("cluster_sim:PredictivePolicy.decide", decide_timer(run))
    traced = tracing.Patches("graph_phpa")

    def trace_on(phase):
        nonlocal traced
        traced = layers.install_all(rec)
        rec.current_phase, rec.enabled = phase, True

    def trace_off():
        rec.enabled = False
        traced.restore()

    setups, state = [], None
    while (len(setups) < (1 if args.trace else MIN_SETUPS)
           or not args.trace and sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS):
        d = work / f"setup{len(setups)}"
        if args.trace:
            trace_on(layers.SETUP)
        start = perf_counter()
        state = workload.setup(run, d)
        setups.append(perf_counter() - start)
        trace_off()
        run.run_checks()
        if len(setups) > 1:
            shutil.rmtree(work / f"setup{len(setups) - 2}", ignore_errors=True)

    plain, with_trace, minutes = [], [], 0
    clock = perf_counter()
    while (not plain or (args.trace and not with_trace)
           or perf_counter() - clock < args.seconds):
        d = work / f"step{len(plain) + len(with_trace)}"
        is_traced = bool(args.trace) and len(with_trace) < len(plain)
        run.collect_decisions, run.sim_minutes = not is_traced, 0
        if is_traced:
            trace_on(layers.STEP)
        start = perf_counter()
        workload.step(run, state, d)
        (with_trace if is_traced else plain).append(perf_counter() - start)
        trace_off()
        run.run_checks()
        minutes = run.sim_minutes
        shutil.rmtree(d, ignore_errors=True)
    timer.restore()

    step_s = statistics.median(plain)
    details = dict(run.details)
    details.update({
        "train_s": step_s if args.workload == "train-diurnal" else 0.0,
        "sim_minutes_per_s": minutes / step_s,
        "decision_ms_p50": percentile(run.decision_ms, 50),
        "decision_ms_p99": percentile(run.decision_ms, 99),
        "decision_samples": len(run.decision_ms),
        "failed_frac": len(run.failures) / max(len(run.ops), 1),
    })
    return {"run": run, "setups": setups, "steps": plain, "traced_steps": with_trace,
            "details": details, "missing": timer.missing + traced.missing}


def main(argv=None, scenario=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full run record to this JSON-lines file")
    args = parser.parse_args(argv)

    try:
        program = load_program(ROOT)
        scenario = scenario or workloads.full_scenario(ROOT)
    except (ProgramMissing, ImportError, OSError) as exc:
        print(f"error: cannot load the program or its inputs: {exc}", file=sys.stderr)
        return 2

    machine = machine_record(args.seed)
    ref_before = reference_loop()
    rec = tracing.Recorder()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        outcome = execute(args, program, scenario, Path(tmp), rec)
    ref_after = reference_loop()
    run = outcome["run"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = layers.layer_metrics(rec, len(outcome["traced_steps"]))
        metrics.update({k: outcome["details"][k] for k in UNITS if k in outcome["details"]})
        overhead = (statistics.median(outcome["traced_steps"])
                    - statistics.median(outcome["steps"]))
        metrics["bench.trace_overhead_s"] = overhead
        metrics["bench.trace_overhead_frac"] = overhead / statistics.median(outcome["steps"])
        rec.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        names = [m["name"] for m in BENCHMARK["per_layer"]]
    else:
        metrics = {"setup_s": statistics.median(outcome["setups"]),
                   "step_s": statistics.median(outcome["steps"]),
                   "peak_rss_mb": rss_mb}
        names = [m["name"] for m in BENCHMARK["end_to_end"]]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"reference loop  {ref_before:.4f} s before  {ref_after:.4f} s after")
    print(f"set-ups {len(outcome['setups'])}  steps {len(outcome['steps'])} untraced, "
          f"{len(outcome['traced_steps'])} traced")
    for name in names:
        print(f"{name:<36} {metrics[name]:>14.6g} {UNITS[name]}")
    if not args.trace:
        print("workload details (not gated; see perfbench/README.md):")
        for name, value in outcome["details"].items():
            print(f"  {name:<34} {value:>14.6g}")
    for target in outcome["missing"]:
        print(f"skipped hook (name not found): {target}")
    for name in sorted(rec.broken_hooks):
        print(f"skipped counts of {name} (its arguments changed)")
    for note in run.notes:
        print(f"note: {note}")
    for failure in run.failures.values():
        print(f"failed: {failure}")

    result = {"correct": not run.failures and bool(run.ops),
              "attempted": len(run.ops), "failed": len(run.failures),
              "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names}}
    if args.out is not None:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "machine": machine,
                  "reference_loop_s": [ref_before, ref_after],
                  "setup_samples_s": outcome["setups"], "step_samples_s": outcome["steps"],
                  "traced_step_samples_s": outcome["traced_steps"],
                  "details": outcome["details"], "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
