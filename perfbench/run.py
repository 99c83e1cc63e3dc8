"""Run one ctrlstab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fold_sweep --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each in its own process.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of one traced job and writes
its spans to ``perfbench/out/``.  Each metric is printed by name with its
unit; the last line of standard output is the JSON result.  The exit code
is 1 when a correctness gate fails and 2 when the benchmark cannot run.
"""

import bench  # first: pins BLAS threads before numpy loads

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

OUT_DIR = bench.BENCH_DIR / "out"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": bench.BLAS_THREADS,
        "blas_threads_pinned": bench.BLAS_PINNED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def report(result: bench.RunResult, units: dict) -> dict:
    """Print every metric with its unit; return the JSON result."""
    for note in result.notes:
        print(note)
    width = max(map(len, result.metrics))
    for name, value in result.metrics.items():
        print(f"{name:<{width}} = {value!r} {units[name]}")
    t = result.tally
    print(f"failed_frac = {t.failed / max(t.attempted, 1)!r} "
          f"({t.failed} of {t.attempted} solves, rows and gates)")
    for message in t.messages:
        print(f"GATE FAILED: {message}")
    return {"correct": t.failed == 0, "attempted": t.attempted,
            "failed": t.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in result.metrics.items()}}


def run_all(args) -> int:
    """Each workload in a child process; the result merges their metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in bench.load_workloads():
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = bench.load_workloads()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads)} or all")
    wl = workloads[args.workload]
    try:
        cs = bench.load_ctrlstab()
    except (bench.BenchError, ImportError) as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2

    print(f"ctrlstab benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    ref = bench.load_reference()[wl.name]
    if args.trace:
        path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl"
        result = bench.measure_traced(cs, wl, args.seed, ref, path)
        units = {k: unit for k, (unit, _) in bench.LAYER_METRICS.items()}
    else:
        result = bench.measure(cs, wl, args.seed, args.seconds, ref)
        units = bench.END_TO_END
    payload = report(result, units)
    sys.stdout.flush()
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
