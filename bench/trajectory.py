#!/usr/bin/env python3
"""Record one point of the BENCH trajectory.

    python3 bench/trajectory.py --label NAME

Runs every workload of BENCHMARK.json once per seed 1..SEEDS with tracing
off and once per seed 1..TRACED_SEEDS with tracing on, and writes
bench/BENCH_<NAME>.json: each metric's values, median and quartiles, the
run-to-run spread (quartile distance over median), and the failure counts.
A change that claims a gain compares its point with its parent's.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = 10
TRACED_SEEDS = 3


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n"
                 f"{proc.stderr}")
    print(f"{workload} seed {seed} trace {trace}: done", file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values: list) -> dict:
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import numpy
    import scipy
    point = {"label": args.label,
             "environment": {"python": platform.python_version(),
                             "numpy": numpy.__version__,
                             "scipy": scipy.__version__,
                             "machine": platform.machine(),
                             "cpus": os.cpu_count()},
             "run_seconds": spec["run_seconds"], "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        entry = {"attempted": 0, "failed": 0}
        for trace, n, key in ((0, SEEDS, "end_to_end"),
                              (1, TRACED_SEEDS, "per_layer")):
            results = [run(spec, wl, seed, trace) for seed in range(1, n + 1)]
            entry["attempted"] += sum(r["attempted"] for r in results)
            entry["failed"] += sum(r["failed"] for r in results)
            entry[key] = {m["name"]: {"unit": m["unit"], **describe(
                [r["metrics"][m["name"]]["value"] for r in results])}
                for m in spec[key]}
        point["workloads"][wl] = entry
    out = BENCH / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
