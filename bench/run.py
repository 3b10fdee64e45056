#!/usr/bin/env python3
"""psr-sim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see bench/README.md) as a closed loop with one client:
each operation starts after the previous one ends.  Passes of seeded
operations repeat until S seconds have passed, and at least 11 operations
ran so that the latency tail is defined (see ``tail``).  Every
output is checked outside the timed region; an operation that raises, exits
non-zero or fails a check counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics: untraced and traced passes then
alternate over the same inputs, and the spans of the traced passes are
written to bench/out/ when the run ends.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

``--record-reference`` stores the default seed's checked values in
bench/reference.json; every later run compares against them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# enough operations for the tail percentile (10 samples beyond it) to exist
MIN_OPS = 11
WORKLOADS = ("cli-presets", "noise-grid", "noise-deplete", "fit-traces")

# per-layer metrics: span name -> reported fields
LAYER_FIELDS = {
    "cli.load_config": ("self_ms",),
    "cli.command": ("self_ms",),
    "cli.write": ("calls", "self_ms", "bytes"),
    "fluct.propagate_noise": ("calls", "self_ms", "us_per_point"),
    "fluct.noise_inflow": ("calls", "self_ms"),
    "fluct.expm": ("calls", "self_ms"),
    "fluct.diffusion": ("calls", "self_ms"),
    "fluct.solve_ivp": ("calls", "nfev", "self_ms"),
    "bloch.steady_state": ("calls", "self_ms"),
    "bloch.propagate_mean_field": ("calls", "self_ms"),
    "ensemble.composite_kappa": ("calls", "self_ms"),
    "ensemble.composite_spectrum": ("calls", "self_ms"),
    "ensemble.fit": ("calls", "nfev", "self_ms"),
    "matsko.variance": ("calls", "self_ms"),
}
IMPORT_PACKAGES = {"numpy": "numpy", "scipy_linalg": "scipy.linalg",
                   "scipy_optimize": "scipy.optimize",
                   "scipy_integrate": "scipy.integrate",
                   "scipy_special": "scipy.special"}


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def python_child(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120,
                          check=True)


def measure_setup(modules) -> list[float]:
    """Seconds to import the workload's modules in a fresh interpreter."""
    code = ("import time; t0 = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in modules)
            + "; print(repr(time.perf_counter() - t0))")
    return [float(python_child(code).stdout.split()[-1])
            for _ in range(SETUP_REPEATS)]


def measure_imports(modules) -> dict[str, float]:
    """``-X importtime`` breakdown of the workload's first import."""
    code = ("import sys; n0 = len(sys.modules); "
            "print('BENCH-MARK', file=sys.stderr, flush=True); "
            + "; ".join(f"import {m}" for m in modules)
            + "; print(len(sys.modules) - n0)")
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = python_child(code, "-X", "importtime")
        cumulative: dict[str, int] = {}
        total = 0
        lines = proc.stderr.split("BENCH-MARK", 1)[1].splitlines()
        for line in lines:
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                cumulative.setdefault(m.group(3), int(m.group(1)))
                if len(m.group(2)) == 1:      # imported by the statement
                    total += int(m.group(1))
        run = {"cli.import_ms": total / 1000.0,
               "cli.modules_loaded": int(proc.stdout.split()[-1])}
        for key, pkg in IMPORT_PACKAGES.items():
            run[f"cli.import.{key}_ms"] = cumulative.get(pkg, 0) / 1000.0
        runs.append(run)
    out = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    out["cli.modules_loaded"] = runs[0]["cli.modules_loaded"]
    return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With 10 samples or fewer
    no percentile qualifies and the maximum is returned.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 10
    if k < 1:
        return ordered[-1], 100.0, 0
    return ordered[k - 1], 100.0 * k / n, n - k


def make_workload(name: str, seed: int, workdir: Path):
    import workloads
    if name == "cli-presets":
        return workloads.CliPresets(seed, workdir, SRC, BENCH)
    return {"noise-grid": workloads.NoiseGrid,
            "noise-deplete": workloads.NoiseDeplete,
            "fit-traces": workloads.FitTraces}[name](seed)


def compare_reference(name: str, got: dict, problems: list) -> None:
    try:
        stored = json.loads(REFERENCE.read_text())[name]
    except (OSError, KeyError, ValueError):
        problems.append(f"no reference values for {name} in {REFERENCE.name}")
        return
    for key, (values, rtol, atol) in got.items():
        ref = stored.get(key)
        if ref is None or len(ref) != len(values):
            problems.append(f"reference {key}: missing or wrong length")
            continue
        worst = max((abs(a - b) - atol - rtol * abs(b)
                     for a, b in zip(values, ref)), default=0.0)
        if not worst <= 0.0:
            problems.append(f"reference {key}: deviates beyond tolerance")


def run_workload(args, workdir: Path) -> dict:
    import numpy as np
    from tracer import Tracer
    from workloads import Outcome

    wl = make_workload(args.workload, args.seed, workdir)
    setup = [] if args.trace else measure_setup(wl.setup_modules)
    imports = measure_imports(wl.setup_modules) if args.trace else {}

    tracer = Tracer()
    if args.trace and wl.in_process:
        for module in wl.setup_modules:
            importlib.import_module(module)
        tracer.install()
        # one untimed warm-up call, so that first-call costs do not skew
        # the traced/untraced comparison of the first pass pair
        wl.run(wl.make_pass(np.random.default_rng(args.seed), 0)[0])
    rng = np.random.default_rng(args.seed)
    out = Outcome()
    # (traced, [latency s], [(kind, points, fits)]); the inputs are not
    # kept, so that peak_rss_mb does not grow with the operation count
    passes = []
    op_pass: dict[int, int] = {}
    attempted = failed = 0
    op_id = 0
    start = time.perf_counter()
    k = 0
    while (k == 0 or time.perf_counter() - start < args.seconds
           or (not args.trace and len(op_pass) < MIN_OPS)):
        ops = wl.make_pass(rng, k)
        for traced in ((False, True) if args.trace else (False,)):
            lat = []
            for op in ops:
                op_id += 1
                op_pass[op_id] = len(passes)
                tracer.op = op_id
                tracer.enabled = traced and wl.in_process
                t0 = time.perf_counter()
                try:
                    res = wl.run(op, (traced, op_id))
                    error = None
                except Exception as exc:  # a failed operation is counted
                    res, error = None, f"{op.kind}: {exc!r}"
                lat.append(time.perf_counter() - t0)
                tracer.enabled = False
                before = len(out.problems)
                if error:
                    out.problems.append(error)
                else:
                    try:
                        wl.check(op, res, out, k == 0 and not traced)
                    except Exception as exc:  # a check that cannot run fails
                        out.problems.append(f"{op.kind}: check: {exc!r}")
                attempted += 1
                failed += len(out.problems) > before
            passes.append((traced, lat, [(op.kind, op.points, op.fits)
                                         for op in ops]))
        k += 1

    # the reference comparison counts as one more operation
    before = len(out.problems)
    try:
        wl.reference(out)
    except Exception as exc:  # counted as a failed reference operation
        out.problems.append(f"reference: {exc!r}")
    if args.record_reference:
        stored = (json.loads(REFERENCE.read_text()) if REFERENCE.exists()
                  else {})
        stored[wl.name] = {key: v[0] for key, v in sorted(out.ref.items())}
        REFERENCE.write_text(json.dumps(stored, indent=1) + "\n")
    compare_reference(wl.name, out.ref, out.problems)
    attempted += 1
    failed += len(out.problems) > before

    for problem in out.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    plain = [p for p in passes if not p[0]]
    pass_s = [sum(lat) for _, lat, _ in plain]
    lat_all = [x for _, lat, _ in plain for x in lat]
    summary = {
        "passes": len(plain), "ops": len(lat_all),
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "wall_s": statistics.median(pass_s),
        "op_p50_ms": 1000.0 * statistics.median(lat_all),
    }
    value, pct, beyond = tail(lat_all)
    summary.update(op_tail_ms=1000.0 * value, op_tail_pct=pct,
                   op_tail_beyond=beyond)
    points = [sum(n for _, n, _ in ops) / sum(lat) for _, lat, ops in plain]
    fits = [sum(n for _, _, n in ops) / sum(lat) for _, lat, ops in plain]
    summary["points_per_s"] = statistics.median(points)
    summary["fits_per_s"] = statistics.median(fits)
    usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process
                               else resource.RUSAGE_CHILDREN)
    summary["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if setup:
        summary["setup_s"] = statistics.median(setup)

    if not args.trace:
        return summary

    layers = dict(imports)
    layers.update(layer_metrics(wl, tracer, passes, op_pass))
    traced_s = [sum(lat) for traced, lat, _ in passes if traced]
    layers["trace.overhead_frac"] = (statistics.median(traced_s)
                                     / summary["wall_s"] - 1.0)
    summary["layers"] = layers
    return summary


def layer_metrics(wl, tracer, passes, op_pass) -> dict[str, float]:
    """Per-layer metrics from the traced passes; spans go to bench/out/."""
    from tracer import summarize

    chunks = [tracer.spans] if wl.in_process else [
        json.loads(path.read_text()) for path in wl.span_files]
    OUT.mkdir(exist_ok=True)
    with (OUT / f"spans-{wl.name}-seed{wl.seed}.json").open("w") as fh:
        json.dump([s for spans in chunks for s in spans], fh)
    per_pass: dict[int, dict] = {}
    for spans in chunks:
        for p, names in summarize(spans, op_pass.get).items():
            target = per_pass.setdefault(p, {})
            for name, agg in names.items():
                t = target.setdefault(name, dict.fromkeys(agg, 0))
                for key, v in agg.items():
                    t[key] += v
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "extra": 0}
    layers = {}
    for name, fields in LAYER_FIELDS.items():
        # counts from the first traced pass (exact for a fixed seed),
        # times as medians over the traced passes
        rows = [per_pass.get(i, {}).get(name, empty)
                for i, (traced, _, _) in enumerate(passes) if traced]
        for field in fields:
            if field == "calls":
                val = rows[0]["calls"]
            elif field in ("nfev", "bytes"):
                val = rows[0]["extra"]
            elif field == "self_ms":
                val = statistics.median(1000.0 * r["self_s"] for r in rows)
            else:  # us_per_point: inclusive time per (Delta, omega) point
                val = statistics.median(
                    1e6 * r["incl_s"] / r["extra"] if r["extra"] else 0.0
                    for r in rows)
            layers[f"{name}.{field}"] = val
    ratio = 0.0
    if not wl.in_process:
        by_kind: dict[str, list[float]] = {}
        for traced, lat, ops in passes:
            if not traced:
                for (kind, _, _), x in zip(ops, lat):
                    by_kind.setdefault(kind, []).append(x)
        ratio = (statistics.median(by_kind["noise-d2-json-jobs2"])
                 / statistics.median(by_kind["noise-d2-json-jobs1"]))
    layers["cli.jobs2_wall_ratio"] = ratio
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    # on SIGTERM, unwind so that child processes and the work directory
    # are cleaned up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "psrsim" / "__init__.py").is_file():
        return fail(f"psrsim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import psrsim
    if Path(psrsim.__file__).resolve().parent != SRC / "psrsim":
        return fail(f"imported psrsim from {psrsim.__file__}, not {SRC}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        summary = run_workload(args, workdir)
    except subprocess.SubprocessError as exc:
        return fail(f"set-up failed: {exc!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = summary.pop("layers", summary)
    print(f"workload {args.workload}, seed {args.seed}: {summary['ops']} "
          f"operations in {summary['passes']} untraced passes, "
          f"{summary['failed']} of {summary['attempted']} failed")
    print(f"  op_tail_ms is p{summary['op_tail_pct']:.4g} of "
          f"{summary['ops']} samples ({summary['op_tail_beyond']} beyond)")
    for key, unit in (("fits_per_s", "1/s"), ("fail_frac", "1")):
        print(f"  {key} = {summary[key]:.6g} {unit}")
    metrics = {}
    for m in metric_specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
