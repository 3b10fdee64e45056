"""The four benchmark workloads: inputs from a seed, one timed call per
operation, and the output checks (run outside the timed region).

Every parameter draw stays inside the regime of a shipped preset:
hot vapour (hot-vapour-d2 / hot-vapour-d1 physics, |Delta| <= 3), the cold
dispersive ensemble (cold-atom-kerr physics, 300 <= |Delta| <= 500) and the
D1/D2 hyperfine manifolds of d1-sweep / d2-sweep.
"""

from __future__ import annotations

import csv
import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

DEFAULT_SEED = 1
GHZ = 1e9 * 2.0 * math.pi        # GHz -> rad/s

# Tolerances of the output checks.  The measured margins at the seed
# commit are far inside them: S_min*S_max >= 1.004, commutator residual
# <= 3.4e-14, Delta -> -Delta asymmetry of the dB extrema <= 1e-14 dB.
UNCERTAINTY_TOL = 1e-6
RESIDUAL_TOL = 1e-9
SYMMETRY_DB_TOL = 1e-8
FIT_REL_TOL = 0.05

# hot-vapour-d2, hot-vapour-d1 and cold-atom-kerr physics
HOT_D2 = {"cooperativity": 15.0, "gamma_raw": 1.9058e7, "intensity": 1000.0,
          "temperature": 345.0}
HOT_D1 = {"cooperativity": 10.0, "gamma_raw": 1.8062e7, "intensity": 800.0,
          "temperature": 345.0}
COLD = {"cooperativity": 1600.0, "gamma_raw": 1.0, "intensity": 8.0e4,
        "temperature": 300.0}
PRESET_OMEGAS = (0.16667, 0.33333, 0.66667, 1.0)
# detunings of the sweep presets' axis, and of the dense traces and maps
# of fit-traces: a fit on the 151-point axis takes about 12 ms, so short
# that scheduler noise on a shared machine, not the fit, sets its tail
PRESET_DETUNINGS = 151
DENSE_DETUNINGS = 3001



class MapSpec(NamedTuple):
    """Physics and axes of the d1-sweep / d2-sweep presets."""

    cooperativity: float
    gamma_raw: float
    lines_ghz: tuple            # (centre GHz, strength) per hyperfine line
    doppler_ghz: float
    mw_scale: float             # mW -> I_x (gamma^2)
    detunings_ghz: tuple        # (start, stop) of the detuning axis
    mw_range: tuple             # intensities are drawn in this range
    n_mw: int


D1_MAP = MapSpec(2000.0, 1.8062e7, ((0.0, 0.25), (0.8145, 0.75)), 0.3232,
                 400.0, (-0.8, 1.6), (1.0, 35.0), 7)
D2_MAP = MapSpec(6000.0, 1.9058e7,
                 ((0.0, 0.70), (-0.2669, 0.25), (-0.4237, 0.05)), 0.3293,
                 160.0, (-1.5, 1.5), (1.0, 45.0), 8)
FIT_MW = 22.3
FIT_INITIAL = {"intensity_scale": 300.0}


@dataclass
class Op:
    """One benchmark operation: kind label, inputs and output size."""

    kind: str
    inputs: dict
    points: int = 0      # spectrum points the operation produces
    fits: int = 0


@dataclass
class Outcome:
    """Checks and reference values gathered outside the timed region."""

    problems: list = field(default_factory=list)
    ref: dict = field(default_factory=dict)   # key -> (values, rtol, atol)


def _ensemble(phys: dict):
    from psrsim.core import EnsembleParams
    return EnsembleParams.from_cooperativity(
        phys["cooperativity"], gamma_raw=phys["gamma_raw"], cell_length=0.075,
        density=1.0e17, temperature=phys["temperature"])


def _drive(phys: dict, detuning: float):
    from psrsim.core import DriveParams
    return DriveParams(intensity=phys["intensity"], detuning=detuning)


def _sample(values, n: int = 20) -> list[float]:
    arr = np.asarray(values, dtype=float).ravel()
    step = max(1, arr.size // n)
    return [float(v) for v in arr[::step]]


# ---------------------------------------------------------------------------
# noise spectra (noise-grid, noise-deplete)
# ---------------------------------------------------------------------------

def check_spectrum(spec, hot: bool, label: str) -> list[str]:
    """Invariants every noise spectrum must satisfy."""
    problems = []
    arrays = (spec.values, spec.s_min, spec.s_max)
    if not all(np.isfinite(a).all() for a in arrays):
        return [f"{label}: non-finite spectrum values"]
    prod = float((spec.s_min * spec.s_max).min())
    if prod < 1.0 - UNCERTAINTY_TOL:
        problems.append(f"{label}: S_min*S_max = {prod:.6g} < 1")
    spread = 1e-9 * float(spec.s_max.max())
    if ((spec.values < spec.s_min[:, None] - spread).any()
            or (spec.values > spec.s_max[:, None] + spread).any()):
        problems.append(f"{label}: S_theta outside [S_min, S_max]")
    lo = spec.min_db()
    if hot and not (lo > 0).all():
        problems.append(f"{label}: hot-vapour s_min_db <= 0 "
                        f"(min {lo.min():.6g} dB)")
    if not hot and not (lo < 0).any():
        problems.append(f"{label}: cold ensemble shows no squeezing")
    return problems


class NoiseWorkload:
    """propagate_noise calls, one per operation."""

    in_process = True
    setup_modules = ("psrsim.fluct", "psrsim.bloch")
    deplete = False

    def __init__(self, seed: int):
        self.seed = seed

    def run(self, op: Op, _ctx=None):
        from psrsim import fluct
        i = op.inputs
        return fluct.propagate_noise(
            _ensemble(i["phys"]), _drive(i["phys"], i["detuning"]),
            i["omegas"], i["thetas"], deplete=self.deplete)

    def check(self, op: Op, spec, out: Outcome, _first_pass: bool) -> None:
        from psrsim import fluct
        i = op.inputs
        label = f"{op.kind} Delta={i['detuning']:.6g}"
        out.problems += check_spectrum(spec, i["hot"], label)
        ens, drive = _ensemble(i["phys"]), _drive(i["phys"], i["detuning"])
        for w in i["residual_omegas"]:
            res = fluct.commutator_residual(ens, drive, float(w))
            if not res < RESIDUAL_TOL:
                out.problems.append(f"{label}: commutator residual {res:.3g} "
                                    f"at omega={w:.6g}")

    def reference(self, out: Outcome) -> None:
        """Recompute the default seed's first operations and their mirror
        images Delta -> -Delta; keep the values, check the symmetry."""
        for op in self.probes(np.random.default_rng(DEFAULT_SEED)):
            spec = self.run(op)
            mirror = self.run(Op(op.kind, dict(op.inputs, detuning=-op.inputs[
                "detuning"])))
            for which, sp in (("", spec), ("mirror ", mirror)):
                out.problems += check_spectrum(sp, op.inputs["hot"],
                                               f"reference {which}{op.kind}")
            for name in ("min_db", "max_db"):
                values = getattr(spec, name)()
                dev = np.abs(values - getattr(mirror, name)()).max()
                if not dev <= self.symmetry_tol:
                    out.problems.append(
                        f"{op.kind}: {name} not symmetric under "
                        f"Delta -> -Delta ({dev:.3g} dB)")
                out.ref[f"{op.kind}.s_{name}"] = (_sample(values), 0.0,
                                                  self.db_atol)


class NoiseGrid(NoiseWorkload):
    """Undepleted grids of 400 omegas x 121 thetas, hot and cold in turn."""

    name = "noise-grid"
    symmetry_tol = SYMMETRY_DB_TOL
    db_atol = 1e-6
    thetas = np.linspace(0.0, math.pi, 121, endpoint=False)
    hot_omegas = np.geomspace(0.1, 3.0, 400)
    cold_omegas = np.geomspace(1.0, 300.0, 400)

    def probes(self, rng) -> list[Op]:
        return self.make_pass(rng, 0)[:2]

    def make_pass(self, rng, _k: int) -> list[Op]:
        ops = []
        for _ in range(2):
            ops.append(Op("hot", {
                "phys": HOT_D2, "hot": True, "detuning": rng.uniform(-3, 3),
                "omegas": self.hot_omegas, "thetas": self.thetas,
                "residual_omegas": rng.choice(self.hot_omegas, 2)}, 400))
            ops.append(Op("cold", {
                "phys": COLD, "hot": False,
                "detuning": rng.choice((-1.0, 1.0)) * rng.uniform(300, 500),
                "omegas": self.cold_omegas, "thetas": self.thetas,
                "residual_omegas": rng.choice(self.cold_omegas, 2)}, 400))
        return ops


class NoiseDeplete(NoiseWorkload):
    """--deplete spectra on the hot-vapour-d2 and hot-vapour-d1 physics."""

    name = "noise-deplete"
    deplete = True
    # the mean field is integrated with rtol 1e-8; allow for a different
    # (but equally accurate) integration scheme
    symmetry_tol = 1e-6
    db_atol = 1e-4
    thetas = np.linspace(0.0, math.pi, 61, endpoint=False)

    def probes(self, rng) -> list[Op]:
        # the first detuning on the whole preset omega grid
        op = self.make_pass(rng, 0)[0]
        return [Op(op.kind, dict(op.inputs, omegas=PRESET_OMEGAS))]

    def make_pass(self, rng, _k: int) -> list[Op]:
        # one operation per (Delta, omega) point: a whole detuning takes
        # about 1.7 s, too long for a latency tail within one run
        ops = []
        for kind, phys in (("d2", HOT_D2), ("d1", HOT_D1)):
            detuning = rng.uniform(-3, 3)
            ops += [Op(kind, {"phys": phys, "hot": True,
                              "detuning": detuning, "omegas": (w,),
                              "thetas": self.thetas,
                              "residual_omegas": (w,)}, 1)
                    for w in PRESET_OMEGAS]
        return ops


# ---------------------------------------------------------------------------
# fits and composite maps (fit-traces)
# ---------------------------------------------------------------------------

def _manifold(spec: MapSpec):
    from psrsim import ensemble
    conv = GHZ / spec.gamma_raw
    return ensemble.LineManifold(
        lines=tuple((c * conv, s) for c, s in spec.lines_ghz),
        doppler_width=spec.doppler_ghz * conv)


def _map_ensemble(spec: MapSpec):
    return _ensemble({"cooperativity": spec.cooperativity,
                      "gamma_raw": spec.gamma_raw, "temperature": 345.0})


def _map_detunings(spec: MapSpec, n: int) -> np.ndarray:
    return np.linspace(*spec.detunings_ghz, n)


def draw_fit_truth(rng) -> np.ndarray:
    """density scale, offset (GHz), mW -> I_x scale, strength ratio."""
    return np.array([rng.uniform(0.85, 1.2), rng.uniform(-0.04, 0.04),
                     rng.uniform(250.0, 450.0), rng.uniform(2.2, 3.6)])


def synthetic_traces(rng, truth: np.ndarray, n: int):
    """D1 transmission/rotation traces of ``truth`` with 1% noise, at
    ``n`` detunings."""
    from psrsim import ensemble
    det = _map_detunings(D1_MAP, n)
    t, gl = ensemble._fit_model(_manifold(D1_MAP), _map_ensemble(D1_MAP),
                                det, FIT_MW, truth)
    t = t * (1.0 + 0.01 * rng.standard_normal(det.size))
    gl = gl * (1.0 + 0.01 * rng.standard_normal(det.size))
    return det, t, gl


def fit_error(fitted, truth) -> float:
    """Largest relative parameter error (offsets relative to 0.05 GHz)."""
    fitted, truth = np.asarray(fitted), np.asarray(truth)
    return float((np.abs(fitted - truth)
                  / np.maximum(np.abs(truth), 0.05)).max())


def draw_intensities(rng, spec: MapSpec) -> tuple[float, ...]:
    return tuple(float(v) for v in
                 np.sort(rng.uniform(*spec.mw_range, spec.n_mw)))


class FitTraces:
    """ensemble.fit on noisy D1 traces and composite_spectrum maps."""

    name = "fit-traces"
    in_process = True
    setup_modules = ("psrsim.ensemble",)

    def __init__(self, seed: int):
        self.seed = seed

    def make_pass(self, rng, _k: int) -> list[Op]:
        # two fits per map keep the median latency inside the fit mode
        ops = []
        for kind, spec in (("map-d1", D1_MAP), ("map-d2", D2_MAP)):
            for _ in range(2):
                truth = draw_fit_truth(rng)
                det, t, gl = synthetic_traces(rng, truth, DENSE_DETUNINGS)
                ops.append(Op("fit", {"truth": truth, "det": det, "t": t,
                                      "gl": gl}, fits=1))
            mws = draw_intensities(rng, spec)
            ops.append(Op(kind, {"spec": spec, "mws": mws},
                          points=DENSE_DETUNINGS * len(mws)))
        return ops

    def run(self, op: Op, _ctx=None):
        from psrsim import ensemble
        i = op.inputs
        if op.kind == "fit":
            return ensemble.fit(_manifold(D1_MAP), _map_ensemble(D1_MAP),
                                i["det"], i["t"], i["gl"], FIT_MW,
                                FIT_INITIAL)
        spec = i["spec"]
        det = tuple(_map_detunings(spec, DENSE_DETUNINGS))
        grid = ensemble.SweepGrid(detunings_ghz=det, intensities_mw=i["mws"])
        return ensemble.composite_spectrum(_manifold(spec),
                                           _map_ensemble(spec), grid,
                                           spec.mw_scale)

    @staticmethod
    def fitted(res) -> list[float]:
        return [res.density_scale, res.freq_offset_ghz, res.intensity_scale,
                *res.strength_ratios]

    def check(self, op: Op, res, out: Outcome, _first_pass: bool) -> None:
        if op.kind == "fit":
            err = fit_error(self.fitted(res), op.inputs["truth"])
            if not err <= FIT_REL_TOL:
                out.problems.append(f"fit misses the seeded truth by "
                                    f"{100 * err:.2f}%")
            return
        t, gl = res.transmission, res.psr_gl
        if not (np.isfinite(t).all() and np.isfinite(gl).all()):
            out.problems.append(f"{op.kind}: non-finite map")
        elif t.min() < 0.0 or t.max() > 1.0:
            out.problems.append(f"{op.kind}: transmission outside [0, 1]")

    def reference(self, out: Outcome) -> None:
        rng = np.random.default_rng(DEFAULT_SEED)
        for op in self.make_pass(rng, 0):
            res = self.run(op)
            self.check(op, res, out, True)
            if op.kind == "fit":
                out.ref.setdefault("fit.params", (self.fitted(res), 1e-6,
                                                  1e-9))
            else:
                out.ref[f"{op.kind}.transmission"] = (
                    _sample(res.transmission, 40), 1e-9, 1e-12)
                out.ref[f"{op.kind}.psr_gl"] = (_sample(res.psr_gl, 40),
                                                1e-9, 1e-12)


# ---------------------------------------------------------------------------
# psr-sim commands as users type them (cli-presets)
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _floats(rows, col: int) -> np.ndarray:
    return np.array([float(r[col]) for r in rows])


def _write_yaml_json(path: Path, cfg: dict) -> None:
    # JSON is valid YAML; it keeps the generated configs free of formatting
    # choices
    path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")


class CliPresets:
    """Subprocess ``psr-sim`` commands on the shipped presets and seeded
    configs, one command per operation."""

    name = "cli-presets"
    in_process = False
    setup_modules = ("psrsim.cli",)

    def __init__(self, seed: int, workdir: Path, src: Path, bench: Path):
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.bench = bench
        self.span_files: list[Path] = []

    def make_pass(self, rng, k: int) -> list[Op]:
        """Commands of one pass; seeded configs are written here, untimed."""
        d = self.workdir / f"pass{k}"
        d.mkdir(parents=True, exist_ok=True)
        truth = draw_fit_truth(rng)
        det, t, gl = synthetic_traces(rng, truth, PRESET_DETUNINGS)
        for name, trace in (("t.csv", t), ("gl.csv", gl)):
            (d / name).write_text("detuning_ghz,value\n" + "".join(
                f"{float(a)!r},{float(b)!r}\n" for a, b in zip(det, trace)),
                encoding="utf-8")
        lines = [{"center_ghz": c, "strength": s} for c, s in D1_MAP.lines_ghz]
        _write_yaml_json(d / "fit.yaml", {
            "ensemble": {"cooperativity": D1_MAP.cooperativity,
                         "gamma": D1_MAP.gamma_raw, "temperature": 345.0},
            "fit": {"lines": lines, "doppler_width_ghz": D1_MAP.doppler_ghz,
                    "transmission_csv": "t.csv", "rotation_csv": "gl.csv",
                    "intensity_mw": FIT_MW, "initial": FIT_INITIAL}})
        rows = []
        for j in range(6):
            row = {"detuning": float(rng.choice((-1.0, 1.0))
                                     * rng.uniform(300, 500)),
                   "omega": float(rng.uniform(5.0, 300.0))}
            if j % 2:
                row["saturation"] = float(rng.uniform(0.3, 0.7))
            else:
                row["intensity"] = COLD["intensity"]
            rows.append(row)
        _write_yaml_json(d / "limits.yaml", {
            "ensemble": {"cooperativity": COLD["cooperativity"]},
            "limits": {"rows": rows}})
        g_l, alpha_l = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0, 0.5))
        _write_yaml_json(d / "matsko.yaml", {"matsko": {
            "rotation_strength": g_l, "absorption": alpha_l,
            "chi_points": 721}})
        cold_pts, hot_pts = 8, 52   # (Delta, omega) rows the presets write

        def op(kind, args, points=0, fits=0, **extra):
            return Op(kind, {"dir": d, "args": args, **extra}, points, fits)
        return [
            op("noise-cold", ["noise", "--config", "cold-atom-kerr", "--out",
                              "cold.csv", "--theta-scan"],
               cold_pts),
            op("noise-d1", ["noise", "--config", "hot-vapour-d1", "--out",
                            "d1.csv"], hot_pts),
            op("noise-d2", ["noise", "--config", "hot-vapour-d2", "--out",
                            "d2.csv"], hot_pts),
            op("noise-d2-json-jobs1", ["noise", "--config", "hot-vapour-d2",
                                       "--out", "d2_j1.json", "--format",
                                       "json"], hot_pts),
            op("noise-d2-json-jobs2", ["noise", "--config", "hot-vapour-d2",
                                       "--out", "d2_j2.json", "--format",
                                       "json", "--jobs", "2"], hot_pts),
            op("sweep-d2", ["sweep", "--config", "d2-sweep", "--out",
                            "d2_sweep"]),
            op("sweep-d1", ["sweep", "--config", "d1-sweep", "--out",
                            "d1_sweep"]),
            op("fit", ["fit", "--config", "fit.yaml", "--out", "fit.csv"],
               fits=1, truth=truth),
            op("limits", ["limits", "--config", "limits.yaml", "--out",
                          "limits.csv"]),
            op("matsko", ["matsko", "--config", "matsko.yaml", "--out",
                          "matsko.csv"], g_l=g_l, alpha_l=alpha_l),
        ]

    def run(self, op: Op, ctx) -> None:
        """Run one command; ``ctx`` is (traced, op id)."""
        traced, op_id = ctx
        if traced:
            spans = op.inputs["dir"] / f"spans{op_id}.json"
            cmd = [sys.executable, str(self.bench / "clitrace.py"),
                   str(spans), str(op_id), "--", *op.inputs["args"]]
            self.span_files.append(spans)
        else:
            cmd = [sys.executable, "-c", "from psrsim.cli import main; main()",
                   *op.inputs["args"]]
        proc = subprocess.Popen(cmd, cwd=op.inputs["dir"], env=self.env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=120)
        except BaseException:
            # timed out or interrupted: stop the command and its workers
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"{op.kind}: exit {proc.returncode}: "
                               f"{err.decode(errors='replace')[-300:]}")

    def check(self, op: Op, _res, out: Outcome, first_pass: bool) -> None:
        d = op.inputs["dir"]
        ref = out.ref if first_pass else {}
        seeded_ref = ref if self.seed == DEFAULT_SEED else {}
        check = getattr(self, "_check_" + op.kind.split("-")[0])
        try:
            check(op, d, out.problems, ref, seeded_ref)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            out.problems.append(f"{op.kind}: unreadable output ({exc!r})")

    def _check_noise(self, op, d, problems, ref, _seeded) -> None:
        if op.kind.endswith("jobs2"):
            j1, j2 = (d / "d2_j1.json").read_bytes(), (d / "d2_j2.json")
            if j2.read_bytes() != j1:
                problems.append("--jobs 2 output differs from --jobs 1")
            return
        if op.kind.endswith("jobs1"):
            summary = json.loads((d / "d2_j1.json").read_text())["data"][
                "summary"]
            _, rows = read_csv(d / "d2.csv")
            got = np.array([[s["s_min_db"], s["s_max_db"]] for s in summary])
            if len(rows) != len(got) or np.abs(
                    got - np.array([[float(r[2]), float(r[3])] for r in rows])
            ).max() > 1e-9:
                problems.append("JSON and CSV noise outputs disagree")
            return
        name = op.kind.split("-")[1]
        _, rows = read_csv(d / f"{name}.csv")
        det, lo, hi = _floats(rows, 0), _floats(rows, 2), _floats(rows, 3)
        label = f"{op.kind}"
        if len(rows) != op.points or not (np.isfinite(lo).all()
                                          and np.isfinite(hi).all()):
            problems.append(f"{label}: expected {op.points} finite rows")
            return
        prod = (10.0 ** (lo / 10.0) * 10.0 ** (hi / 10.0)).min()
        if prod < 1.0 - UNCERTAINTY_TOL:
            problems.append(f"{label}: S_min*S_max = {prod:.6g} < 1")
        if name == "cold":
            if not (lo < 0).any():
                problems.append("cold-atom-kerr shows no squeezing")
            _, scan = read_csv(d / "cold_theta.csv")
            s_db = _floats(scan, 3).reshape(len(rows), -1)
            if not np.isfinite(s_db).all() or (
                    s_db < lo[:, None] - 1e-8).any() or (
                    s_db > hi[:, None] + 1e-8).any():
                problems.append("cold theta scan outside [s_min, s_max]")
            ref["cold_theta.s_db"] = (_sample(s_db, 60), 0.0, 1e-7)
        else:
            if not (lo > 0).all():
                problems.append(f"{label}: hot-vapour s_min_db <= 0")
            omega = _floats(rows, 1)
            key = {(a, w): (x, y) for a, w, x, y in zip(det, omega, lo, hi)}
            for (a, w), vals in key.items():
                mirror = key.get((-a, w))
                if mirror is not None and np.abs(
                        np.subtract(vals, mirror)).max() > SYMMETRY_DB_TOL:
                    problems.append(f"{label}: not symmetric under "
                                    f"Delta -> -Delta at Delta={a}")
                    break
        ref[f"{name}.s_min_db"] = (list(lo), 0.0, 1e-7)
        ref[f"{name}.s_max_db"] = (list(hi), 0.0, 1e-7)

    def _check_sweep(self, op, d, problems, ref, _seeded) -> None:
        name = op.kind.split("-")[1]
        _, t_rows = read_csv(d / f"{name}_sweep" / "transmission.csv")
        _, g_rows = read_csv(d / f"{name}_sweep" / "psr_gl.csv")
        t = np.array([[float(v) for v in r[1:]] for r in t_rows])
        gl = np.array([[float(v) for v in r[1:]] for r in g_rows])
        n_mw = (D1_MAP if name == "d1" else D2_MAP).n_mw
        if t.shape != (PRESET_DETUNINGS, n_mw) or t.shape != gl.shape:
            problems.append(f"{op.kind}: map shape {t.shape}")
        elif not (np.isfinite(t).all() and np.isfinite(gl).all()):
            problems.append(f"{op.kind}: non-finite map")
        elif t.min() < 0.0 or t.max() > 1.0:
            problems.append(f"{op.kind}: transmission outside [0, 1]")
        ref[f"{name}_sweep.transmission"] = (_sample(t, 60), 1e-8, 1e-12)
        ref[f"{name}_sweep.psr_gl"] = (_sample(gl, 60), 1e-8, 1e-12)

    def _check_fit(self, op, d, problems, _ref, seeded) -> None:
        _, rows = read_csv(d / "fit.csv")
        fitted = [float(r[1]) for r in rows]
        err = fit_error(fitted, op.inputs["truth"])
        if not err <= FIT_REL_TOL:
            problems.append(f"fit misses the seeded truth by {100 * err:.2f}%")
        seeded["fit.params"] = (fitted, 1e-6, 1e-9)

    def _check_limits(self, _op, d, problems, _ref, seeded) -> None:
        header, rows = read_csv(d / "limits.csv")
        cols = ["kappa_re", "kappa_im", "gamma_re", "gamma_im",
                "hsb_kappa_dev", "hsb_gamma_dev"]
        vals = np.array([[float(r[header.index(c)] or "nan") for c in cols]
                         for r in rows])
        if len(rows) != 6 or not np.isfinite(vals).all():
            problems.append("limits: expected 6 rows of finite coefficients")
        seeded["limits.coefficients"] = (list(vals.ravel()), 1e-8, 1e-12)

    def _check_matsko(self, op, d, problems, _ref, seeded) -> None:
        _, rows = read_csv(d / "matsko.csv")
        var = _floats(rows, 1)
        g_l, alpha_l = op.inputs["g_l"], op.inputs["alpha_l"]
        att = math.exp(-alpha_l)
        v_min = ((1.0 + g_l * g_l / 2.0
                  - abs(g_l) * math.sqrt(1.0 + g_l * g_l / 4.0)) * att
                 + 1.0 - att)
        if len(var) != 721 or not np.isfinite(var).all():
            problems.append("matsko: expected 721 finite variances")
        elif not (v_min - 1e-9 <= var.min() <= v_min + 1e-3):
            problems.append(f"matsko: grid minimum {var.min():.9g} vs closed "
                            f"form {v_min:.9g}")
        seeded["matsko.variance"] = (_sample(var, 40), 1e-9, 1e-12)

    def reference(self, _out: Outcome) -> None:
        """The first pass already recorded its outputs during the checks."""
