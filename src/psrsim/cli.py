"""Command-line surface: sweeps, noise spectra, limits, fits, polarimetry.

Every command reads a YAML config (a path or the name of a shipped
preset), writes machine-readable output (CSV with ``#`` metadata lines,
or JSON with ``meta``/``data`` keys) and returns exit code 0 on
success, 2 on config errors, 3 on numerical failures (a NaN or an
infinity that an output would hold among them) and 4 on data-ingestion
errors.  Outputs are byte-identical for identical configs and tool
version.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

import click
import numpy as np
import yaml

# every model module needs numpy alone, so no command loads scipy;
# ``ensemble`` (8-11 ms of import) is loaded by sweep and fit only
from . import __version__, fluct, matsko
from .core import (DataError, DriveParams, EnsembleParams, NumericalError,
                   ValidationError, ghz_to_gamma)

if TYPE_CHECKING:
    from . import ensemble

_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_DATA = 4


class ConfigError(ValidationError):
    """Config schema violation (same exit class as validation errors)."""


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def load_config(path_or_preset: str) -> tuple[dict, str]:
    """Load a YAML config from a path or a shipped preset name.

    Returns the parsed mapping and the sha256 of the raw bytes (the
    hash recorded in every output file).
    """
    p = Path(path_or_preset)
    if p.is_file():
        raw = p.read_bytes()
    else:
        name = f"{path_or_preset}.yaml"
        try:
            raw = (resources.files("psrsim") / "presets" / name).read_bytes()
        except (FileNotFoundError, ModuleNotFoundError):
            raise ConfigError("config",
                              f"no such file or preset: {path_or_preset!r}")
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError("config", f"invalid YAML: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a mapping")
    return cfg, hashlib.sha256(raw).hexdigest()


def _known(sec: dict, section: str, keys) -> dict:
    """``sec`` itself, once every key in it is one of ``keys``: a
    misspelled key would otherwise leave its default in force."""
    for key in sec:
        if key not in keys:
            raise ConfigError(f"{section}.{key}", "unknown key")
    return sec


def _section(cfg: dict, name: str, keys) -> dict:
    sec = cfg.get(name)
    if sec is None:
        raise ConfigError(name, "missing section")
    if not isinstance(sec, dict):
        raise ConfigError(name, "must be a mapping")
    return _known(sec, name, keys)


def _float(val, field_name: str) -> float:
    try:
        x = float(val)
    except (TypeError, ValueError):
        raise ConfigError(field_name, f"not a number: {val!r}")
    if not math.isfinite(x):
        raise ConfigError(field_name, f"not a finite number: {val!r}")
    return x


def _num(sec: dict, section: str, key: str, default=None) -> float:
    val = sec.get(key, default)
    if val is None:
        raise ConfigError(f"{section}.{key}", "missing")
    return _float(val, f"{section}.{key}")


def _int(sec: dict, section: str, key: str, default=None) -> int:
    val = _num(sec, section, key, default)
    if not val.is_integer():
        raise ConfigError(f"{section}.{key}",
                          f"not an integer: {sec.get(key, default)!r}")
    return int(val)


def _axis(sec: dict, section: str, key: str) -> list[float]:
    """An axis is either an explicit list or {start, stop, points}."""
    val = sec.get(key)
    if val is None:
        raise ConfigError(f"{section}.{key}", "missing")
    if isinstance(val, dict):
        _known(val, f"{section}.{key}", ("start", "stop", "points"))
        start = _num(val, f"{section}.{key}", "start")
        stop = _num(val, f"{section}.{key}", "stop")
        pts = _int(val, f"{section}.{key}", "points")
        if pts < 1:
            raise ConfigError(f"{section}.{key}.points", "must be >= 1")
        return list(np.linspace(start, stop, pts))
    if isinstance(val, list) and val:
        return [_float(v, f"{section}.{key}[{k}]") for k, v in enumerate(val)]
    raise ConfigError(f"{section}.{key}",
                      "must be a list or a start/stop/points mapping")


def build_ensemble(cfg: dict) -> EnsembleParams:
    # density, temperature and beam_waist are checked, enter no output
    sec = _section(cfg, "ensemble", ("cooperativity", "gamma", "cell_length",
                                     "density", "temperature", "beam_waist"))
    try:
        return EnsembleParams.from_cooperativity(
            _num(sec, "ensemble", "cooperativity"),
            gamma_raw=_num(sec, "ensemble", "gamma", 1.0),
            cell_length=_num(sec, "ensemble", "cell_length", 0.075),
            density=_num(sec, "ensemble", "density", 1.0e17),
            temperature=_num(sec, "ensemble", "temperature", 300.0),
            beam_waist=_num(sec, "ensemble", "beam_waist", 425e-6))
    except ValidationError as exc:
        raise ConfigError(f"ensemble.{exc.field_name}", str(exc))


def build_manifold(sec: dict, section: str,
                   ens: EnsembleParams) -> ensemble.LineManifold:
    from . import ensemble
    raw_lines = sec.get("lines")
    if not isinstance(raw_lines, list) or not raw_lines:
        raise ConfigError(f"{section}.lines", "must be a non-empty list")
    lines = []
    for k, entry in enumerate(raw_lines):
        if not isinstance(entry, dict):
            raise ConfigError(f"{section}.lines[{k}]", "must be a mapping")
        name = f"{section}.lines[{k}]"
        _known(entry, name, ("center_ghz", "strength"))
        lines.append((ghz_to_gamma(_num(entry, name, "center_ghz"),
                                   ens.gamma_raw),
                      _num(entry, name, "strength")))
    width = ghz_to_gamma(_num(sec, section, "doppler_width_ghz", 0.0),
                         ens.gamma_raw)
    try:
        return ensemble.LineManifold(lines=tuple(lines), doppler_width=width)
    except ValidationError as exc:
        raise ConfigError(f"{section}.{exc.field_name}", str(exc))


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):
            raise ValueError(x)
        return f"{float(x):.12g}"
    return str(x)


def _non_finite(command: str, kind: str, path: Path) -> NumericalError:
    return NumericalError(f"{command}: non-finite value in the {kind} "
                          "output", {"output": str(path)})


def write_csv(path: Path, command: str, cfg_hash: str, header: list[str],
              rows, extra_meta: list[str] | None = None) -> None:
    """``rows`` as CSV under ``#`` metadata lines; a NaN or an infinity
    in a float cell is a numerical error, and no file is written."""
    buf = io.StringIO()
    buf.write(f"# psr-sim v{__version__}\n")
    buf.write(f"# command={command}\n")
    buf.write(f"# config_sha256={cfg_hash}\n")
    for line in extra_meta or []:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    try:
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    except ValueError:
        raise _non_finite(command, "CSV", path) from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buf.getvalue(), encoding="utf-8")


def write_json(path: Path, command: str, cfg_hash: str, data: dict,
               extra_meta: dict | None = None) -> None:
    payload = {
        "meta": {"tool": "psr-sim", "version": __version__,
                 "command": command, "config_sha256": cfg_hash,
                 **(extra_meta or {})},
        "data": data,
    }
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:      # a NaN or an infinity: no JSON number holds it
        raise _non_finite(command, "JSON", path) from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(version=__version__, prog_name="psr-sim")
def cli() -> None:
    """Self-rotation and vacuum-noise simulator for driven 4-level vapours."""


_CONFIG_OPT = click.option("--config", "config_path", required=True,
                           help="YAML config file or preset name.")
_OUT_OPT = click.option("--out", "out_path", required=True,
                        type=click.Path(path_type=Path),
                        help="Output file (directory for sweep).")
_FORMAT_OPT = click.option("--format", "fmt",
                           type=click.Choice(["csv", "json"]),
                           default="csv", show_default=True)


@cli.command()
@_CONFIG_OPT
@_OUT_OPT
@_FORMAT_OPT
def sweep(config_path: str, out_path: Path, fmt: str) -> None:
    """Transmission and rotation maps over a detuning/intensity grid."""
    from . import ensemble
    cfg, cfg_hash = load_config(config_path)
    sec = _section(cfg, "sweep", ("detunings_ghz", "intensities_mw",
                                  "intensity_scale", "doppler_width_ghz",
                                  "lines"))
    ens = build_ensemble(cfg)
    man = build_manifold(sec, "sweep", ens)
    axes = {key: tuple(_axis(sec, "sweep", key))
            for key in ("detunings_ghz", "intensities_mw")}
    try:
        grid = ensemble.SweepGrid(**axes)
    except ValidationError as exc:
        raise ConfigError(f"sweep.{exc.field_name}", str(exc))
    scale = _num(sec, "sweep", "intensity_scale")
    if scale <= 0:
        raise ConfigError("sweep.intensity_scale", "must be > 0")
    maps = ensemble.composite_spectrum(man, ens, grid, scale)
    t_map, gl_map = maps.transmission, maps.psr_gl

    header = ["detuning_ghz"] + [f"{mw:.12g}mW" for mw in grid.intensities_mw]
    meta = [f"intensity_scale={scale:.12g}"]
    if fmt == "csv":
        # both map files or neither
        if not (np.isfinite(t_map).all() and np.isfinite(gl_map).all()):
            raise _non_finite("sweep", "CSV", out_path)
        for name, mat in (("transmission", t_map), ("psr_gl", gl_map)):
            rows = [[d] + list(mat[i])
                    for i, d in enumerate(grid.detunings_ghz)]
            write_csv(out_path / f"{name}.csv", "sweep", cfg_hash, header,
                      rows, meta)
    else:
        write_json(out_path / "sweep.json", "sweep", cfg_hash, {
            "detunings_ghz": list(grid.detunings_ghz),
            "intensities_mw": list(grid.intensities_mw),
            "transmission": [[float(v) for v in row] for row in t_map],
            "psr_gl": [[float(v) for v in row] for row in gl_map],
        }, {"intensity_scale": scale})
    click.echo(f"sweep written to {out_path}")


@cli.command()
@_CONFIG_OPT
@_OUT_OPT
@_FORMAT_OPT
# accepted (>= 1) and ignored, so that scripts that pass it still run:
# the detunings take one process, since a detuning costs well under a
# millisecond and a worker process never paid back its start-up
@click.option("--jobs", type=click.IntRange(min=1), hidden=True,
              expose_value=False)
@click.option("--deplete", is_flag=True,
              help="Deplete the mean drive along the cell.")
@click.option("--theta-scan", is_flag=True,
              help="Also emit the full theta scan per (detuning, omega).")
def noise(config_path: str, out_path: Path, fmt: str, deplete: bool,
          theta_scan: bool) -> None:
    """Quadrature noise spectra of the output y-polarized vacuum, in dB."""
    cfg, cfg_hash = load_config(config_path)
    sec = _section(cfg, "noise", ("detunings", "omegas", "theta_points",
                                  "omega_floor"))
    # ellipticity is checked: the spectra need it to be 0
    drive_sec = _section(cfg, "drive", ("intensity", "detuning",
                                        "ellipticity"))
    ens = build_ensemble(cfg)
    intensity = _num(drive_sec, "drive", "intensity")
    if _num(drive_sec, "drive", "ellipticity", 0.0) != 0.0:
        # the fluctuation analysis linearizes about linear polarization
        raise ConfigError("drive.ellipticity",
                          "noise spectra need a linearly polarized drive (0)")
    detunings = (_axis(sec, "noise", "detunings") if "detunings" in sec
                 else [_num(drive_sec, "drive", "detuning", 0.0)])
    omegas = _axis(sec, "noise", "omegas")
    if min(omegas) < 0:
        raise ConfigError("noise.omegas", "must be >= 0")
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        raise ConfigError("noise.omegas", "must be strictly increasing")
    n_theta = _int(sec, "noise", "theta_points", 61)
    if n_theta < 2:
        raise ConfigError("noise.theta_points", "must be >= 2")
    thetas = list(np.linspace(0.0, math.pi, n_theta, endpoint=False))
    floor = _num(sec, "noise", "omega_floor", 0.01)

    summary = []
    scan_rows = []
    for det in detunings:
        spec = fluct.propagate_noise(
            ens, DriveParams(intensity=intensity, detuning=det), omegas,
            thetas, deplete=deplete, omega_floor=floor)
        ws = spec.omegas.tolist()
        summary.extend((det, w, lo, hi, flag) for w, lo, hi, flag in zip(
            ws, spec.min_db().tolist(), spec.max_db().tolist(),
            spec.low_omega.tolist()))
        if theta_scan:
            for w, row in zip(ws, spec.to_db().tolist()):
                scan_rows.extend((det, w, th, v) for th, v in zip(thetas, row))
    if fmt == "csv":
        write_csv(out_path, "noise", cfg_hash,
                  ["detuning", "omega", "s_min_db", "s_max_db", "low_omega"],
                  summary)
        if theta_scan:
            scan_path = out_path.with_name(out_path.stem + "_theta"
                                           + out_path.suffix)
            write_csv(scan_path, "noise", cfg_hash,
                      ["detuning", "omega", "theta", "s_db"], scan_rows)
    else:
        data = {"summary": [{"detuning": d, "omega": w, "s_min_db": lo,
                             "s_max_db": hi, "low_omega": f}
                            for d, w, lo, hi, f in summary]}
        if theta_scan:
            data["theta_scan"] = [{"detuning": d, "omega": w, "theta": th,
                                   "s_db": v} for d, w, th, v in scan_rows]
        write_json(out_path, "noise", cfg_hash, data)
    click.echo(f"noise spectra written to {out_path}")


def _deviation(approx: complex, exact: complex) -> float | str:
    """|approx - exact| / |exact|, or an empty cell where exact is 0
    (an undriven row, whose coefficient and limit both vanish)."""
    return abs(approx - exact) / abs(exact) if exact != 0 else ""


@cli.command()
@_CONFIG_OPT
@_OUT_OPT
@_FORMAT_OPT
def limits(config_path: str, out_path: Path, fmt: str) -> None:
    """Side-by-side full response vs limit-regime coefficients."""
    cfg, cfg_hash = load_config(config_path)
    sec = _section(cfg, "limits", ("rows",))
    ens = build_ensemble(cfg)
    raw_rows = sec.get("rows")
    if not isinstance(raw_rows, list) or not raw_rows:
        raise ConfigError("limits.rows", "must be a non-empty list")

    table = []
    for k, row in enumerate(raw_rows):
        if not isinstance(row, dict):
            raise ConfigError(f"limits.rows[{k}]", "must be a mapping")
        name = f"limits.rows[{k}]"
        _known(row, name, ("detuning", "omega", "intensity", "saturation"))
        if "intensity" in row and "saturation" in row:
            raise ConfigError(f"{name}.saturation",
                              "give intensity or saturation, not both")
        det = _num(row, name, "detuning")
        w = _num(row, name, "omega")
        if w < 0:
            raise ConfigError(f"{name}.omega", "must be >= 0")
        key = "intensity" if "intensity" in row else "saturation"
        value = _num(row, name, key)
        if value < 0:
            raise ConfigError(f"{name}.{key}", "must be >= 0")
        ix = value if key == "intensity" else value * (1.0 + det * det)
        drive = DriveParams(intensity=ix, detuning=det)
        resp = fluct.response(ens, drive, w)
        hsb_ok = abs(det) >= 50.0 and w >= 5.0
        kerr_ok = fluct.kerr_in_regime(drive)
        hsat_ok = ix >= 100.0 * det * det and w >= 1.0
        entry = {
            "detuning": det, "omega": w, "intensity": ix,
            "saturation": drive.saturation,
            "kappa_re": resp.kappa.real, "kappa_im": resp.kappa.imag,
            "gamma_re": resp.gamma.real, "gamma_im": resp.gamma.imag,
            "hsb_valid": hsb_ok, "kerr_valid": kerr_ok,
            "hsat_valid": hsat_ok,
            "hsb_kappa_dev": "", "hsb_gamma_dev": "",
            "kerr_drift_dev": "", "kerr_coupling_dev": "",
            "hsat_kappa_dev": "", "hsat_drift_dev": "",
        }
        if det != 0.0:
            if hsb_ok:
                lim = fluct.limit_high_sideband(ens, drive, w)
                entry["hsb_kappa_dev"] = _deviation(lim.kappa, resp.kappa)
                entry["hsb_gamma_dev"] = _deviation(lim.gamma, resp.gamma)
            if kerr_ok:
                kerr = fluct.limit_kerr(ens, drive)
                entry["kerr_drift_dev"] = _deviation(
                    kerr.dephasing + kerr.kerr_ay, resp.drift)
                entry["kerr_coupling_dev"] = _deviation(kerr.kerr_aydag,
                                                        -resp.kappa)
            if hsat_ok:
                hsat = fluct.limit_high_saturation(ens, drive, w)
                entry["hsat_kappa_dev"] = _deviation(hsat.coef_aydag,
                                                     -resp.kappa)
                entry["hsat_drift_dev"] = _deviation(hsat.coef_ay,
                                                     resp.drift)
        table.append(entry)

    cols = list(table[0].keys())
    if fmt == "csv":
        write_csv(out_path, "limits", cfg_hash, cols,
                  [[e[c] for c in cols] for e in table])
    else:
        write_json(out_path, "limits", cfg_hash, {"rows": table})
    click.echo(f"limit table written to {out_path}")


@cli.command("matsko")
@_CONFIG_OPT
@_OUT_OPT
@_FORMAT_OPT
def matsko_cmd(config_path: str, out_path: Path, fmt: str) -> None:
    """Phenomenological rotation-model variance scan and optimum."""
    cfg, cfg_hash = load_config(config_path)
    sec = _section(cfg, "matsko", ("rotation_strength", "absorption",
                                   "chi_points"))
    g_l = _num(sec, "matsko", "rotation_strength")
    alpha_l = _num(sec, "matsko", "absorption", 0.0)
    n_chi = _int(sec, "matsko", "chi_points", 721)
    if alpha_l < 0:
        raise ConfigError("matsko.absorption", "must be >= 0")
    if n_chi < 2:
        raise ConfigError("matsko.chi_points", "must be >= 2")

    chis = np.linspace(0.0, 2.0 * math.pi, n_chi, endpoint=False)
    variances = [matsko.variance(g_l, alpha_l, c) for c in chis]
    if g_l != 0.0:
        chi_star, v_min = matsko.optimal_phase(g_l, alpha_l)
        opt = {"chi_star": chi_star, "min_variance": v_min,
               "min_variance_db": matsko.min_variance_db(g_l, alpha_l)}
    else:       # nothing rotates: every phase gives the QNL, none is optimal
        opt = {"chi_star": None, "min_variance": 1.0, "min_variance_db": 0.0}
    chi_star = math.nan if opt["chi_star"] is None else opt["chi_star"]
    meta = [f"rotation_strength={g_l:.12g}", f"absorption={alpha_l:.12g}",
            f"chi_star={chi_star:.12g}",
            f"min_variance={opt['min_variance']:.12g}",
            f"min_variance_db={opt['min_variance_db']:.12g}"]
    if fmt == "csv":
        write_csv(out_path, "matsko", cfg_hash, ["chi", "variance"],
                  zip(chis, variances), meta)
    else:
        write_json(out_path, "matsko", cfg_hash,
                   {"chi": list(map(float, chis)),
                    "variance": list(map(float, variances)),
                    "optimum": opt})
    click.echo(f"variance scan written to {out_path}")


def _read_trace_csv(path: Path, expect_cols: int) -> list[list[float]]:
    if not path.is_file():
        raise DataError(f"no such data file: {path}")
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) < expect_cols:
                raise DataError(f"{path}:{lineno}: expected "
                                f"{expect_cols} columns, got {len(row)}")
            try:
                vals = [float(v) for v in row[:expect_cols]]
            except ValueError:
                if not rows:
                    continue  # header row
                raise DataError(f"{path}:{lineno}: non-numeric row {row!r}")
            if not all(map(math.isfinite, vals)):
                raise DataError(f"{path}:{lineno}: non-finite value in row "
                                f"{row!r}")
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


@cli.command()
@_CONFIG_OPT
@_OUT_OPT
@_FORMAT_OPT
def fit(config_path: str, out_path: Path, fmt: str) -> None:
    """Fit the composite model to measured transmission/rotation traces."""
    from . import ensemble
    cfg, cfg_hash = load_config(config_path)
    sec = _section(cfg, "fit", ("lines", "doppler_width_ghz",
                                "transmission_csv", "rotation_csv",
                                "intensity_mw", "initial"))
    ens = build_ensemble(cfg)
    man = build_manifold(sec, "fit", ens)
    for key in ("transmission_csv", "rotation_csv"):
        if not sec.get(key):
            raise ConfigError(f"fit.{key}", "missing")
    t_rows = _read_trace_csv(Path(str(sec["transmission_csv"])), 2)
    g_rows = _read_trace_csv(Path(str(sec["rotation_csv"])), 2)
    det = np.array([r[0] for r in t_rows])
    det_g = np.array([r[0] for r in g_rows])
    if det.shape != det_g.shape or not np.allclose(det, det_g):
        raise DataError("transmission and rotation traces must share "
                        "the same detuning axis")
    t_data = np.array([r[1] for r in t_rows])
    gl_data = np.array([r[1] for r in g_rows])
    mw = _num(sec, "fit", "intensity_mw")
    if mw < 0:
        raise ConfigError("fit.intensity_mw", "must be >= 0")
    initial = sec.get("initial") or {}
    if not isinstance(initial, dict):
        raise ConfigError("fit.initial", "must be a mapping")
    _known(initial, "fit.initial", ("density_scale", "freq_offset_ghz",
                                    "intensity_scale"))
    result = ensemble.fit(man, ens, det, t_data, gl_data, mw, initial)

    names = (["density_scale", "freq_offset_ghz", "intensity_scale"]
             + [f"strength_ratio_{k + 1}" for k, _ in
                enumerate(result.strength_ratios)])
    values = [result.density_scale, result.freq_offset_ghz,
              result.intensity_scale, *result.strength_ratios]
    # a sigma only for a finite, non-negative variance; None otherwise
    sigmas = [math.sqrt(v) if 0.0 <= v < math.inf else None
              for v in np.diag(result.covariance).tolist()]
    if fmt == "csv":
        write_csv(out_path, "fit", cfg_hash,
                  ["parameter", "value", "sigma"],
                  zip(names, values,
                      ["nan" if v is None else v for v in sigmas]),
                  [f"rms_residual={result.rms_residual:.12g}"]
                  + result.report().splitlines())
    else:
        write_json(out_path, "fit", cfg_hash, {
            "parameters": dict(zip(names, values)),
            "sigmas": dict(zip(names, sigmas)),
            "rms_residual": result.rms_residual,
            "report": result.report(),
        })
    click.echo(result.report())
    click.echo(f"fit written to {out_path}")


def polarimeter_rotation(v1: float, v2: float) -> float:
    """Rotation angle from balanced-polarimeter DC voltages.

    phi = (V1 - V2) / (2 (V1 + V2)); requires V1 + V2 > 0.
    """
    total = v1 + v2
    if total <= 0:
        raise DataError(f"V1+V2 must be > 0 (got {total!r})")
    return (v1 - v2) / (2.0 * total)


@cli.command()
@_CONFIG_OPT
@_OUT_OPT
@_FORMAT_OPT
def polarimetry(config_path: str, out_path: Path, fmt: str) -> None:
    """Convert balanced-polarimeter voltages to rotation angles."""
    cfg, cfg_hash = load_config(config_path)
    sec = _section(cfg, "polarimetry", ("input_csv",))
    if not sec.get("input_csv"):
        raise ConfigError("polarimetry.input_csv", "missing")
    in_path = Path(str(sec["input_csv"]))
    rows = _read_trace_csv(in_path, 3)
    out_rows = []
    for k, row in enumerate(rows, start=1):
        det, v1, v2 = row[0], row[1], row[2]
        try:
            phi = polarimeter_rotation(v1, v2)
        except DataError as exc:
            raise DataError(f"{in_path}: data row {k}: {exc}")
        out_rows.append((det, v1, v2, phi))
    if fmt == "csv":
        write_csv(out_path, "polarimetry", cfg_hash,
                  ["detuning_ghz", "v1", "v2", "phi"], out_rows)
    else:
        write_json(out_path, "polarimetry", cfg_hash, {
            "rows": [{"detuning_ghz": d, "v1": a, "v2": b, "phi": p}
                     for d, a, b, p in out_rows]})
    click.echo(f"rotation trace written to {out_path}")


def main() -> None:
    try:
        cli.main(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(1)
    except click.exceptions.ClickException as exc:
        exc.show()
        sys.exit(_EXIT_CONFIG)
    except (ConfigError, ValidationError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(_EXIT_CONFIG)
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(_EXIT_DATA)
    except NumericalError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        sys.exit(_EXIT_NUMERIC)


if __name__ == "__main__":
    main()
