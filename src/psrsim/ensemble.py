"""Doppler averaging, hyperfine-line superposition and trace fitting.

A thermal ensemble samples a Gaussian distribution of effective
detunings (1/e half-width set by temperature and wavelength); several
hyperfine transitions contribute with relative strengths that scale
both the line's cooperativity and its share of the drive saturation.
The composite zero-sideband response kappa_comp(Delta, I) gives the
transmission map T = exp(-2 Re kappa_comp) and the measured rotation
map Gl = -Im kappa_comp * T.  The transmission weighting models the
polarimetric readout: rotation generated where the cell is opaque does
not reach the detectors, which reproduces the vanishing rotation at
the opaque line centre and the suppression on the strongly absorbing
side of the manifold.

Fitting adjusts a density scale, a frequency offset, the power-to-
intensity scale and the relative line strengths to measured
transmission and rotation traces by bounded least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import wofz

from .core import EnsembleParams, NumericalError, _require, ghz_to_gamma

_GH_NODES = 64


@dataclass(frozen=True)
class LineManifold:
    """Hyperfine transitions (centre detuning, relative strength) + Doppler.

    Centres are in gamma units; strengths are normalized to sum to 1 at
    construction.  ``doppler_width`` is the 1/e half-width of the
    thermal detuning distribution in gamma units (0 = cold ensemble).
    """

    lines: tuple[tuple[float, float], ...]
    doppler_width: float = 0.0

    def __post_init__(self):
        _require(len(self.lines) >= 1, "lines", "need at least one line")
        _require(all(s >= 0 for _, s in self.lines), "lines",
                 "strengths must be >= 0")
        total = sum(s for _, s in self.lines)
        _require(total > 0, "lines", "strengths must not all vanish")
        normed = tuple((float(c), float(s) / total) for c, s in self.lines)
        object.__setattr__(self, "lines", normed)
        _require(self.doppler_width >= 0, "doppler_width", "must be >= 0")


@dataclass(frozen=True)
class SweepGrid:
    """Axes of a sweep: detunings in GHz, intensities in mW (lab units)."""

    detunings_ghz: tuple[float, ...]
    intensities_mw: tuple[float, ...]

    def __post_init__(self):
        for name, axis in (("detunings_ghz", self.detunings_ghz),
                           ("intensities_mw", self.intensities_mw)):
            vals = tuple(float(v) for v in axis)
            object.__setattr__(self, name, vals)
            _require(len(vals) >= 1, name, "must be non-empty")
            _require(all(b > a for a, b in zip(vals, vals[1:])), name,
                     "must be strictly increasing")


def doppler_average(f, manifold: LineManifold, nodes: int = _GH_NODES,
                    rel_tol: float = 1e-6):
    """Average f over the thermal detuning distribution.

    ``f`` maps an array of detuning shifts (gamma units) to values.
    Gauss-Hermite quadrature with the exact Gaussian weight is tried
    first and checked against a doubled node count; integrands with
    structure much narrower than the Doppler width defeat it, so a
    dense trapezoid rule (also convergence-checked by doubling) is the
    fallback.  Zero width returns f(0).
    """
    w = manifold.doppler_width
    if w == 0.0:
        return np.asarray(f(np.array([0.0])))[..., 0] * 1.0

    def gh(n):
        x, wt = hermgauss(n)
        vals = np.asarray(f(w * x))
        return np.tensordot(vals, wt, axes=([-1], [0])) / math.sqrt(math.pi)

    coarse, fine = gh(nodes), gh(2 * nodes)
    scale = np.max(np.abs(fine)) + 1e-300
    if np.max(np.abs(fine - coarse)) / scale <= rel_tol:
        return fine

    def trap(n):
        v = np.linspace(-8.0 * w, 8.0 * w, n)
        wt = np.exp(-((v / w) ** 2))
        wt /= wt.sum()
        return np.tensordot(np.asarray(f(v)), wt, axes=([-1], [0]))

    n_pts = 4001
    prev = trap(n_pts)
    for _ in range(4):
        n_pts = 2 * n_pts - 1
        cur = trap(n_pts)
        scale = np.max(np.abs(cur)) + 1e-300
        if np.max(np.abs(cur - prev)) / scale <= rel_tol:
            return cur
        prev = cur
    raise NumericalError(
        f"Doppler quadrature not converged at {n_pts} trapezoid points "
        f"(Gauss-Hermite {nodes}/{2 * nodes} also disagreed)",
        {"doppler_width": w})


def _gaussian_pole_average(z0, width):
    """< 1/(z0 - v) > over the Gaussian detuning spread, via wofz.

    ``z0`` must have a non-vanishing imaginary part (off the real
    axis); width = 0 reduces to 1/z0.
    """
    z0 = np.asarray(z0, dtype=complex)
    if width == 0.0:
        return 1.0 / z0
    z = z0 / width
    upper = z.imag > 0
    out = np.empty(z.shape, dtype=complex)
    root_pi = math.sqrt(math.pi)
    out[upper] = -1j * root_pi * wofz(z[upper]) / width
    low = ~upper
    out[low] = np.conj(-1j * root_pi * wofz(np.conj(z[low]))) / width
    return out


def composite_kappa(manifold: LineManifold, ens: EnsembleParams,
                    detunings: np.ndarray, intensity: float) -> np.ndarray:
    """Strength-weighted, Doppler-averaged kappa(0) over a detuning axis.

    Each line contributes with cooperativity C * strength and drive
    share I_x * strength; per-line saturation is independent (no
    cross-line optical pumping).  The saturated single-line response
    (1 - i d) / (d^2 + 1 + s I) has two simple poles at +-i a with
    a = sqrt(1 + s I) (the power-broadened width), so its Gaussian
    average is evaluated exactly with the Faddeeva function; no
    quadrature error enters.  Detunings and intensity in gamma units.
    """
    detunings = np.asarray(detunings, dtype=float)
    wd = manifold.doppler_width
    out = np.zeros(detunings.shape, dtype=complex)
    for centre, strength in manifold.lines:
        a = math.sqrt(1.0 + strength * intensity)
        r_plus = (1.0 + a) / (2j * a)    # residue at +i a
        r_minus = (a - 1.0) / (2j * a)   # residue at -i a
        d0 = detunings - centre
        avg = (r_plus * _gaussian_pole_average(d0 - 1j * a, wd)
               + r_minus * _gaussian_pole_average(d0 + 1j * a, wd))
        out += strength * ens.cooperativity / 2.0 * avg
    return out


@dataclass(frozen=True)
class CompositeMaps:
    """Transmission and rotation maps over a (detuning, intensity) grid."""

    detunings_ghz: np.ndarray
    intensities_mw: np.ndarray
    transmission: np.ndarray     # shape (n_det, n_int)
    psr_gl: np.ndarray           # same shape


def composite_spectrum(manifold: LineManifold, ens: EnsembleParams,
                       grid: SweepGrid, intensity_scale: float,
                       transmission_weighted: bool = True) -> CompositeMaps:
    """T and Gl maps over the sweep grid.

    ``intensity_scale`` converts mW to I_x in gamma^2 (the documented
    power-to-intensity assumption).  T = exp(-2 Re kappa_comp); the
    rotation map is -Im kappa_comp, weighted by T when
    ``transmission_weighted`` (the polarimeter sees only transmitted
    light).
    """
    _require(intensity_scale > 0, "intensity_scale", "must be > 0")
    det_gamma = ghz_to_gamma(np.asarray(grid.detunings_ghz), ens.gamma_raw)
    t_map = np.empty((det_gamma.size, len(grid.intensities_mw)))
    gl_map = np.empty_like(t_map)
    for j, mw in enumerate(grid.intensities_mw):
        kap = composite_kappa(manifold, ens, det_gamma, intensity_scale * mw)
        t_col = np.exp(-2.0 * kap.real)
        gl_col = -kap.imag
        if transmission_weighted:
            gl_col = gl_col * t_col
        t_map[:, j] = t_col
        gl_map[:, j] = gl_col
    return CompositeMaps(detunings_ghz=np.asarray(grid.detunings_ghz),
                         intensities_mw=np.asarray(grid.intensities_mw),
                         transmission=t_map, psr_gl=gl_map)


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters, covariance estimate and residual summary."""

    density_scale: float
    freq_offset_ghz: float
    intensity_scale: float
    strength_ratios: tuple[float, ...]
    covariance: np.ndarray
    rms_residual: float
    n_eval: int

    def report(self) -> str:
        lines = [
            "composite-model fit",
            f"  density scale     : {self.density_scale:.6g}",
            f"  frequency offset  : {self.freq_offset_ghz:.6g} GHz",
            f"  intensity scale   : {self.intensity_scale:.6g} gamma^2/mW"
            " (floated per trace)",
        ]
        for k, r in enumerate(self.strength_ratios):
            lines.append(f"  strength ratio {k + 1:2d} : {r:.6g}"
                         " (relative to first line)")
        lines.append(f"  rms residual      : {self.rms_residual:.4e}")
        lines.append(f"  model evaluations : {self.n_eval}")
        return "\n".join(lines)


def _fit_model(manifold: LineManifold, ens: EnsembleParams,
               det_ghz: np.ndarray, intensity_mw: float,
               params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    density_scale, offset = params[0], params[1]
    intensity_scale = params[2]
    ratios = params[3:]
    strengths = np.concatenate(([1.0], ratios))
    lines = tuple((c, s) for (c, _), s in zip(manifold.lines, strengths))
    man = LineManifold(lines=lines, doppler_width=manifold.doppler_width)
    ens_scaled = EnsembleParams.from_cooperativity(
        density_scale * ens.cooperativity, gamma_raw=ens.gamma_raw,
        cell_length=ens.cell_length, density=ens.density,
        temperature=ens.temperature)
    det_gamma = ghz_to_gamma(det_ghz - offset, ens.gamma_raw)
    kap = composite_kappa(man, ens_scaled, det_gamma,
                          intensity_scale * intensity_mw)
    t = np.exp(-2.0 * kap.real)
    gl = -kap.imag * t
    return t, gl


def fit(manifold_template: LineManifold, ens: EnsembleParams,
        det_ghz: np.ndarray, t_data: np.ndarray, gl_data: np.ndarray,
        intensity_mw: float, initial: dict | None = None) -> FitResult:
    """Least-squares fit of the composite model to measured traces.

    Free parameters: density scale (multiplies C), frequency offset
    (GHz), mW-to-I_x intensity scale, and the line strengths relative
    to the first line.  Deterministic for a fixed initial guess.
    Requires at least 50 points and monotone detunings.
    """
    # scipy.optimize costs about 0.4 s to import and only fits need it
    from scipy.optimize import least_squares

    det_ghz = np.asarray(det_ghz, dtype=float)
    t_data = np.asarray(t_data, dtype=float)
    gl_data = np.asarray(gl_data, dtype=float)
    _require(det_ghz.size >= 50, "data", "need >= 50 points")
    _require(np.all(np.diff(det_ghz) > 0), "data",
             "detunings must be strictly increasing")
    _require(t_data.shape == det_ghz.shape and gl_data.shape == det_ghz.shape,
             "data", "trace lengths must match the detuning axis")

    initial = dict(initial or {})
    n_ratio = len(manifold_template.lines) - 1
    base_strengths = [s for _, s in manifold_template.lines]
    x0 = np.array([initial.get("density_scale", 1.0),
                   initial.get("freq_offset_ghz", 0.0),
                   initial.get("intensity_scale", 100.0)]
                  + [base_strengths[k + 1] / base_strengths[0]
                     for k in range(n_ratio)])
    lo = np.array([1e-3, -1.0, 1e-3] + [1e-3] * n_ratio)
    hi = np.array([1e3, 1.0, 1e6] + [1e3] * n_ratio)

    t_scale = max(np.max(np.abs(t_data)), 1e-12)
    gl_scale = max(np.max(np.abs(gl_data)), 1e-12)

    def residual(p):
        t_mod, gl_mod = _fit_model(manifold_template, ens, det_ghz,
                                   intensity_mw, p)
        return np.concatenate(((t_mod - t_data) / t_scale,
                               (gl_mod - gl_data) / gl_scale))

    res = least_squares(residual, x0, bounds=(lo, hi), method="trf",
                        diff_step=1e-6, xtol=1e-14, ftol=1e-14, gtol=1e-14,
                        max_nfev=400)
    if not res.success and res.status <= 0:
        raise NumericalError(f"fit did not converge: {res.message}",
                             {"best": res.x.tolist()})
    dof = max(res.fun.size - res.x.size, 1)
    jtj = res.jac.T @ res.jac
    try:
        cov = np.linalg.inv(jtj) * 2.0 * res.cost / dof
    except np.linalg.LinAlgError:
        cov = np.full((res.x.size, res.x.size), np.nan)
    rms = float(np.sqrt(np.mean(res.fun**2)))
    return FitResult(density_scale=float(res.x[0]),
                     freq_offset_ghz=float(res.x[1]),
                     intensity_scale=float(res.x[2]),
                     strength_ratios=tuple(float(v) for v in res.x[3:]),
                     covariance=cov, rms_residual=rms, n_eval=res.nfev)
