"""Doppler averaging, hyperfine-line superposition and trace fitting.

A thermal ensemble samples a Gaussian distribution of effective
detunings (1/e half-width ``LineManifold.doppler_width``, given in GHz
by a config's ``doppler_width_ghz``); several hyperfine transitions
contribute with relative strengths that scale both the line's
cooperativity and its share of the drive saturation.
The composite zero-sideband response kappa_comp(Delta, I) gives the
transmission map T = exp(-2 Re kappa_comp) and the measured rotation
map Gl = -Im kappa_comp * T.  The transmission weighting models the
polarimetric readout: rotation generated where the cell is opaque does
not reach the detectors, which reproduces the vanishing rotation at
the opaque line centre and the suppression on the strongly absorbing
side of the manifold.

The Faddeeva function is Weideman's rational expansion in numpy
(``wofz``), evaluated only in the upper half-plane, where the averaged
poles lie.

Fitting adjusts a density scale, a frequency offset, the power-to-
intensity scale and the relative line strengths to measured
transmission and rotation traces by bounded least squares (a projected
Levenberg-Marquardt, ``_bounded_lm``, with one QR of [J | r] per
accepted point), with the model's exact Jacobian built in real rows
from the same per-line Faddeeva values.  The module needs numpy
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EnsembleParams, NumericalError, _require, ghz_to_gamma

_ROOT_PI = math.sqrt(math.pi)


def _weideman_coefficients(n: int, scale: float) -> list[float]:
    """a_n, ..., a_1 of Weideman's expansion, highest order first.

    a_k = (1/2M) sum_j f(t_j) cos(k theta_j) over theta_j = j pi / M,
    |j| < M = 2n, with t = L tan(theta / 2) and f = exp(-t^2) (L^2 + t^2):
    the discrete Fourier coefficients of the even f (which vanishes at
    theta = -pi), summed directly.
    """
    m = 2 * n
    theta = np.arange(-m + 1, m) * (math.pi / m)
    t = scale * np.tan(theta / 2.0)
    f = np.exp(-t * t) * (scale * scale + t * t)
    a = np.cos(np.outer(np.arange(n, 0, -1), theta)) @ f / (2 * m)
    return a.tolist()


_W_TERMS = 48
_W_SCALE = math.sqrt(_W_TERMS / math.sqrt(2.0))     # Weideman's optimal L
_W_COEFFS = _weideman_coefficients(_W_TERMS, _W_SCALE)
_W_CHUNK = 4096     # points per pass: the Horner arrays stay in cache


def wofz(z, out: np.ndarray | None = None) -> np.ndarray:
    """The Faddeeva function w(z) = exp(-z^2) erfc(-i z) for Im z >= 0.

    Weideman's rational expansion (J. A. C. Weideman, SIAM J. Numer.
    Anal. 31, 1497, 1994) with N = 48 terms: with u = 1 / (L - i z) and
    Z = (L + i z) u, w = u / sqrt(pi) + 2 u^2 sum_k a_(k+1) Z^k.  Its
    relative error is about 1e-15 over the upper half-plane (tested
    against mpmath up to |z| = 1e8); the lower half-plane is outside
    its range.  The points are taken 4096 at a time, so no temporary
    grows with z.  ``out`` (C-contiguous, z's shape; z itself is
    allowed) receives the values.
    """
    z = np.asarray(z, dtype=complex)
    if out is None:
        out = np.empty(z.shape, dtype=complex)
    if not out.flags.c_contiguous:
        raise ValueError("wofz: out must be C-contiguous")
    flat_z, flat_out = z.reshape(-1), out.reshape(-1)
    for start in range(0, flat_z.size, _W_CHUNK):
        chunk = flat_z[start:start + _W_CHUNK]
        u = chunk * -1j
        u += _W_SCALE
        np.reciprocal(u, out=u)
        big_z = chunk * 1j
        big_z += _W_SCALE
        big_z *= u
        poly = np.full_like(u, _W_COEFFS[0])
        for coeff in _W_COEFFS[1:]:     # Horner, in place
            poly *= big_z
            poly += coeff
        poly *= u
        poly *= 2.0
        poly += 1.0 / _ROOT_PI
        np.multiply(poly, u, out=flat_out[start:start + _W_CHUNK])
    return out


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


def _line_poles(manifold: LineManifold, detunings, intensity):
    """The per-line kernel: (strength, a, zeta, p) for each line.

    The saturated single-line response (1 - i d) / (d^2 + 1 + s I) has
    simple poles at d = +-i a, a = sqrt(1 + s I) (the power-broadened
    width).  For real d the Gaussian average of the lower pole is the
    conjugate of the upper one, so one wofz call per line serves both:
    p = < 1/(zeta - v) > at zeta = d + i a (1/zeta at zero width).
    ``detunings`` (the frame of the line centres) and ``intensity``
    broadcast; both in gamma units.  The generator keeps no reference
    to a line once it is yielded.
    """
    width = manifold.doppler_width
    return (_line_pole(detunings - centre, strength, intensity, width)
            for centre, strength in manifold.lines)


def _line_pole(offsets, strength, intensity, width):
    """(strength, a, zeta, p) of one line, ``offsets`` from its centre."""
    a = np.sqrt(1.0 + strength * intensity)
    zeta = offsets + 1j * a
    if width == 0.0:
        p = 1.0 / zeta
    else:               # in place: no map-sized temporaries beside p
        p = zeta / width
        wofz(p, out=p)
        p *= -1j * _ROOT_PI
        p /= width
    return strength, a, zeta, p


def _response(a, p):
    """A line's averaged response from its upper-pole average p.

    With the residues r+- = -i (a +- 1) / (2 a) at d = +-i a and the
    lower pole's average conj(p), r+ conj(p) + r- p = -Im(p)/a - i Re(p)
    (real-linear in p).  No temporary the size of p is made.
    """
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(p)),
                   dtype=complex)
    np.divide(np.imag(p), np.negative(a), out=out.real)
    np.negative(np.real(p), out=out.imag)
    return out


def _kappa(poles, cooperativity: float):
    """Strength-weighted sum of the lines' averaged responses.

    A line's zeta is dropped on arrival and its p once its response is
    made, so at most three map-sized arrays are alive at a time.
    """
    total = None
    for strength, a, zeta, p in poles:
        del zeta
        term = _response(a, p)
        del p
        term *= strength * cooperativity / 2.0
        if total is None:
            total = term
        else:
            total += term
        del term
    return total


def composite_kappa(manifold: LineManifold, ens: EnsembleParams,
                    detunings: np.ndarray, intensity) -> np.ndarray:
    """Strength-weighted, Doppler-averaged kappa(0) over a detuning axis.

    Each line contributes with cooperativity C * strength and drive
    share I_x * strength; per-line saturation is independent (no
    cross-line optical pumping).  The saturated single-line response
    has two simple poles at +-i a (see ``_line_poles``), so its
    Gaussian average is evaluated exactly with the Faddeeva function;
    no quadrature error enters.  Detunings and intensity in gamma
    units; an intensity array broadcasts against the detunings.
    """
    detunings = np.asarray(detunings, dtype=float)
    return _kappa(_line_poles(manifold, detunings, intensity),
                  ens.cooperativity)


@dataclass(frozen=True)
class CompositeMaps:
    """Transmission and rotation maps over a (detuning, intensity) grid."""

    transmission: np.ndarray     # shape (n_det, n_int)
    psr_gl: np.ndarray           # same shape


def composite_spectrum(manifold: LineManifold, ens: EnsembleParams,
                       grid: SweepGrid, intensity_scale: float) -> CompositeMaps:
    """T and Gl maps over the sweep grid.

    ``intensity_scale`` converts mW to I_x in gamma^2 (the documented
    power-to-intensity assumption).  T = exp(-2 Re kappa_comp); the
    rotation map is -Im kappa_comp weighted by T (the polarimeter sees
    only transmitted light).
    """
    _require(intensity_scale > 0, "intensity_scale", "must be > 0")
    det_gamma = ghz_to_gamma(np.asarray(grid.detunings_ghz), ens.gamma_raw)
    kap = composite_kappa(manifold, ens, det_gamma[:, None],
                          intensity_scale * np.asarray(grid.intensities_mw))
    t_map = np.exp(-2.0 * kap.real)
    return CompositeMaps(transmission=t_map, psr_gl=-kap.imag * t_map)


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


def _fit_eval(manifold: LineManifold, ens: EnsembleParams,
              det_ghz: np.ndarray, intensity_mw: float, params: np.ndarray):
    """(t, gl, kappa, line poles) of the fit model at ``params``."""
    density_scale, offset, intensity_scale = params[:3]
    strengths = np.concatenate(([1.0], params[3:]))
    lines = tuple((c, s) for (c, _), s in zip(manifold.lines, strengths))
    man = LineManifold(lines=lines, doppler_width=manifold.doppler_width)
    det_gamma = ghz_to_gamma(det_ghz - offset, ens.gamma_raw)
    poles = list(_line_poles(man, det_gamma, intensity_scale * intensity_mw))
    kap = _kappa(poles, density_scale * ens.cooperativity)
    t = np.exp(-2.0 * kap.real)
    return t, -kap.imag * t, kap, poles


def _fit_model(manifold: LineManifold, ens: EnsembleParams,
               det_ghz: np.ndarray, intensity_mw: float,
               params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transmission and rotation traces of the fit model at ``params``."""
    return _fit_eval(manifold, ens, det_ghz, intensity_mw, params)[:2]


def _fit_jacobian(ens: EnsembleParams, width: float, intensity_mw: float,
                  params: np.ndarray, evaluation,
                  out: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """d t / d params and d gl / d params from one ``_fit_eval``.

    A line's average p(zeta) has p' = 2 (1 - zeta p) / width^2, the
    Faddeeva derivative w'(z) = 2i/sqrt(pi) - 2 z w(z) at z = zeta /
    width (-p^2 at zero width and far outside the Doppler core).  The
    chain runs through zeta = d + i a, a = sqrt(1 + s I), I =
    intensity scale * mW, d = (detuning - offset) in gamma units and
    the normalized strengths s = q / sum(q), q = (1, ratios).  Each
    line's response -Im(x)/a - i Re(x) (``_response``) is written out
    in real rows; for x = i p' it is -Re(p')/a + i Im(p').  The two
    results are the (n_params, n) views out[:, 0] and out[:, 1] of
    ``out`` (n_params, 2, n; made here if None).
    """
    t, _, kap, poles = evaluation
    density_scale, intensity = params[0], params[2] * intensity_mw
    half_c = density_scale * ens.cooperativity / 2.0
    if out is None:
        out = np.empty((params.size, 2, t.size))
    out[1:3] = 0.0
    d_re, d_im = out[:, 0], out[:, 1]       # d kappa / d params
    # d kappa / d s_k with the other s held fixed, one row per line
    g_re, g_im = np.empty((2, len(poles), t.size))
    for k, (strength, a, zeta, p) in enumerate(poles):
        if width == 0.0:
            dp = -(p * p)   # exact when cold; relative error 1/(2 |z|^2)
        else:               # 1 - zeta p cancels: relative error 2 eps |z|^2
            dp = zeta * p
            dp -= 1.0
            dp *= -2.0 / width**2
            # the largest |zeta| decides whether any point is that far out
            if np.hypot(np.abs(zeta.real).max(), a) > 5e3 * width:
                dp = np.where(np.abs(zeta) > 5e3 * width, -(p * p), dp)
        hcs = half_c * strength
        d_re[1] += dp.imag * (hcs / a)      # -d kappa / d detuning
        d_im[1] += dp.real * hcs
        # d kappa / d(s I): the residues' a-dependence, and p moving with i a
        si_re = p.imag / a
        si_re -= dp.real
        si_re *= hcs / (2.0 * a * a)
        si_im = dp.imag * (hcs / (2.0 * a))
        d_re[2] += si_re * (strength * intensity_mw)
        d_im[2] += si_im * (strength * intensity_mw)
        np.multiply(p.imag, -half_c / a, out=g_re[k])
        g_re[k] += si_re * intensity
        np.multiply(p.real, -half_c, out=g_im[k])
        g_im[k] += si_im * intensity
    np.divide(kap.real, density_scale, out=d_re[0])
    np.divide(kap.imag, density_scale, out=d_im[0])
    d_re[1] *= ghz_to_gamma(1.0, ens.gamma_raw)     # d kappa / d offset
    d_im[1] *= ghz_to_gamma(1.0, ens.gamma_raw)
    strengths = np.array([s for s, *_ in poles])
    q_sum = 1.0 + float(np.sum(params[3:]))
    np.divide(g_re[1:] - strengths @ g_re, q_sum, out=d_re[3:])
    np.divide(g_im[1:] - strengths @ g_im, q_sum, out=d_im[3:])
    d_re *= -2.0 * t                    # d t = -2 t Re(d kappa)
    d_im *= t
    for row_gl, row_t in zip(d_im, d_re):   # no (n_params, n) temporary
        row_gl += kap.imag * row_t
    np.negative(d_im, out=d_im)         # d gl = -t Im(d kappa) - Im(kappa) d t
    return d_re, d_im


_FIT_MAX_NFEV = 400
_ROUNDOFF = 4.0 * np.finfo(float).eps
# rows per QR slab: numpy copies a QR's input into a fresh buffer, and
# 2048 rows of up to six columns (96 KB) stay below glibc's mmap
# threshold; 6002 rows x 5 columns (240 KB) took about 60 page faults
# per call, more than half of its time
_QR_ROWS = 2048


def _triangle(rows: np.ndarray) -> np.ndarray:
    """The c x c triangle R of A = Q R, A = rows.T (``rows``: A's columns).

    A QR of each slab of ``_QR_ROWS`` rows, then one of the stacked
    c x c triangles: a tall-skinny QR (Demmel, Grigori, Hoemmen and
    Langou, SIAM J. Sci. Comput. 34, A206, 2012), as stable as one
    Householder QR.  R is unique up to the signs of its rows, and R^T R
    = A^T A either way.
    """
    slabs = [np.linalg.qr(rows[:, i:i + _QR_ROWS].T, mode="r")
             for i in range(0, rows.shape[1], _QR_ROWS)]
    return np.linalg.qr(np.vstack(slabs), mode="r")


def _lm_factor(tri: np.ndarray, free: np.ndarray, scale: np.ndarray):
    """(s, V^T, U^T r) of the thin SVD J_s = U diag(s) V^T.

    ``tri`` is the triangle of a QR of [J | r] (J's columns first):
    [J | r] = Q tri.  J_s holds the ``free`` columns of J divided by
    ``scale``.  Without active bounds, [J_s | r] = Q tri D^-1 with D =
    diag(scale, 1), and the SVD of its k x k triangle, tri[:k, :k]
    D^-1 = U_R diag(s) V^T, gives U = Q U_R and U^T r = U_R^T
    tri[:k, k]; otherwise the small QR of tri's free columns and r
    first gives the triangle of [J_free | r].  No m-row factor is
    formed.
    """
    if not free.all():
        tri = np.linalg.qr(tri[:, np.append(free, True)], mode="r")
    k = scale.size
    u_r, sv, vt = np.linalg.svd(tri[:k, :k] / scale)
    return sv, vt, u_r.T @ tri[:k, k]


def _bounded_lm(evaluate, jacobian, x, lo, hi, size):
    """min 0.5 |r(x)|^2 over lo <= x <= hi: a projected Levenberg-Marquardt.

    ``evaluate(x, out)`` writes the ``size`` residuals r(x) into
    ``out`` and returns a state; ``jacobian(x, state, out)`` writes
    dr/dx into ``out`` as rows, one per parameter, and is called only
    at accepted points.  Each step solves the damped Gauss-Newton
    problem in More's column scaling (J. J. More, Lecture Notes in
    Math. 630, 105, 1978) over the variables that no active bound
    holds, and clips the result into the box; the gain ratio of the
    clipped step updates the damping (Nielsen's rule).  It stops on
    roundoff: when the step's predicted reduction of the cost is below
    the cost's own rounding error, about eps |r|_1.

    One QR per accepted point, [J | r] = Q R (``_triangle``), serves
    the whole iteration: J^T r, J's column norms and every trial's J dx
    (through Q^T J dx = R dx) come from the small triangle R, and
    ``_lm_factor`` takes the step's SVD from it.  J and r are the rows
    of one buffer made once per call, and an accepted trial's residuals
    are copied into it.  Returns (x, r, J, residual evaluations);
    ``NumericalError`` with the best point after ``_FIT_MAX_NFEV``.
    """
    block = np.empty((x.size + 1, size))       # the rows of [J | r]
    jac, r = block[:-1], block[-1]
    r_trial = np.empty(size)
    state = evaluate(x, r)
    if not np.all(np.isfinite(r)):
        raise NumericalError("fit residuals are not finite",
                             {"best": x.tolist()})
    nfev = 1
    jacobian(x, state, jac)
    cost = 0.5 * (r @ r)
    col_scale = np.zeros_like(x)
    damping, growth = 1e-3, 2.0
    while True:
        tri = _triangle(block)
        tri_j, q_r = tri[:, :-1], tri[:, -1]    # Q^T J and Q^T r
        grad = q_r @ tri_j
        free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        col_scale = np.maximum(col_scale, np.linalg.norm(tri_j, axis=0))
        scale = np.where(col_scale > 0.0, col_scale, 1.0)[free]
        sv, vt, ur = _lm_factor(tri, free, scale)
        floor = _ROUNDOFF * np.abs(r).sum()
        while True:
            step = np.zeros_like(x)
            step[free] = -(vt.T @ (sv * ur / (sv * sv + damping))) / scale
            trial = np.clip(x + step, lo, hi)
            j_step = tri_j @ (trial - x)
            predicted = -(q_r @ j_step) - 0.5 * (j_step @ j_step)
            if not predicted > floor:
                return x, r, jac, nfev
            if nfev >= _FIT_MAX_NFEV:
                raise NumericalError(
                    f"fit did not converge in {nfev} evaluations",
                    {"best": x.tolist()})
            state = evaluate(trial, r_trial)
            nfev += 1
            cost_trial = 0.5 * (r_trial @ r_trial)
            gain = (cost - cost_trial) / predicted
            if gain > 1e-4:
                break
            damping *= growth
            growth *= 2.0
        damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        growth = 2.0
        x, cost = trial, cost_trial
        r[:] = r_trial
        jacobian(x, state, jac)


def fit(manifold_template: LineManifold, ens: EnsembleParams,
        det_ghz: np.ndarray, t_data: np.ndarray, gl_data: np.ndarray,
        intensity_mw: float, initial: dict | None = None) -> FitResult:
    """Least-squares fit of the composite model to measured traces.

    Free parameters: density scale (multiplies C), frequency offset
    (GHz), mW-to-I_x intensity scale, and the line strengths relative
    to the first line, each within fixed bounds that the initial guess
    must respect.  Deterministic for a fixed initial guess.  Requires
    at least 50 points and monotone detunings.  The residuals (the t
    and gl misfits, each scaled by its trace's largest |value|) and the
    exact Jacobian (``_fit_jacobian``) are written into buffers made
    once per fit; the Jacobian gives the covariance (J J^T)^-1 |r|^2 /
    (2 n - n_params) over the 2 n residuals.  ``n_eval`` counts
    residual evaluations.
    """
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
    _require(bool(np.all((lo <= x0) & (x0 <= hi))), "initial",
             f"initial guess {x0.tolist()} outside the fit bounds "
             f"[{lo.tolist()}, {hi.tolist()}]")

    t_scale = max(np.max(np.abs(t_data)), 1e-12)
    gl_scale = max(np.max(np.abs(gl_data)), 1e-12)

    n = det_ghz.size

    def evaluate(p, out):
        evaluation = _fit_eval(manifold_template, ens, det_ghz, intensity_mw,
                               p)
        t_mod, gl_mod = evaluation[:2]
        np.subtract(t_mod, t_data, out=out[:n])
        out[:n] /= t_scale
        np.subtract(gl_mod, gl_data, out=out[n:])
        out[n:] /= gl_scale
        return evaluation

    def jacobian(p, evaluation, out):
        # out (rows [d t | d gl]) is C-contiguous: the reshape is a view
        d_t, d_gl = _fit_jacobian(ens, manifold_template.doppler_width,
                                  intensity_mw, p, evaluation,
                                  out.reshape(p.size, 2, n))
        d_t /= t_scale
        d_gl /= gl_scale

    x, r, jac, nfev = _bounded_lm(evaluate, jacobian, x0, lo, hi, 2 * n)
    dof = max(r.size - x.size, 1)
    try:
        cov = np.linalg.inv(jac @ jac.T) * (r @ r) / dof
    except np.linalg.LinAlgError:
        cov = np.full((x.size, x.size), np.nan)
    rms = float(np.sqrt(np.mean(r**2)))
    return FitResult(density_scale=float(x[0]), freq_offset_ghz=float(x[1]),
                     intensity_scale=float(x[2]),
                     strength_ratios=tuple(float(v) for v in x[3:]),
                     covariance=cov, rms_residual=rms, n_eval=nfev)
