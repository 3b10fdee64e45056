import math

import mpmath
import numpy as np
import pytest
from conftest import (complex_stack_fit_jacobian, doppler_average,
                      finite_difference_fit, svd_fit, svd_step_factor,
                      thermal_doppler_width_ghz, two_wofz_composite_kappa)
from hypothesis import given, settings
from hypothesis import strategies as st

from psrsim import ensemble
from psrsim.core import EnsembleParams, NumericalError, ValidationError

GAMMA_D2 = 2 * math.pi * 3.033e6
GAMMA_D1 = 2 * math.pi * 2.875e6


def ghz_to_gamma(x, gamma_raw):
    return x * 1e9 * 2 * math.pi / gamma_raw


def d2_manifold(gamma_raw=GAMMA_D2, width_ghz=0.3293):
    conv = lambda x: ghz_to_gamma(x, gamma_raw)
    return ensemble.LineManifold(
        lines=((0.0, 0.70), (conv(-0.2669), 0.25), (conv(-0.4237), 0.05)),
        doppler_width=conv(width_ghz))


def d1_manifold(gamma_raw=GAMMA_D1, width_ghz=0.3232):
    conv = lambda x: ghz_to_gamma(x, gamma_raw)
    return ensemble.LineManifold(
        lines=((0.0, 0.25), (conv(0.8145), 0.75)),
        doppler_width=conv(width_ghz))


def _log_uniform(rng, lo, hi, n):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)


def _wofz_points():
    """Upper half-plane points: the maps' region, a wide region, Im z up
    to 1e4 (width 0.5, I_x = 1e6) and |z| up to 1e8 (the asymptote
    i / (sqrt(pi) z)); real parts of both signs."""
    rng = np.random.default_rng(11)
    sign = lambda n: rng.choice((-1.0, 1.0), n)
    regions = [(rng.uniform(-10.0, 10.0, 400), _log_uniform(rng, 3e-3, 1.0,
                                                            400)),
               (sign(600) * _log_uniform(rng, 1e-3, 1e4, 600),
                _log_uniform(rng, 1e-6, 1e3, 600)),
               (sign(200) * _log_uniform(rng, 1e-3, 1e4, 200),
                _log_uniform(rng, 1e3, 1e4, 200)),
               (sign(200) * _log_uniform(rng, 1e4, 1e8, 200),
                _log_uniform(rng, 1e-6, 1e8, 200)),
               (np.zeros(3), np.array([0.0, 1e-3, 1.0])),
               (np.array([-3.0, 5e3, 1e8]), np.zeros(3))]
    return np.concatenate([re + 1j * im for re, im in regions])


def test_wofz_matches_mpmath():
    z = _wofz_points()
    with mpmath.workdps(40):
        ref = np.array([complex(mpmath.exp(-mpmath.mpc(v) ** 2)
                                * mpmath.erfc(-1j * mpmath.mpc(v)))
                        for v in z.tolist()])
    got = ensemble.wofz(z)
    assert (np.abs(got - ref) / np.abs(ref)).max() <= 4e-15
    # in place over a 2-D array of more than one chunk: the same values
    grid = np.resize(z, (z.size, 3))
    assert ensemble.wofz(grid, out=grid) is grid
    assert grid.tobytes() == np.resize(got, grid.shape).tobytes()


def test_manifold_normalizes_strengths():
    man = ensemble.LineManifold(lines=((0.0, 2.0), (5.0, 6.0)))
    assert sum(s for _, s in man.lines) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValidationError):
        ensemble.LineManifold(lines=())
    with pytest.raises(ValidationError):
        ensemble.LineManifold(lines=((0.0, -1.0),))
    with pytest.raises(ValidationError):
        ensemble.LineManifold(lines=((0.0, 1.0),), doppler_width=-2.0)


def test_sweep_grid_validation():
    ensemble.SweepGrid(detunings_ghz=(-1.0, 0.0, 1.0),
                       intensities_mw=(1.0, 2.0))
    with pytest.raises(ValidationError):
        ensemble.SweepGrid(detunings_ghz=(1.0, 1.0), intensities_mw=(1.0,))


def test_doppler_average_zero_width_is_identity():
    man = ensemble.LineManifold(lines=((0.0, 1.0),), doppler_width=0.0)
    val = doppler_average(lambda x: 3.5 + x, man)
    assert val == pytest.approx(3.5, rel=1e-15)


def test_doppler_average_normalization():
    man = ensemble.LineManifold(lines=((0.0, 1.0),), doppler_width=7.0)
    val = doppler_average(lambda x: np.ones_like(x), man)
    assert val == pytest.approx(1.0, rel=1e-14)


def test_doppler_average_is_linear():
    man = ensemble.LineManifold(lines=((0.0, 1.0),), doppler_width=4.0)
    f = lambda x: 1.0 / (1.0 + (x - 2.0) ** 2)
    g = lambda x: np.exp(-((x / 5.0) ** 2))
    a, b = 1.7, -0.4
    lhs = doppler_average(lambda x: a * f(x) + b * g(x), man)
    rhs = a * doppler_average(f, man) + b * doppler_average(g, man)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_voigt_profile_against_brute_force_convolution():
    """Lorentzian absorption under Doppler blur vs direct convolution."""
    width = 10.0
    man = ensemble.LineManifold(lines=((0.0, 1.0),), doppler_width=width)
    detunings = np.linspace(-40.0, 40.0, 81)

    def lorentz(d):
        return 1.0 / (1.0 + d * d)

    voigt = np.array([doppler_average(
        lambda x: lorentz(d0 - x), man) for d0 in detunings])
    # dense direct convolution with the Gaussian weight
    v = np.linspace(-8 * width, 8 * width, 40001)
    wts = np.exp(-(v / width) ** 2)
    wts /= wts.sum()
    brute = np.array([(lorentz(d0 - v) * wts).sum() for d0 in detunings])
    assert np.abs(voigt - brute).max() < 1e-4 * brute.max()
    # the blurred line is wider than both ingredients
    half = voigt.max() / 2.0
    above = detunings[voigt >= half]
    fwhm = above.max() - above.min()
    assert fwhm > width


def test_doppler_average_convergence_guard():
    man = ensemble.LineManifold(lines=((0.0, 1.0),), doppler_width=100.0)
    spike = lambda x: 1.0 / (1e-8 + (x - 17.123) ** 2)
    with pytest.raises(NumericalError):
        doppler_average(spike, man)


def test_composite_far_detuned_is_transparent():
    ens = EnsembleParams.from_cooperativity(100.0, gamma_raw=GAMMA_D2)
    man = ensemble.LineManifold(lines=((0.0, 1.0),), doppler_width=0.0)
    grid = ensemble.SweepGrid(detunings_ghz=(5.0,), intensities_mw=(1.0,))
    maps = ensemble.composite_spectrum(man, ens, grid, intensity_scale=100.0)
    assert maps.transmission[0, 0] > 0.9999
    # residual dispersion tail ~ C/(2 Delta), tiny against the ~C/2 peak
    assert abs(maps.psr_gl[0, 0]) < 1e-3 * ens.cooperativity


def test_composite_gl_odd_about_isolated_line():
    """Cold, weakly driven single line: dispersion-shaped, odd in detuning."""
    ens = EnsembleParams.from_cooperativity(1.0, gamma_raw=GAMMA_D2)
    man = ensemble.LineManifold(lines=((0.0, 1.0),), doppler_width=0.0)
    det = np.linspace(-5.0, 5.0, 41)  # gamma units
    kap = ensemble.composite_kappa(man, ens, det, 1e-6)
    gl = -kap.imag * np.exp(-2 * kap.real)
    assert np.abs(gl + gl[::-1]).max() < 1e-6 * np.abs(gl).max()


def test_broadening_never_raises_single_line_peak():
    ens = EnsembleParams.from_cooperativity(100.0, gamma_raw=GAMMA_D2)
    det = np.linspace(-60.0, 60.0, 1201)
    peaks = []
    for width in (0.0, 1.0, 3.0, 10.0, 30.0):
        man = ensemble.LineManifold(lines=((0.0, 1.0),),
                                    doppler_width=width)
        kap = ensemble.composite_kappa(man, ens, det, 1.0)
        gl = -kap.imag * np.exp(-2 * kap.real)
        peaks.append(np.abs(gl).max())
    assert all(b <= a + 1e-12 for a, b in zip(peaks, peaks[1:]))


def test_d1_composite_has_two_comparable_psr_bands():
    ens = EnsembleParams.from_cooperativity(2000.0, gamma_raw=GAMMA_D1)
    man = d1_manifold()
    det = np.linspace(-0.8, 1.6, 151)
    grid = ensemble.SweepGrid(detunings_ghz=tuple(det), intensities_mw=(22.3,))
    maps = ensemble.composite_spectrum(man, ens, grid, intensity_scale=400.0)
    gl = maps.psr_gl[:, 0]
    band1 = np.abs(gl[det < 0.4]).max()
    band2 = np.abs(gl[det >= 0.4]).max()
    assert 0.8 <= band1 / band2 <= 1.25
    # the two transmission dips are comparable as well
    t = maps.transmission[:, 0]
    dip1 = 1.0 - t[det < 0.4].min()
    dip2 = 1.0 - t[det >= 0.4].min()
    assert 0.8 <= dip1 / dip2 <= 1.25


def test_d2_composite_suppresses_negative_detuning_psr():
    ens = EnsembleParams.from_cooperativity(6000.0, gamma_raw=GAMMA_D2)
    man = d2_manifold()
    det = np.linspace(-1.5, 1.5, 151)
    grid = ensemble.SweepGrid(detunings_ghz=tuple(det), intensities_mw=(30.0,))
    maps = ensemble.composite_spectrum(man, ens, grid, intensity_scale=160.0)
    gl = maps.psr_gl[:, 0]
    pos = np.abs(gl[det > 0]).max()
    neg = np.abs(gl[det < 0]).max()
    assert pos > 1.05 * neg


def test_composite_magnitudes_match_cell_scale():
    """Peak Gl near 10 and deep low-power absorption on the strong line."""
    ens = EnsembleParams.from_cooperativity(6000.0, gamma_raw=GAMMA_D2)
    man = d2_manifold()
    grid = ensemble.SweepGrid(
        detunings_ghz=tuple(np.linspace(-1.5, 1.5, 151)),
        intensities_mw=(8.0, 30.0))
    maps = ensemble.composite_spectrum(man, ens, grid, intensity_scale=160.0)
    assert maps.transmission[:, 0].min() < 0.10
    assert 8.0 <= np.abs(maps.psr_gl).max() <= 16.0


def synthetic_traces(noise=0.0, seed=0):
    ens = EnsembleParams.from_cooperativity(2000.0, gamma_raw=GAMMA_D1)
    man = d1_manifold()
    det = np.linspace(-0.7, 1.55, 140)
    truth = np.array([1.18, 0.035, 320.0, 2.4])
    t_mod, gl_mod = ensemble._fit_model(man, ens, det, 22.3, truth)
    rng = np.random.default_rng(seed)
    t_data = t_mod * (1.0 + noise * rng.standard_normal(det.size))
    gl_data = gl_mod * (1.0 + noise * rng.standard_normal(det.size))
    return man, ens, det, t_data, gl_data, truth


def test_fit_zero_noise_recovers_exactly():
    man, ens, det, t_data, gl_data, truth = synthetic_traces(0.0)
    res = ensemble.fit(man, ens, det, t_data, gl_data, 22.3,
                       {"intensity_scale": 280.0})
    assert res.rms_residual < 1e-8
    fitted = [res.density_scale, res.freq_offset_ghz, res.intensity_scale,
              res.strength_ratios[0]]
    assert np.allclose(fitted, truth, rtol=1e-4, atol=1e-6)


def test_fit_recovers_parameters_through_noise():
    man, ens, det, t_data, gl_data, truth = synthetic_traces(0.01, seed=1)
    res = ensemble.fit(man, ens, det, t_data, gl_data, 22.3,
                       {"intensity_scale": 280.0})
    fitted = np.array([res.density_scale, res.freq_offset_ghz,
                       res.intensity_scale, res.strength_ratios[0]])
    rel = np.abs(fitted - truth) / np.maximum(np.abs(truth), 0.05)
    assert rel.max() < 0.05


def test_fit_of_seed_one_preset_trace_takes_at_most_13_evaluations():
    """The seeded D1 fit of the CLI benchmark (seed 1, 151 detunings, 1%
    noise): the trace is made as the benchmark makes it (line centres
    scaled by 2 pi 1e9 / gamma) and fitted as ``psr-sim fit`` fits it.
    scipy's trust-region solver took 13 evaluations here."""
    rng = np.random.default_rng(1)
    truth = np.array([rng.uniform(0.85, 1.2), rng.uniform(-0.04, 0.04),
                      rng.uniform(250.0, 450.0), rng.uniform(2.2, 3.6)])
    gamma_raw = 1.8062e7
    ens = EnsembleParams.from_cooperativity(2000.0, gamma_raw=gamma_raw,
                                            temperature=345.0)
    conv = 1e9 * 2.0 * math.pi / gamma_raw
    bench_man = ensemble.LineManifold(
        lines=((0.0, 0.25), (0.8145 * conv, 0.75)),
        doppler_width=0.3232 * conv)
    det = np.linspace(-0.8, 1.6, 151)
    t, gl = ensemble._fit_model(bench_man, ens, det, 22.3, truth)
    t = t * (1.0 + 0.01 * rng.standard_normal(det.size))
    gl = gl * (1.0 + 0.01 * rng.standard_normal(det.size))
    res = ensemble.fit(d1_manifold(gamma_raw=gamma_raw), ens, det, t, gl,
                       22.3, {"intensity_scale": 300.0})
    assert res.n_eval <= 13
    fitted = np.array([res.density_scale, res.freq_offset_ghz,
                       res.intensity_scale, res.strength_ratios[0]])
    assert (np.abs(fitted - truth) / np.maximum(np.abs(truth), 0.05)).max() \
        < 0.05


@pytest.mark.parametrize("ratio,bound", [(1e-4, 1e-3), (5e3, 1e3)])
def test_fit_stops_on_a_bound_the_truth_lies_beyond(ratio, bound):
    ens = EnsembleParams.from_cooperativity(2000.0, gamma_raw=GAMMA_D1)
    man = d1_manifold()
    det = np.linspace(-0.7, 1.55, 140)
    truth = np.array([1.18, 0.035, 320.0, ratio])
    t_data, gl_data = ensemble._fit_model(man, ens, det, 22.3, truth)
    res = ensemble.fit(man, ens, det, t_data, gl_data, 22.3,
                       {"intensity_scale": 280.0})
    assert res.strength_ratios == (bound,)
    fitted = np.array([res.density_scale, res.freq_offset_ghz,
                       res.intensity_scale])
    assert (np.abs(fitted - truth[:3])
            / np.maximum(np.abs(truth[:3]), 0.05)).max() < 0.02


@pytest.mark.parametrize("ratio", [1e-4, 5e3])
def test_fit_equals_svd_loop_at_an_active_bound(ratio):
    """With the strength ratio held at a bound (the truth lies beyond
    it), the QR loop takes the same evaluations as the SVD loop."""
    ens = EnsembleParams.from_cooperativity(2000.0, gamma_raw=GAMMA_D1)
    man = d1_manifold()
    det = np.linspace(-0.7, 1.55, 140)
    truth = np.array([1.18, 0.035, 320.0, ratio])
    t_data, gl_data = ensemble._fit_model(man, ens, det, 22.3, truth)
    initial = {"intensity_scale": 280.0}
    res = ensemble.fit(man, ens, det, t_data, gl_data, 22.3, initial)
    ref_x, ref_nfev = svd_fit(man, ens, det, t_data, gl_data, 22.3, initial)
    assert res.n_eval == ref_nfev
    fitted = np.array([res.density_scale, res.freq_offset_ghz,
                       res.intensity_scale, *res.strength_ratios])
    scale = np.abs(ref_x)
    scale[1] = 0.05
    assert (np.abs(fitted - ref_x) / scale).max() <= 1e-10


def test_fit_rejects_a_start_outside_the_bounds_and_non_finite_data():
    man, ens, det, t_data, gl_data, _ = synthetic_traces(0.0)
    with pytest.raises(ValidationError, match="outside the fit bounds"):
        ensemble.fit(man, ens, det, t_data, gl_data, 22.3,
                     {"density_scale": 2e3})
    t_data[7] = np.nan
    with pytest.raises(NumericalError, match="not finite"):
        ensemble.fit(man, ens, det, t_data, gl_data, 22.3)


def test_fit_requires_enough_points():
    man, ens, det, t_data, gl_data, _ = synthetic_traces(0.0)
    with pytest.raises(ValidationError):
        ensemble.fit(man, ens, det[:20], t_data[:20], gl_data[:20], 22.3)


# (manifold, gamma_raw); "narrow" is 1 kHz wide, so the detunings lie up
# to 1.6e6 Doppler widths out
MANIFOLDS = {"d1": (d1_manifold(), GAMMA_D1), "d2": (d2_manifold(), GAMMA_D2),
             "cold": (d1_manifold(width_ghz=0.0), GAMMA_D1),
             "narrow": (d1_manifold(width_ghz=1e-6), GAMMA_D1)}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(MANIFOLDS)),
       density=st.floats(0.01, 10.0), offset=st.floats(-0.9, 0.9),
       scale=st.floats(1.0, 1e4),
       ratios=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=2))
def test_fit_jacobian_matches_central_differences(name, density, offset,
                                                  scale, ratios):
    man, gamma_raw = MANIFOLDS[name]
    ens = EnsembleParams.from_cooperativity(2000.0, gamma_raw=gamma_raw)
    det = np.linspace(-1.5, 1.6, 400)
    params = np.array([density, offset, scale]
                      + ratios[:len(man.lines) - 1])
    evaluation = ensemble._fit_eval(man, ens, det, 22.3, params)
    jac = np.concatenate(ensemble._fit_jacobian(
        ens, man.doppler_width, 22.3, params, evaluation), axis=1)

    def central(k, h):
        up, down = params.copy(), params.copy()
        up[k] += h
        down[k] -= h
        return (np.concatenate(ensemble._fit_model(man, ens, det, 22.3, up))
                - np.concatenate(ensemble._fit_model(man, ens, det, 22.3,
                                                     down))) / (2.0 * h)

    for k in range(params.size):
        h = 1e-4 * max(abs(params[k]), 1e-2)
        fd = (4.0 * central(k, h / 2.0) - central(k, h)) / 3.0  # Richardson
        assert np.abs(fd - jac[k]).max() <= 1e-6 * np.abs(jac[k]).max()


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_fit_jacobian_equals_complex_stack_oracle(name):
    """The real-row Jacobian against the complex-stack one, row by row,
    at random parameters (the narrow manifold's points lie both inside
    and far outside its Doppler core)."""
    man, gamma_raw = MANIFOLDS[name]
    ens = EnsembleParams.from_cooperativity(2000.0, gamma_raw=gamma_raw)
    det = np.linspace(-1.5, 1.6, 400)
    rng = np.random.default_rng(17)
    for _ in range(10):
        params = np.concatenate((
            [10.0 ** rng.uniform(-2.0, 1.0), rng.uniform(-0.9, 0.9),
             10.0 ** rng.uniform(0.0, 4.0)],
            10.0 ** rng.uniform(-2.0, 1.0, len(man.lines) - 1)))
        evaluation = ensemble._fit_eval(man, ens, det, 22.3, params)
        new = np.concatenate(ensemble._fit_jacobian(
            ens, man.doppler_width, 22.3, params, evaluation), axis=1)
        old = np.concatenate(complex_stack_fit_jacobian(
            ens, man.doppler_width, 22.3, params, evaluation)).T
        assert new.shape == old.shape == (params.size, 2 * det.size)
        assert (np.abs(new - old).max(axis=1)
                <= 1e-13 * np.abs(old).max(axis=1)).all()


@pytest.mark.parametrize("cond", [None, 1e8])
def test_lm_factor_equals_svd_step(cond):
    """The step from one QR of [J | r] (three slabs of rows) against the
    step from the SVD of the scaled free columns, with and without
    active bounds, over the dampings a fit visits.  Compared through
    J_free: below a damping of about 1e-6 the step itself is
    ill-conditioned at condition 1e8, and any two backward-stable
    factorizations part by ~cond eps there.  J^T r and the column norms
    taken from the triangle agree too."""
    rng = np.random.default_rng(23)
    for _ in range(10):
        m, n_par = 2 * ensemble._QR_ROWS + 300, 5
        if cond is None:
            jac = rng.standard_normal((n_par, m))
        else:
            u, _ = np.linalg.qr(rng.standard_normal((m, n_par)))
            v, _ = np.linalg.qr(rng.standard_normal((n_par, n_par)))
            jac = (u * np.geomspace(1.0, 1.0 / cond, n_par) @ v.T).T
        jac *= 10.0 ** rng.uniform(-3.0, 3.0, (n_par, 1))
        r = rng.standard_normal(m)
        tri = ensemble._triangle(np.vstack((jac, r)))
        grad = tri[:, -1] @ tri[:, :-1]
        assert np.abs(grad - jac @ r).max() <= 1e-12 * np.abs(jac @ r).max()
        norms = np.linalg.norm(jac, axis=1)
        assert np.allclose(np.linalg.norm(tri[:, :-1], axis=0), norms,
                           rtol=1e-14, atol=0.0)
        for free in (np.ones(n_par, bool),
                     np.array([True, False, True, True, False]),
                     np.array([False, True, True, True, True])):
            scale = norms[free]
            new = ensemble._lm_factor(tri, free, scale)
            old = svd_step_factor(jac.T, r, free, scale)
            for damping in (1e-6, 1e-3, 1.0, 1e3):
                steps = [vt.T @ (sv * ur / (sv * sv + damping)) / scale
                         for sv, vt, ur in (new, old)]
                j_old = steps[1] @ jac[free]
                assert (np.linalg.norm((steps[0] - steps[1]) @ jac[free])
                        <= 1e-12 * np.linalg.norm(j_old))
                if cond is None:    # well-conditioned: the steps themselves
                    assert (np.abs(steps[0] - steps[1]).max()
                            <= 1e-12 * np.abs(steps[1]).max())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fit_equals_svd_loop_on_benchmark_traces(seed):
    """The first two fits of the fit-traces benchmark at ``seed`` (3001
    D1 detunings, 1% noise, traces made as the benchmark makes them):
    the QR loop against the complex-stack Jacobian and SVD loop."""
    rng = np.random.default_rng(seed)
    gamma_raw = 1.8062e7
    conv = 1e9 * 2.0 * math.pi / gamma_raw
    man = ensemble.LineManifold(lines=((0.0, 0.25), (0.8145 * conv, 0.75)),
                                doppler_width=0.3232 * conv)
    ens = EnsembleParams.from_cooperativity(2000.0, gamma_raw=gamma_raw)
    det = np.linspace(-0.8, 1.6, 3001)
    for _ in range(2):
        truth = np.array([rng.uniform(0.85, 1.2), rng.uniform(-0.04, 0.04),
                          rng.uniform(250.0, 450.0), rng.uniform(2.2, 3.6)])
        t, gl = ensemble._fit_model(man, ens, det, 22.3, truth)
        t = t * (1.0 + 0.01 * rng.standard_normal(det.size))
        gl = gl * (1.0 + 0.01 * rng.standard_normal(det.size))
        initial = {"intensity_scale": 300.0}
        res = ensemble.fit(man, ens, det, t, gl, 22.3, initial)
        ref_x, ref_nfev = svd_fit(man, ens, det, t, gl, 22.3, initial)
        assert res.n_eval == ref_nfev
        fitted = np.array([res.density_scale, res.freq_offset_ghz,
                           res.intensity_scale, *res.strength_ratios])
        scale = np.abs(ref_x)
        scale[1] = 0.05
        assert (np.abs(fitted - ref_x) / scale).max() <= 1e-10


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_composite_kappa_equals_two_wofz_oracle_bit_for_bit(name):
    base, gamma_raw = MANIFOLDS[name]
    ens = EnsembleParams.from_cooperativity(3000.0, gamma_raw=gamma_raw)
    rng = np.random.default_rng(5)
    det = np.sort(rng.uniform(-600.0, 600.0, 501))
    for width in (base.doppler_width, 0.5, 40.0):
        man = ensemble.LineManifold(lines=base.lines, doppler_width=width)
        for intensity in (0.0, 2.5, 7.0e3, float(rng.uniform(0.0, 1e6))):
            new = ensemble.composite_kappa(man, ens, det, intensity)
            old = two_wofz_composite_kappa(man, ens, det, intensity)
            assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_composite_spectrum_equals_per_column_kappa(name):
    man, gamma_raw = MANIFOLDS[name]
    ens = EnsembleParams.from_cooperativity(4000.0, gamma_raw=gamma_raw)
    grid = ensemble.SweepGrid(
        detunings_ghz=tuple(np.linspace(-1.5, 1.6, 301)),
        intensities_mw=(0.5, 1.0, 3.0, 8.0, 22.3, 45.0))
    maps = ensemble.composite_spectrum(man, ens, grid, intensity_scale=250.0)
    det = ghz_to_gamma(np.asarray(grid.detunings_ghz), gamma_raw)
    for j, mw in enumerate(grid.intensities_mw):
        kap = ensemble.composite_kappa(man, ens, det, 250.0 * mw)
        t_col = np.exp(-2.0 * kap.real)
        assert maps.transmission[:, j].tobytes() == t_col.tobytes()
        assert maps.psr_gl[:, j].tobytes() == (-kap.imag * t_col).tobytes()


@pytest.mark.parametrize("noise,seed", [(0.0, 0), (0.01, 1), (0.03, 2)])
def test_fit_matches_finite_difference_oracle(noise, seed):
    man, ens, det, t_data, gl_data, _ = synthetic_traces(noise, seed)
    initial = {"intensity_scale": 280.0}
    res = ensemble.fit(man, ens, det, t_data, gl_data, 22.3, initial)
    ref_x, ref_rms = finite_difference_fit(man, ens, det, t_data, gl_data,
                                           22.3, initial)
    fitted = np.array([res.density_scale, res.freq_offset_ghz,
                       res.intensity_scale, *res.strength_ratios])
    scale = np.abs(ref_x)
    scale[1] = 0.05
    assert (np.abs(fitted - ref_x) / scale).max() < 1e-7
    if noise:
        assert abs(res.rms_residual - ref_rms) <= 1e-10 * ref_rms
    else:
        assert res.rms_residual < 1e-8 and ref_rms < 1e-8


def test_doppler_width_helper_matches_manifold_inputs():
    # the D1 presets' doppler_width_ghz: 87Rb at 345 K, 795 nm
    width_ghz = thermal_doppler_width_ghz(345.0, 794.979e-9)
    assert 0.3232 == pytest.approx(width_ghz, rel=0.02)
