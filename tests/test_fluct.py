from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from conftest import (diffusion, exact_a_coef, exact_b_coef, exact_lambda,
                      exact_lambda_prime, excess, gram, kernel,
                      langevin_coeffs, limit_low_sideband)

from psrsim import bloch, fluct
from psrsim.core import (DriveParams, EnsembleParams, NumericalError,
                         ValidationError)

ENS = EnsembleParams.from_cooperativity(100.0)
THETAS = np.linspace(0.0, np.pi, 61)


def drift_no_transit(ens, drive, omega):
    r = fluct.response(ens, drive, omega)
    return r.drift, -r.kappa


def test_response_identities_at_zero_sideband():
    """Exactly, also at I_x = 24.5, where D(0) x (1/D(0)) = 1 - 1 ulp."""
    for ix in (3.0, 24.5):
        r = fluct.response(ENS, DriveParams(intensity=ix, detuning=2.0), 0.0)
        assert r.lam == 1.0
        assert r.lam_prime == 0.0
        assert r.kappa == r.kappa0
        assert r.drift == 0.0
        assert r.gamma == r.kappa0


def test_response_vanishing_drive_kills_cross_kerr():
    d = DriveParams(intensity=0.0, detuning=2.0)
    for w in (0.3, 1.0, 7.0):
        r = fluct.response(ENS, d, w)
        assert r.lam == 0.0
        assert r.kappa == 0.0


def test_response_structure_identities():
    d = DriveParams(intensity=5.0, detuning=-3.0)
    for w in (0.1, 1.0, 10.0):
        r = fluct.response(ENS, d, w)
        assert r.kappa == r.kappa0 * r.lam
        assert r.drift == -np.conj(r.kappa0) * r.lam_prime
        assert r.gamma == r.kappa - r.drift


def test_response_rejects_negative_sideband():
    with pytest.raises(ValidationError):
        fluct.response(ENS, DriveParams(intensity=1.0, detuning=1.0), -1.0)


def test_langevin_coefficients_at_zero_sideband():
    d = DriveParams(intensity=2.5, detuning=4.0)
    a_coef, b_coef = langevin_coeffs(ENS, d, 0.0)
    assert a_coef == 0.0
    assert b_coef == pytest.approx(0.5, rel=1e-14)  # 1/(2 gamma)


def test_formulas_match_exact_rational_evaluation():
    """Float evaluation vs exact rational arithmetic of the same formulas."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(40):
        ix = Fraction(int(rng.integers(1, 2000)), int(rng.integers(1, 50)))
        de = Fraction(int(rng.integers(-500, 500)), int(rng.integers(1, 20)))
        w = Fraction(int(rng.integers(1, 300)), int(rng.integers(1, 30)))
        d = DriveParams(intensity=float(ix), detuning=float(de))
        r = fluct.response(ENS, d, float(w))
        a_coef, b_coef = langevin_coeffs(ENS, d, float(w))
        for got, exact in (
                (r.lam, exact_lambda(ix, de, w)),
                (r.lam_prime, exact_lambda_prime(ix, de, w)),
                (a_coef, exact_a_coef(ix, de, w)),
                (b_coef, exact_b_coef(ix, de, w))):
            ref = exact.to_complex()
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-30))
    assert worst < 1e-12


def test_langevin_example_point_exact():
    # omega = gamma, Delta = 0, I_x = gamma^2
    a_coef, b_coef = langevin_coeffs(
        ENS, DriveParams(intensity=1.0, detuning=0.0), 1.0)
    a_ref = exact_a_coef(Fraction(1), Fraction(0), Fraction(1)).to_complex()
    b_ref = exact_b_coef(Fraction(1), Fraction(0), Fraction(1)).to_complex()
    assert abs(a_coef - a_ref) <= 1e-12 * abs(a_ref)
    assert abs(b_coef - b_ref) <= 1e-12 * abs(b_ref)


def test_diffusion_table_is_hermitian_psd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = 10.0 ** rng.uniform(-2, 2)
        de = rng.uniform(-30.0, 30.0)
        d = DriveParams(intensity=s * (1 + de * de), detuning=de)
        g = gram(diffusion(d))
        assert g.shape == (4, 4)
        assert np.array_equal(g, g.conj().T)
        assert np.linalg.eigvalsh(g).min() >= -1e-15


def test_diffusion_zero_drive_has_no_excess_noise():
    d = DriveParams(intensity=0.0, detuning=2.0)
    diff = diffusion(d)
    # no excitation: normally ordered (excess) correlators all vanish
    assert np.abs(excess(diff)).max() < 1e-13
    # the ordered table keeps the vacuum inflow that balances absorption
    assert gram(diff)[fluct.FY, fluct.FY].real > 0.4


def test_spectrum_identity_without_atoms():
    ens0 = EnsembleParams.from_cooperativity(0.0)
    spec = fluct.propagate_noise(ens0, DriveParams(intensity=4.0,
                                                   detuning=1.0),
                                 [0.0, 0.5, 3.0], THETAS)
    assert np.abs(spec.values - 1.0).max() < 1e-12


def test_spectrum_identity_with_undriven_atoms():
    """Passive absorption refills vacuum exactly: S stays at the QNL."""
    spec = fluct.propagate_noise(ENS, DriveParams(intensity=1e-12,
                                                  detuning=1.5),
                                 [0.2, 1.0, 5.0], THETAS)
    assert np.abs(spec.values - 1.0).max() < 1e-9


@pytest.mark.parametrize("kw", [{"include_noise": False},
                                {"truncate_dephasing": True}])
def test_negative_variance_raises_without_the_uncertainty_gate(kw):
    """An inadmissible covariance (iso 0.1, |anom| 0.5: S_min = -0.9) is
    an error, not a spectrum clamped to 0, when the uncertainty gate
    is off."""
    def inadmissible(gen, _src):
        """Maps that send any input to these covariances."""
        sig = np.zeros_like(gen)
        sig[0, 1] = sig[1, 0] = 0.05
        sig[1, 1] = 0.5
        return np.zeros_like(gen), sig

    with mock.patch.object(fluct, "_transport", inadmissible), \
            pytest.raises(NumericalError,
                          match="negative quadrature variance") as exc:
        fluct.propagate_noise(ENS, DriveParams(intensity=3.0, detuning=2.0),
                              [0.5, 1.0], THETAS, **kw)
    assert exc.value.point == {"detuning": 2.0, "omega": 0.5}


def test_commutator_preserved_at_random_points():
    rng = np.random.default_rng(11)
    count = 0
    while count < 12:
        c = 10.0 ** rng.uniform(0.0, 2.3)
        s = 10.0 ** rng.uniform(-2.0, 2.0)
        de = rng.uniform(-30.0, 30.0)
        w = 10.0 ** rng.uniform(-1.5, 1.2)
        ens = EnsembleParams.from_cooperativity(c)
        drive = DriveParams(intensity=s * (1 + de * de), detuning=de)
        m = kernel(ens, drive, [w])[0][0]
        if np.abs(m).sum() > 20.0:  # keep propagation exponents testable
            continue
        count += 1
        assert fluct.commutator_residual(ens, drive, w) < 1e-8


def test_cross_kerr_alone_squeezes():
    """No Langevin sources, dephasing stripped: the kappa term squeezes."""
    d = DriveParams(intensity=2500.0, detuning=50.0)
    spec = fluct.propagate_noise(ENS, d, [1.0], THETAS,
                                 include_noise=False, truncate_dephasing=True)
    assert spec.s_min[0] < 0.995
    assert spec.s_min[0] * spec.s_max[0] == pytest.approx(1.0, abs=1e-6)


def test_hot_vapour_noise_floods_all_quadratures():
    ens = EnsembleParams.from_cooperativity(15.0)
    d = DriveParams(intensity=1000.0, detuning=1.0)
    spec = fluct.propagate_noise(ens, d, [1.0 / 6.0, 0.5, 1.0], THETAS)
    assert (spec.s_min > 1.0).all()


def test_cold_offresonant_point_squeezes():
    ens = EnsembleParams.from_cooperativity(1600.0)
    d = DriveParams(intensity=8.0e4, detuning=400.0)
    spec = fluct.propagate_noise(ens, d, [100.0], THETAS)
    assert spec.s_min[0] < 1.0
    assert spec.s_max[0] > 1.0


def test_spectrum_returns_to_qnl_at_high_sideband():
    d = DriveParams(intensity=10.0, detuning=5.0)
    spec = fluct.propagate_noise(ENS, d, [1.0e4], THETAS)
    assert abs(spec.s_min[0] - 1.0) < 1e-3
    assert abs(spec.s_max[0] - 1.0) < 1e-3


def test_transit_phase_does_not_move_extrema():
    ens_t = EnsembleParams.from_cooperativity(
        200.0, gamma_raw=1.9058e7)  # transit time ~ 4.8e-3
    ens_0 = EnsembleParams.from_cooperativity(200.0)  # ~ 2.5e-10
    assert ens_t.transit_time > 1e-3
    d = DriveParams(intensity=500.0, detuning=10.0)
    s_t = fluct.propagate_noise(ens_t, d, [0.5, 2.0], THETAS)
    s_0 = fluct.propagate_noise(ens_0, d, [0.5, 2.0], THETAS)
    assert np.abs(s_t.s_min - s_0.s_min).max() < 1e-4 * s_0.s_min.max()
    assert np.abs(s_t.s_max - s_0.s_max).max() < 1e-4 * s_0.s_max.max()


def test_low_omega_flagging():
    d = DriveParams(intensity=4.0, detuning=3.0)
    spec = fluct.propagate_noise(ENS, d, [0.001, 0.5], THETAS,
                                 omega_floor=0.01)
    assert spec.low_omega.tolist() == [True, False]


def test_depleted_transport_close_to_undepleted_for_thin_cell():
    ens = EnsembleParams.from_cooperativity(0.5)
    d = DriveParams(intensity=50.0, detuning=5.0)
    thin = fluct.propagate_noise(ens, d, [1.0], THETAS, deplete=True)
    flat = fluct.propagate_noise(ens, d, [1.0], THETAS, deplete=False)
    assert np.abs(thin.values - flat.values).max() < 1e-3


# --- limit regimes ---------------------------------------------------------

def test_low_sideband_limit_matches_full_response():
    d = DriveParams(intensity=2.0 * (1 + 100.0**2), detuning=100.0)
    # full coupling -kappa(w->0) approaches i delta0/(1+s)
    _, coupling = drift_no_transit(ENS, d, 1e-3)
    assert abs(limit_low_sideband(ENS, d) - coupling) < 2e-2 * abs(coupling)


def test_high_sideband_limit_example_point():
    """Delta = 50, omega = 5, s = 0.5: kappa within 2 percent."""
    d = DriveParams(intensity=0.5 * (1 + 50.0**2), detuning=50.0)
    lim = fluct.limit_high_sideband(ENS, d, 5.0)
    r = fluct.response(ENS, d, 5.0)
    assert abs(lim.kappa - r.kappa) / abs(r.kappa) < 0.02


def test_high_sideband_limit_deep_grid():
    for de in (1000.0, 2000.0):
        for w in (5.0, 10.0):
            for s in (0.2, 1.0, 5.0):
                d = DriveParams(intensity=s * (1 + de * de), detuning=de)
                r = fluct.response(ENS, d, w)
                lim = fluct.limit_high_sideband(ENS, d, w)
                assert abs(lim.kappa - r.kappa) / abs(r.kappa) < 0.02
                assert abs(lim.gamma - r.gamma) / abs(r.gamma) < 0.02


def test_high_sideband_compact_forms():
    d = DriveParams(intensity=1.0 * (1 + 1e5**2), detuning=1e5)
    lim = fluct.limit_high_sideband(ENS, d, 1000.0)
    d0 = d.linear_dephasing(ENS)
    s = d.saturation
    assert lim.kappa_compact == pytest.approx(-1j * d0 * s / ((1 + s)
                                                              * (1 + 2 * s)))
    assert lim.gamma == pytest.approx(-1j * d0 / (1 + s))
    # s -> 0: kappa -> 0, Gamma -> -i delta0
    d_weak = DriveParams(intensity=1e-6 * (1 + 1e5**2), detuning=1e5)
    lw = fluct.limit_high_sideband(ENS, d_weak, 1000.0)
    assert abs(lw.kappa_compact) < 1e-5 * d_weak.linear_dephasing(ENS)
    assert lw.gamma == pytest.approx(
        -1j * d_weak.linear_dephasing(ENS), rel=1e-5)
    # s = 1: kappa = -i delta0 / 6
    d_one = DriveParams(intensity=1.0 * (1 + 1e5**2), detuning=1e5)
    l1 = fluct.limit_high_sideband(ENS, d_one, 1000.0)
    assert l1.kappa_compact == pytest.approx(
        -1j * d_one.linear_dephasing(ENS) / 6.0, rel=1e-12)
    # the omega-retaining kappa contracts onto the compact one deep in
    assert abs(lim.kappa - lim.kappa_compact) < 5e-3 * abs(lim.kappa_compact)


def test_kerr_limit_coefficients_and_gate():
    # gate corner: sqrt(I_x) = 10 gamma, Delta = 10 sqrt(I_x)
    d = DriveParams(intensity=100.0, detuning=100.0)
    kerr = fluct.limit_kerr(ENS, d)
    assert kerr.in_regime
    drift, coupling = drift_no_transit(ENS, d, 1.0)
    assert abs((kerr.dephasing + kerr.kerr_ay) - drift) < 0.02 * abs(drift)
    # the adjoint coupling settles at omega >> gamma (still << Delta);
    # the compact i delta0 s form carries O(3s) corrections; compare deep
    d_deep = DriveParams(intensity=1.0e6, detuning=3.0e4)
    kerr_deep = fluct.limit_kerr(ENS, d_deep)
    _, coupling_deep = drift_no_transit(ENS, d_deep, 300.0)
    assert abs(kerr_deep.kerr_aydag - coupling_deep) \
        < 0.02 * abs(coupling_deep)
    assert kerr.noise_scale == pytest.approx(ENS.cooperativity / 100.0**2)


def test_kerr_limit_warns_outside_gate():
    with pytest.warns(UserWarning):
        fluct.limit_kerr(ENS, DriveParams(intensity=4.0, detuning=10.0))


def test_high_saturation_limit():
    for de in (20.0, 50.0):
        for w in (1.0, 5.0):
            d = DriveParams(intensity=100.0 * de * de, detuning=de)
            lim = fluct.limit_high_saturation(ENS, d, w)
            drift, coupling = drift_no_transit(ENS, d, w)
            assert abs(lim.coef_aydag - coupling) < 0.05 * abs(coupling)
            assert abs(lim.coef_ay - drift) < 0.05 * abs(drift)
    # compact form i delta0 / (2s) emerges for omega >> gamma
    d = DriveParams(intensity=100.0 * 200.0**2, detuning=200.0)
    lim = fluct.limit_high_saturation(ENS, d, 200.0)
    assert abs(lim.coef_aydag - lim.compact) < 0.03 * abs(lim.compact)
    assert abs(lim.coef_ay - lim.compact) < 0.03 * abs(lim.compact)
    assert lim.noise_scale == pytest.approx(ENS.cooperativity / 200.0**2)


def test_limit_consistency_gl():
    """Im kappa(0) from the response equals the classical Gl everywhere."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = DriveParams(intensity=10.0 ** rng.uniform(-2, 3),
                        detuning=rng.uniform(-40, 40))
        r = fluct.response(ENS, d, 0.0)
        assert -r.kappa0.imag == -bloch.kappa_zero(ENS, d).imag
