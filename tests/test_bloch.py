import numpy as np
import pytest
from conftest import (evolve_density_matrix, liouvillian,
                      oracle_steady_values, sigma_op,
                      steady_state)

from psrsim import bloch
from psrsim.core import DriveParams, EnsembleParams

ENS = EnsembleParams.from_cooperativity(100.0)


def rabi_amp(s, detuning, phase=0.0):
    """Omega with |Omega|^2 = s (1 + detuning^2)."""
    return np.sqrt(s * (1.0 + detuning**2)) * np.exp(1j * phase)


def test_liouvillian_reproduces_bloch_drift():
    """The Lindblad generator and the operator equations of motion agree."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    om_p, om_m, de = 0.7 - 0.2j, -0.5 + 0.1j, 1.3
    liou = liouvillian(om_p, om_m, de)
    drho = (liou @ rho.reshape(-1)).reshape(4, 4)

    def ev(i, j):
        return np.trace(rho @ sigma_op(i, j))

    def dev(i, j):
        return np.trace(drho @ sigma_op(i, j))

    assert dev(1, 4) == pytest.approx(
        -(1 + 1j * de) * ev(1, 4) + 1j * om_p * (ev(1, 1) - ev(4, 4)),
        abs=1e-13)
    assert dev(2, 3) == pytest.approx(
        -(1 + 1j * de) * ev(2, 3) + 1j * om_m * (ev(2, 2) - ev(3, 3)),
        abs=1e-13)
    assert dev(1, 1) == pytest.approx(
        ev(3, 3) + ev(4, 4) - 1j * om_p * ev(4, 1)
        + 1j * np.conj(om_p) * ev(1, 4), abs=1e-13)
    assert dev(4, 4) == pytest.approx(
        -2 * ev(4, 4) + 1j * om_p * ev(4, 1)
        - 1j * np.conj(om_p) * ev(1, 4), abs=1e-13)
    assert dev(3, 3) == pytest.approx(
        -2 * ev(3, 3) + 1j * om_m * ev(3, 2)
        - 1j * np.conj(om_m) * ev(2, 3), abs=1e-13)


def test_zero_drive_convention():
    st = steady_state(0.0, 0.0, 1.7)
    assert st.populations == (0.5, 0.5, 0.0, 0.0)
    assert st.coh_14 == 0.0 and st.coh_23 == 0.0


def test_single_drive_pumps_into_dark_ground_state():
    """With a- = 0 the decay path empties the driven pair into |2>."""
    a_p = 1.5
    st = steady_state(a_p, 0.0, 0.0)
    assert st.populations == (0.0, 1.0, 0.0, 0.0)
    pops, c14, c23 = oracle_steady_values(a_p, 0.0, 0.0)
    assert np.abs(pops - np.array(st.populations)).max() < 1e-8
    assert abs(c14 - st.coh_14) < 1e-8
    assert abs(c23 - st.coh_23) < 1e-8


def test_symmetric_drive_matches_oracle():
    a = rabi_amp(1.0, 5.0)
    st = steady_state(a, a, 5.0)
    assert st.populations[0] == pytest.approx(st.populations[1], rel=1e-12)
    assert st.populations[2] == pytest.approx(st.populations[3], rel=1e-12)
    pops, c14, c23 = oracle_steady_values(a, a, 5.0)
    assert np.abs(pops - np.array(st.populations)).max() < 1e-8
    assert abs(c14 - st.coh_14) < 1e-8


def test_steady_state_random_points_vs_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(12):
        sp, sm = 10 ** rng.uniform(-1.2, 1.7, 2)
        de = rng.uniform(-20.0, 20.0)
        ap = rabi_amp(sp, de, rng.uniform(0, 2 * np.pi))
        am = rabi_amp(sm, de, rng.uniform(0, 2 * np.pi))
        st = steady_state(ap, am, de)
        pops, c14, c23 = oracle_steady_values(ap, am, de)
        worst = max(worst,
                    np.abs(pops - np.array(st.populations)).max(),
                    abs(c14 - st.coh_14), abs(c23 - st.coh_23))
    assert worst < 1e-7


@pytest.mark.parametrize("ix, de", [(0.0, 1.7), (1e-3, 0.0), (3.0, -2.0),
                                    (1000.0, 0.5), (8e4, 400.0),
                                    (1e6, -3.0)])
def test_linear_steady_state_is_the_general_one_at_a_linear_drive(ix, de):
    """The closed form equals the general steady state at <a-> = -<a+>,
    any common phase, to rounding."""
    p_g, p_e, r = bloch.linear_steady_state(ix, de)
    assert 2.0 * (p_g + p_e) == pytest.approx(1.0, abs=1e-15)
    for phase in (0.0, 2.1):
        a = np.sqrt(ix / 2.0) * np.exp(1j * phase)
        st = steady_state(a, -a, de)
        assert np.abs(np.array(st.populations)
                      - [p_g, p_g, p_e, p_e]).max() <= 1e-15
        assert abs(st.coh_14 - a * r) <= 1e-15
        assert abs(st.coh_23 + a * r) <= 1e-15


def test_oracle_conserves_trace_and_cross_checks_solver():
    a = rabi_amp(0.3, 2.0)
    rho = evolve_density_matrix(a, a, 2.0)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    # adaptive ODE integration agrees with the exact stepper
    rho_ivp = evolve_density_matrix(a, a, 2.0, t_end=200.0,
                                    method="ivp")
    rho_exp = evolve_density_matrix(a, a, 2.0, t_end=200.0)
    assert np.abs(rho_ivp - rho_exp).max() < 1e-8


def transmission(ix, de):
    """|Omega|^2 out over in, through ENS's cell, of a linearly polarized
    input of intensity ``ix`` at detuning ``de``."""
    return bloch.depleted_intensity(ENS.cooperativity, ix, de, 1.0) / ix


def test_propagation_transparent_far_off_resonance():
    assert transmission(1.0, 1.0e4) >= 0.999


def test_propagation_opaque_on_resonance():
    """Resonant low-power beam through an optically thick cell."""
    assert 0.0 <= transmission(0.1, 0.0) < 0.10


def test_transmission_in_range_and_monotone_beyond_line():
    last = -1.0
    for de in (3.0, 5.0, 10.0, 20.0, 50.0):
        t = transmission(5.0, de)
        assert 0.0 <= t <= 1.0
        assert t > last
        last = t


def gl(drive):
    """The single-class self-rotation parameter, -Im kappa(0)."""
    return -bloch.kappa_zero(ENS, drive).imag


def test_gl_vanishes_on_resonance():
    assert gl(DriveParams(intensity=3.0, detuning=0.0)) == 0.0


def test_gl_direct_value():
    # C = 100, Delta = gamma, I_x = 0: kappa(0) = 100/(2(1+i)) = 25(1-i)
    d = DriveParams(intensity=0.0, detuning=1.0)
    k0 = bloch.kappa_zero(ENS, d)
    assert k0 == pytest.approx(25.0 - 25.0j, rel=1e-12)
    assert gl(d) == pytest.approx(25.0, rel=1e-12)
    assert gl(DriveParams(intensity=0.0, detuning=2.0)) > 0.0


@pytest.mark.parametrize("intensity", [0.0, 1.0, 10.0, 100.0])
def test_gl_peaks_at_power_broadened_detuning(intensity):
    grid = np.linspace(0.05, 3.0 * np.sqrt(1.0 + intensity), 1200)
    vals = [abs(gl(DriveParams(intensity=intensity, detuning=d)))
            for d in grid]
    best = grid[int(np.argmax(vals))]
    step = grid[1] - grid[0]
    assert abs(best - np.sqrt(1.0 + intensity)) <= step


def test_gl_decays_as_inverse_detuning():
    vals = []
    for de in 10.0 ** np.arange(1, 6):
        vals.append(abs(gl(DriveParams(intensity=4.0, detuning=de)) * de))
    assert max(vals) <= 0.5001 * ENS.cooperativity
    assert vals[-1] == pytest.approx(ENS.cooperativity / 2.0, rel=1e-3)
