"""The depleted transport's integrator: the closed-form intensity
profile against scipy, uniform fourth-order Magnus steps with step
doubling against scipy's RK45, its order, and its failures."""

import sys
import time
from unittest import mock

import numpy as np
import pytest
from conftest import rk45_depleted
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from psrsim import bloch, cli, fluct
from psrsim.core import DriveParams, EnsembleParams, NumericalError

THETAS = np.linspace(0.0, np.pi, 31, endpoint=False)
HOT = EnsembleParams.from_cooperativity(15.0, gamma_raw=1.9058e7,
                                        temperature=345.0)


# (C, I0, Delta) and DOP853's own error: at C = 1e7 it is off by 5.6e-12
# where I = 93 (ln(I/I0) = -9.3)
@pytest.mark.parametrize("c, i0, de, tol", [
    (15.0, 1000.0, -3.0, 1e-12), (1600.0, 8e4, 400.0, 1e-12),
    (100.0, 5.0, 0.0, 1e-12), (1600.0, 10.0, 2.0, 1e-12),
    (800.0, 1.0, 0.0, 1e-12), (1e7, 1e6, 3.0, 1e-11)])
def test_mean_field_matches_scipy_rk45(c, i0, de, tol):
    """I(z) against dI/dz = -C I/(1 + Delta^2 + I) integrated by scipy
    (DOP853 at rtol 2.3e-14, in ln I) within ``tol`` relative, and
    against the 40-digit root of (1 + Delta^2) ln(I/I0) + I - I0 = -C z
    within 1e-12.  Where I underflows (C = 800 and C = 1e7) the closed
    form is exactly 0, with no warning."""
    import mpmath
    z = np.linspace(0.0, 1.0, 21)
    got = bloch.depleted_intensity(c, i0, de, z)
    sol = solve_ivp(lambda _z, y: -c / (1.0 + de * de + i0 * np.exp(y)),
                    (0.0, 1.0), [0.0], method="DOP853", t_eval=z,
                    rtol=2.3e-14, atol=1e-14)
    assert sol.success
    assert np.allclose(got, i0 * np.exp(sol.y[0]), rtol=tol, atol=0.0)
    a = 1.0 + de * de
    with mpmath.workdps(40):
        roots = [i0 * mpmath.exp(mpmath.findroot(
            lambda y, cz=c * zz: a * y + i0 * mpmath.expm1(y) + cz,
            -c * zz / (a + i0))) for zz in z]
    assert np.allclose(got, np.array(roots, dtype=float), rtol=1e-12,
                       atol=0.0)
    assert (np.diff(got) <= 0.0).all()
    assert (got[-1] == 0.0) == (c in (800.0, 1e7))


# the largest error of each preset's --deplete spectra, in dB, against
# RK45 at rtol 1e-12; an ODE at rtol 1e-8 is off by 1.6e-10 (hot-vapour-d2)
# and 2.2e-8 (cold-atom-kerr)
PRESET_DB = {"hot-vapour-d2": 2e-11, "hot-vapour-d1": 2e-11,
             "cold-atom-kerr": 1e-9}


def spectra_against_rk45(ens, drive, omegas, thetas=THETAS, **kw):
    """The largest difference in dB of propagate_noise(deplete=True) as
    it runs from the same with RK45's covariances, over S_theta, S_min
    and S_max."""
    got = fluct.propagate_noise(ens, drive, omegas, thetas, deplete=True,
                                **kw)
    with mock.patch.object(fluct, "_sigma_out_depleted", rk45_depleted):
        ref = fluct.propagate_noise(ens, drive, omegas, thetas,
                                    deplete=True, **kw)
    return max(np.abs(got.to_db() - ref.to_db()).max(),
               np.abs(got.min_db() - ref.min_db()).max(),
               np.abs(got.max_db() - ref.max_db()).max())


@pytest.mark.parametrize("preset", list(PRESET_DB))
def test_depleted_presets_equal_scipy_driven_transport(preset):
    cfg, _ = cli.load_config(preset)
    ens = cli.build_ensemble(cfg)
    sec = cfg["noise"]
    ix = float(cfg["drive"]["intensity"])   # YAML reads 8.0e4 as a string
    thetas = np.linspace(0.0, np.pi, sec["theta_points"], endpoint=False)
    for de in sec["detunings"]:
        err = spectra_against_rk45(ens, DriveParams(intensity=ix,
                                                    detuning=de),
                                   sec["omegas"], thetas)
        assert err <= PRESET_DB[preset], de


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(-10.0, 10.0), st.floats(10.0, 1e4),
       st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4, unique=True))
def test_depleted_hot_points_equal_scipy_driven_transport(de, ix, omegas):
    """Within 1e-8 dB; the draw Delta = 0, I_x = 10, omega = 0 is off by
    3.0e-11 dB (an ODE at rtol 1e-8: 3.2e-8 dB)."""
    err = spectra_against_rk45(HOT, DriveParams(intensity=ix, detuning=de),
                               omegas)
    assert err <= 1e-8


def largest_step_count(ens, drive, omegas, **kw):
    """The most steps the depleted transport of one propagate_noise call
    takes."""
    levels = []
    evolve = fluct._evolve

    def spy(*args):
        levels.extend(args[-1])
        return evolve(*args)

    with mock.patch.object(fluct, "_evolve", spy):
        fluct.propagate_noise(ens, drive, omegas, THETAS, deplete=True, **kw)
    return max(levels)


def test_step_doubling_bounds_the_smallest_variance():
    """C = 15, I_x = 10, Delta = 0 absorbs most of the drive.  Stopping on
    max|S_2N - S_N| against max|S_2N| took 256 steps and left S_min off
    by 7.8e-9 dB; bounding every S_theta relative to S_min takes 1024
    steps and holds S_min and S_max within 1e-9 dB of RK45."""
    ens = EnsembleParams.from_cooperativity(15.0, gamma_raw=1.9058e7)
    drive = DriveParams(intensity=10.0, detuning=0.0)
    assert spectra_against_rk45(ens, drive, [0.0]) <= 1e-9
    assert largest_step_count(ens, drive, [0.0]) == 1024


@pytest.mark.parametrize("kw", [{"include_noise": False},
                                {"truncate_dephasing": True}])
def test_depleted_cold_variants_equal_scipy_driven_transport(kw):
    """Without the atomic sources, or with the bare cross-Kerr Gamma,
    S_min falls below the QNL, where a bound relative to S_min is the
    strictest: every S_theta of every ``cold-atom-kerr`` detuning is
    within 1e-9 dB of RK45, well short of the step cap."""
    cfg, _ = cli.load_config("cold-atom-kerr")
    ens = cli.build_ensemble(cfg)
    sec = cfg["noise"]
    ix = float(cfg["drive"]["intensity"])   # YAML reads 8.0e4 as a string
    thetas = np.linspace(0.0, np.pi, sec["theta_points"], endpoint=False)
    for de in sec["detunings"]:
        drive = DriveParams(intensity=ix, detuning=de)
        assert spectra_against_rk45(ens, drive, sec["omegas"], thetas,
                                    **kw) <= 1e-9, de
        assert largest_step_count(ens, drive, sec["omegas"], **kw) \
            < fluct._MAX_STEPS, de


def test_error_falls_sixteen_fold_per_halving():
    """Fourth order: the error of 1, 2, 4 and 8 steps against 256 falls
    14-18x per halving of the step on hot-vapour-d2 at Delta = -3.
    Without the commutator term, or with its sign flipped, the steps
    are second order and the error falls about 4x."""
    cfg, _ = cli.load_config("hot-vapour-d2")
    ens = cli.build_ensemble(cfg)
    sb = fluct._sidebands(ens, -3.0, cfg["noise"]["omegas"], False)
    *sig, ref = fluct._evolve(ens, sb, 1000.0, True, [1, 2, 4, 8, 256])
    err = [np.abs(s - ref).max() for s in sig]
    ratios = np.array(err[:-1]) / err[1:]
    assert ((ratios >= 14.0) & (ratios <= 18.0)).all(), ratios


@pytest.mark.parametrize("ix, de", [(1.0, 2.0), (10.0, 2.0), (100.0, 2.0),
                                    (1000.0, 0.0)])
def test_thick_cells_keep_the_commutator(ix, de):
    """C = 1600: an ODE at rtol 1e-8 leaves the output commutator off by
    1e-8 relative, and the command exits 3.  Each Magnus step preserves
    it exactly, so it holds to 1e-12 relative of the covariances."""
    ens = EnsembleParams.from_cooperativity(1600.0)
    drive = DriveParams(intensity=ix, detuning=de)
    omegas = [0.1, 0.5, 1.0, 3.0]
    fluct.propagate_noise(ens, drive, omegas, THETAS, deplete=True)
    sig = fluct._sigma_out_depleted(
        ens, drive, fluct._sidebands(ens, de, omegas, False), True)
    size = np.abs(sig).max(axis=(0, 1))
    scale = np.maximum(size[:4], size[4:])
    assert (fluct._commutator_excess(sig) <= 1e-12 * scale).all()


def test_non_finite_transport_is_a_numerical_error_naming_the_detuning():
    """A NaN in every step's map leaves the covariances non-finite at
    every step count: the doubling stops at its cap and names the
    detuning."""
    transport = fluct._transport

    def nan_maps(*args):
        e, f = transport(*args)
        return e, np.full_like(f, np.nan)

    with mock.patch.object(fluct, "_transport", nan_maps), \
            pytest.raises(NumericalError, match="not converged") as exc:
        fluct.propagate_noise(HOT, DriveParams(intensity=1000.0,
                                               detuning=1.5),
                              [0.5], THETAS, deplete=True)
    assert exc.value.point == {"detuning": 1.5}


def test_step_limit_is_a_numerical_error(tmp_path, capsys):
    """A strongly amplifying cell (C = 1e7) never settles: past
    ``_MAX_STEPS`` steps the transport raises, naming the detuning, and
    the command exits 3, in a fraction of the 2.7 s that an ODE takes
    to reach 100k right-hand sides."""
    ens = EnsembleParams.from_cooperativity(1e7)
    drive = DriveParams(intensity=1e6, detuning=3.0)
    start = time.perf_counter()
    with pytest.raises(NumericalError, match="not converged in 4096 steps") \
            as exc:
        fluct.propagate_noise(ens, drive, [0.5, 1.0], THETAS, deplete=True)
    assert time.perf_counter() - start < 2.0
    assert exc.value.point == {"detuning": 3.0}
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("ensemble: {cooperativity: 1.0e7}\n"
                   "drive: {intensity: 1.0e6, detuning: 3.0}\n"
                   "noise: {omegas: [0.5, 1.0], theta_points: 16}\n",
                   encoding="utf-8")
    argv = ["psr-sim", "noise", "--config", str(cfg), "--deplete",
            "--out", str(tmp_path / "x.csv")]
    with mock.patch.object(sys, "argv", argv), \
            pytest.raises(SystemExit) as code:
        cli.main()
    assert code.value.code == 3
    assert "not converged" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
