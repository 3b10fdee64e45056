"""The numpy Dormand-Prince integrator against scipy's RK45: the mean
field, the depleted noise transport, and its failures."""

import sys
from unittest import mock

import numpy as np
import pytest
from conftest import mean_field_problem, scipy_rk45
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psrsim import bloch, cli, fluct
from psrsim.core import DriveParams, EnsembleParams, NumericalError

THETAS = np.linspace(0.0, np.pi, 31, endpoint=False)
HOT = EnsembleParams.from_cooperativity(15.0, gamma_raw=1.9058e7,
                                        temperature=345.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(1.0, 1e4), st.floats(0.1, 1e5), st.floats(-50.0, 50.0),
       st.floats(-0.7, 0.7))
@example(1073.8, 149.9, -0.26, 0.4)      # 2918 evaluations, some rejected
def test_mean_field_takes_scipy_rk45_steps(c, ix, de, eps):
    fun, y0, atol = mean_field_problem(c, ix, de, eps)
    got = bloch.solve_ivp(fun, y0, 1e-8, atol, {})
    ref = scipy_rk45(fun, y0, 1e-8, atol, {})
    assert got.nfev == ref.nfev
    assert np.array_equal(got.y, ref.y)


def test_example_has_rejected_steps():
    """The pinned example exercises the controller after a rejection:
    more evaluations than 2 + 6 per accepted step."""
    from scipy.integrate import solve_ivp
    fun, y0, atol = mean_field_problem(1073.8, 149.9, -0.26, 0.4)
    sol = solve_ivp(fun, (0.0, 1.0), y0, method="RK45", rtol=1e-8,
                    atol=atol)
    assert sol.nfev > 2 + 6 * (sol.t.size - 1)


def depleted_both(ens, drive, omegas, thetas=THETAS):
    """propagate_noise(deplete=True) with the numpy integrator and with
    scipy's RK45, and the two integrators' results."""
    specs, sols = [], []
    for solver in (bloch.solve_ivp, scipy_rk45):
        def run(*args, solver=solver):
            sols.append(solver(*args))
            return sols[-1]
        with mock.patch.object(fluct, "solve_ivp", run):
            specs.append(fluct.propagate_noise(ens, drive, omegas, thetas,
                                               deplete=True))
    return specs, sols


def assert_same_depleted(ens, drive, omegas, thetas=THETAS):
    (got, ref), (sol, sol_ref) = depleted_both(ens, drive, omegas, thetas)
    assert sol.nfev == sol_ref.nfev
    assert np.array_equal(sol.y, sol_ref.y)
    for name in ("values", "s_min", "s_max"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))


@pytest.mark.parametrize("preset", ["hot-vapour-d2", "hot-vapour-d1",
                                    "cold-atom-kerr"])
def test_depleted_presets_equal_scipy_driven_transport(preset):
    cfg, _ = cli.load_config(preset)
    ens = cli.build_ensemble(cfg)
    sec = cfg["noise"]
    ix = float(cfg["drive"]["intensity"])   # YAML reads 8.0e4 as a string
    thetas = np.linspace(0.0, np.pi, sec["theta_points"], endpoint=False)
    for de in sec["detunings"]:
        assert_same_depleted(ens, DriveParams(intensity=ix, detuning=de),
                             sec["omegas"], thetas)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(-10.0, 10.0), st.floats(10.0, 1e4),
       st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4))
def test_depleted_hot_points_equal_scipy_driven_transport(de, ix, omegas):
    assert_same_depleted(HOT, DriveParams(intensity=ix, detuning=de), omegas)


def test_non_finite_rhs_is_a_numerical_error_naming_the_detuning():
    """A NaN in the mean field stops the right-hand side itself; one in a
    covariance makes its output non-finite, which the integrator
    rejects.  Both name the detuning."""
    for entry, message in ((0, "non-finite mean field"),
                           (2, "non-finite ODE right-hand side")):
        def solve(fun, y0, *args, entry=entry):
            y0 = y0.copy()
            y0[entry] = np.nan
            return bloch.solve_ivp(fun, y0, *args)

        with mock.patch.object(fluct, "solve_ivp", solve), \
                pytest.raises(NumericalError, match=message) as exc:
            fluct.propagate_noise(HOT, DriveParams(intensity=1000.0,
                                                   detuning=1.5),
                                  [0.5], THETAS, deplete=True)
        assert exc.value.point == {"detuning": 1.5}


def test_step_size_underflow_is_a_numerical_error():
    """A jump the controller cannot step across; scipy gives up too."""
    def jump(z, y):
        return np.full_like(y, 0.0 if z < 0.5 else 1e12)

    y0 = np.ones(2, dtype=complex)
    for solver in (bloch.solve_ivp, scipy_rk45):
        with pytest.raises(NumericalError, match="step size") as exc:
            solver(jump, y0, 1e-8, 1e-10, {"detuning": 7.0})
        assert exc.value.point == {"detuning": 7.0}


def test_ode_evaluation_limit_is_a_numerical_error(tmp_path, capsys):
    """A strongly amplifying cell (C = 1e7) takes the depleted ODE past
    any step budget; past ``_ODE_MAX_NFEV`` evaluations it raises, naming
    the detuning, and the command exits 3."""
    ens = EnsembleParams.from_cooperativity(1e7)
    drive = DriveParams(intensity=1e6, detuning=3.0)
    with mock.patch.object(bloch, "_ODE_MAX_NFEV", 500):
        with pytest.raises(NumericalError, match="evaluation limit") as exc:
            fluct.propagate_noise(ens, drive, [0.5, 1.0], THETAS,
                                  deplete=True)
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
    assert "evaluation limit" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
