"""The array fluctuation kernel against the scalar chain, and --deplete."""

import subprocess
import sys

import numpy as np
import pytest
import yaml
from conftest import (brute_force_diffusion, scalar_drift, scalar_inflow,
                      scalar_source_rows_pair)
from hypothesis import given, settings
from hypothesis import strategies as st

from psrsim import fluct
from psrsim.core import DriveParams, EnsembleParams

THETAS = np.linspace(0.0, np.pi, 31, endpoint=False)
HOT = EnsembleParams.from_cooperativity(15.0, gamma_raw=1.9058e7,
                                        temperature=345.0)

cooperativity = st.floats(0.0, 2000.0)
intensity = st.floats(1e-3, 1e5)
detuning = st.floats(-500.0, 500.0)
sideband = st.floats(0.0, 300.0)
KERNEL = settings(max_examples=150, deadline=None, derandomize=True)


def assert_close(got, ref, rtol=1e-12):
    """Equal up to rounding: rtol relative to the largest entry."""
    ref = np.asarray(ref)
    assert np.abs(got - ref).max() <= rtol * max(np.abs(ref).max(), 1e-300)


@KERNEL
@given(cooperativity, intensity, detuning,
       st.lists(sideband, min_size=1, max_size=5))
def test_kernel_matches_scalar_chain(c, ix, de, omegas):
    ens = EnsembleParams.from_cooperativity(c, gamma_raw=1.9058e7)
    drive = DriveParams(intensity=ix, detuning=de)
    k = fluct._kernel(ens, drive, omegas)
    for i, w in enumerate(omegas):
        assert_close(k.m_w[i], scalar_drift(ens, drive, w))
        assert_close(k.m_mw[i], scalar_drift(ens, drive, -w))
        assert_close(k.p_w[i], scalar_source_rows_pair(ix, de, w))
        assert_close(k.p_mw[i], scalar_source_rows_pair(ix, de, -w))


@KERNEL
@given(cooperativity.filter(lambda c: c > 0), intensity, detuning, sideband)
def test_inflow_and_truncated_drift_match_scalar_chain(c, ix, de, w):
    ens = EnsembleParams.from_cooperativity(c)
    drive = DriveParams(intensity=ix, detuning=de)
    diff = fluct.diffusion(ens, drive)
    assert_close(fluct.noise_inflow(ens, drive, w, diff),
                 scalar_inflow(ens, drive, w, diff.ordered))
    assert_close(fluct._drift(ens, drive, w, truncate_dephasing=True),
                 scalar_drift(ens, drive, w, truncate_dephasing=True))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.0, 1e6), detuning)
def test_diffusion_equals_brute_force_loop(ix, de):
    ens = EnsembleParams.from_cooperativity(100.0)
    drive = DriveParams(intensity=ix, detuning=de)
    assert np.array_equal(fluct.diffusion(ens, drive).ordered,
                          brute_force_diffusion(ens, drive))


def test_deplete_without_atoms_is_at_the_qnl():
    ens0 = EnsembleParams.from_cooperativity(0.0)
    spec = fluct.propagate_noise(ens0, DriveParams(intensity=4.0,
                                                   detuning=1.0),
                                 [0.0, 0.5, 3.0], THETAS, deplete=True)
    assert np.abs(spec.values - 1.0).max() < 1e-12


@pytest.mark.parametrize("de", [0.5, 1.5, 3.0])
def test_deplete_symmetric_under_detuning_sign(de):
    omegas = [0.16667, 0.5, 1.0]
    plus = fluct.propagate_noise(HOT, DriveParams(intensity=1000.0,
                                                  detuning=de),
                                 omegas, THETAS, deplete=True)
    minus = fluct.propagate_noise(HOT, DriveParams(intensity=1000.0,
                                                   detuning=-de),
                                  omegas, THETAS, deplete=True)
    assert np.abs(plus.min_db() - minus.min_db()).max() < 1e-6
    assert np.abs(plus.max_db() - minus.max_db()).max() < 1e-6


def test_stacked_deplete_solve_equals_per_sideband_solves():
    omegas = [0.16667, 0.33333, 0.66667, 1.0]
    drive = DriveParams(intensity=1000.0, detuning=-1.5)
    whole = fluct.propagate_noise(HOT, drive, omegas, THETAS, deplete=True)
    for i, w in enumerate(omegas):
        one = fluct.propagate_noise(HOT, drive, [w], THETAS, deplete=True)
        assert np.abs(one.to_db()[0] - whole.to_db()[i]).max() < 1e-9
        assert abs(one.min_db()[0] - whole.min_db()[i]) < 1e-9
        assert abs(one.max_db()[0] - whole.max_db()[i]) < 1e-9


def test_deplete_output_does_not_depend_on_jobs(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "ensemble": {"cooperativity": 15.0, "gamma": 1.9058e7},
        "drive": {"intensity": 1000.0},
        "noise": {"detunings": [-1.0, 0.5, 2.0], "omegas": [0.5, 1.0],
                  "theta_points": 16}}), encoding="utf-8")
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"noise_{jobs}.csv"
        res = subprocess.run([sys.executable, "-m", "psrsim.cli", "noise",
                              "--config", str(cfg), "--out", str(out),
                              "--deplete", "--theta-scan", "--jobs", jobs],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append((out.read_bytes(),
                     out.with_name(out.stem + "_theta.csv").read_bytes()))
    assert outs[0] == outs[1]
