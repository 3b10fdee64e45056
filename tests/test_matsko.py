import math

import numpy as np
import pytest
from conftest import psr_angle, rotation_strength_for_db

from psrsim.core import ValidationError
from psrsim.matsko import (min_variance_db, optimal_phase, variance,
                           variance_extrema)


def scan_variance(g_l, alpha_l, n=1_000_000):
    chi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    bare = 1.0 - 2.0 * g_l * np.sin(chi) * np.cos(chi) \
        + g_l**2 * np.cos(chi)**2
    return bare * math.exp(-alpha_l) + (1.0 - math.exp(-alpha_l))


def test_rotation_angle_is_a_product():
    assert psr_angle(0.0, 0.1) == 0.0
    assert psr_angle(5.0, 0.0349) == pytest.approx(0.1745, abs=5e-5)
    assert psr_angle(13.0, 0.0349) == pytest.approx(0.4537, abs=5e-5)


def test_variance_reduces_to_qnl_without_interaction():
    for chi in (0.0, 0.7, 3.0):
        for al in (0.0, 1.0, 5.0):
            assert variance(0.0, al, chi) == pytest.approx(1.0, abs=1e-15)


def test_total_absorption_returns_vacuum():
    assert variance(3.0, 800.0, 0.3) == pytest.approx(1.0, abs=1e-12)


def test_minimum_matches_dense_scan():
    scan = scan_variance(2.0, 0.0)
    v_min, v_max = variance_extrema(2.0, 0.0)
    assert v_min < 1.0
    assert abs(scan.min() - v_min) < 1e-9
    assert abs(scan.max() - v_max) < 1e-9


def test_optimal_phase_against_scan():
    chi_star, v_min = optimal_phase(2.0, 0.0)
    n = 1_000_000
    scan = scan_variance(2.0, 0.0, n)
    chi_grid = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    best = chi_grid[np.argmin(scan)] % math.pi
    assert abs(best - chi_star % math.pi) < 2.0 * math.pi / n * 2
    assert variance(2.0, 0.0, chi_star) == pytest.approx(v_min, abs=1e-12)


def test_weak_rotation_first_order():
    _, v_min = optimal_phase(1e-3, 0.0)
    assert v_min == pytest.approx(1.0 - 1e-3, abs=1e-6)


def test_six_db_point():
    g = rotation_strength_for_db(-6.0)
    assert 5.95 <= -min_variance_db(g) <= 6.05
    # Gl = 1.5 gives exactly 1/4 of the QNL
    assert min_variance_db(1.5) == pytest.approx(10 * math.log10(0.25),
                                                 abs=1e-9)


def test_absorption_degrades_monotonically():
    mins = [variance_extrema(2.0, al)[0]
            for al in (0.0, 0.2, math.log(2.0), 1.5, 4.0)]
    assert all(b > a for a, b in zip(mins, mins[1:]))


def test_periodicity_and_max_above_qnl():
    assert variance(1.3, 0.4, 0.9) == pytest.approx(
        variance(1.3, 0.4, 0.9 + 2.0 * math.pi), rel=1e-12)
    _, v_max = variance_extrema(1.3, 0.4)
    assert v_max >= 1.0


def test_variance_lower_bound():
    rng = np.random.default_rng(7)
    for _ in range(200):
        g, al, chi = rng.uniform(-4, 4), rng.uniform(0, 5), rng.uniform(0, 7)
        v = variance(g, al, chi)
        assert v >= (1.0 - math.exp(-al)) - 1e-12
        assert v >= 0.0


def test_negative_absorption_rejected():
    with pytest.raises(ValidationError, match="absorption"):
        variance(1.0, -0.1, 0.3)


def test_flat_variance_error():
    with pytest.raises(ValidationError):
        optimal_phase(0.0)
