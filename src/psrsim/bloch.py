"""Semi-classical dynamics of the driven 4-level system.

Level scheme: two stable ground states |1>, |2> and two excited states
|3>, |4>.  The sigma+ circular component couples 1<->4 and the sigma-
component couples 2<->3.  Each excited state decays at a total rate
2*gamma, feeding both ground states at gamma each, so optical coherences
relax at gamma.  With gamma = 1 the coherent part of the dynamics is
fixed by the two complex Rabi-scale amplitudes Omega+- = g <a+-> and the
common detuning Delta; the coupling g enters nowhere else, so the mean
field is carried as Omega+- itself.

This module provides the steady state of those equations for the
linearly polarized drive in closed form, the zero-sideband response
kappa(0), which is also the mean-field attenuation dOmega+-/dz =
-kappa(0) Omega+-, and the Dormand-Prince integrator of the depleted
noise transport.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import DriveParams, EnsembleParams, NumericalError


def linear_steady_state(intensity: float,
                        detuning: float) -> tuple[float, float, complex]:
    """Stationary state of the linearly polarized drive of intensity I_x.

    The circular Rabi scales are Omega+- = +-Omega e^(i phi) with
    Omega = sqrt(I_x/2), so each transition sees the saturation
    q = s/2 = Omega^2/(1 + Delta^2).  Returns (p_g, p_e, r): the
    population of each ground state (|1>, |2>) and of each excited
    state (|3>, |4>), and r = <sigma_14>/Omega+ = <sigma_23>/Omega-.
    The excited populations are equal in steady state, and the ground
    populations balance the pump rates, p_g/p_e = (1 + q)/q; the
    optical coherences are i Omega+- (p_g - p_e)/(1 + i Delta).  With
    no drive the unpolarized state p_g = 1/2 is returned.
    """
    q = 0.5 * intensity / (1.0 + detuning * detuning)
    den = 2.0 + 4.0 * q                 # 2 (1 + s) = 1/(p_g - p_e)
    return (1.0 + q) / den, q / den, 1j / ((1.0 + 1j * detuning) * den)


# Dormand-Prince 5(4) as in scipy's RK45: nodes, stage weights, 5th-order
# weights and error weights (5th minus the embedded 4th order)
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([[0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0],
                  [44/45, -56/15, 32/9, 0, 0],
                  [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
                  [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])


class OdeResult(NamedTuple):
    y: np.ndarray              # the state at z = 1
    nfev: int                  # right-hand-side evaluations


_ODE_MAX_NFEV = 100_000


def solve_ivp(fun, y0, rtol: float, atol: float, point: dict) -> OdeResult:
    """Integrate dy/dz = fun(z, y), y complex, from z = 0 to z = 1.

    Dormand-Prince 5(4) that repeats scipy.integrate.RK45 operation for
    operation (initial step, RMS error norm, step controller), so its
    steps, final state and ``nfev`` equal scipy's bit for bit.  A
    non-finite right-hand side, a step below 10 ulp(z) or more than
    ``_ODE_MAX_NFEV`` right-hand-side evaluations raise NumericalError
    at ``point``.
    """
    nfev = 0

    def f(z, y):
        nonlocal nfev
        if nfev >= _ODE_MAX_NFEV:
            raise NumericalError(
                f"ODE evaluation limit ({_ODE_MAX_NFEV}) reached", point)
        nfev += 1
        out = np.asarray(fun(z, y), dtype=complex)
        if not np.isfinite(out).all():
            raise NumericalError("non-finite ODE right-hand side", point)
        return out

    y = np.asarray(y0, dtype=complex)
    root_n = y.size ** 0.5                  # RMS norm = 2-norm / root_n
    k = np.empty((7, y.size), dtype=complex)    # stages; k[0] = fun(z, y)
    k[0] = f(0.0, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = (np.linalg.norm(x / scale) / root_n for x in (y, k[0]))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, 1.0)
    d2 = np.linalg.norm((f(h0, y + h0 * k[0]) - k[0]) / scale) / root_n / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.2)
    h_abs, z = min(100 * h0, h1, 1.0), 0.0
    while z < 1.0:
        min_step = 10 * (np.nextafter(z, np.inf) - z)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise NumericalError("ODE step size underflow", point)
            z_new = min(z + h_abs, 1.0)
            h = h_abs = z_new - z
            for s in range(1, 6):
                k[s] = f(z + _DP_C[s] * h,
                         y + np.dot(k[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(k[:-1].T, _DP_B)
            k[6] = f(z + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = np.linalg.norm(np.dot(k.T, _DP_E) * h / scale) / root_n
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        z, y, k[0] = z_new, y_new, k[6]
    return OdeResult(y, nfev)


def kappa_zero(ens: EnsembleParams, drive: DriveParams) -> complex:
    """Zero-sideband response kappa(0) = C/(2(1 + i Delta)(1 + s)).

    It is -i C r of ``linear_steady_state``: the mean field obeys
    dOmega+-/dz = i C <sigma_14>/Omega+ Omega+- = -kappa(0) Omega+-.
    """
    r = linear_steady_state(drive.intensity, drive.detuning)[2]
    return -1j * ens.cooperativity * r
