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
-kappa(0) Omega+-, and the intensity profile I_x(z) of the drive that
attenuation depletes, as the root of its closed-form integral.
"""

from __future__ import annotations

import numpy as np

from .core import DriveParams, EnsembleParams


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


def depleted_intensity(cooperativity: float, intensity: float,
                       detuning: float, z) -> np.ndarray:
    """I_x(z) of a linearly polarized drive absorbed along the cell.

    The mean field obeys dOmega+-/dz = -kappa(0) Omega+-, so
    dI/dz = -2 Re kappa(0) I = -C I/(1 + Delta^2 + I), whose solution
    from I(0) = ``intensity`` solves
    (1 + Delta^2) ln(I/I0) + (I - I0) = -C z.  Newton runs in
    y = ln(I/I0) on f(y) = (1 + Delta^2) y + I0 expm1(y) + C z from
    y = 0, over all positions ``z`` (cell lengths) at once: f is convex
    and increasing, so the iterates fall monotonically to the root.
    Where I0 e^y underflows the result is exactly 0.  The phase of
    Omega+- enters no coefficient, and a linear input stays linear.
    """
    a = 1.0 + detuning * detuning
    cz = cooperativity * np.asarray(z, dtype=float)
    y = np.zeros_like(cz)
    for _ in range(100):
        step = (a * y + intensity * np.expm1(y) + cz) / (a + intensity
                                                          * np.exp(y))
        y = y - step
        if not (step > 4e-16 * (1.0 - y)).any():
            break
    return intensity * np.exp(y)


def kappa_zero(ens: EnsembleParams, drive: DriveParams) -> complex:
    """Zero-sideband response kappa(0) = C/(2(1 + i Delta)(1 + s)).

    It is -i C r of ``linear_steady_state``: the mean field obeys
    dOmega+-/dz = i C <sigma_14>/Omega+ Omega+- = -kappa(0) Omega+-.
    """
    r = linear_steady_state(drive.intensity, drive.detuning)[2]
    return -1j * ens.cooperativity * r
