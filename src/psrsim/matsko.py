"""Phenomenological cross-phase rotation model of the orthogonal vacuum mode.

The medium is reduced to two numbers: a rotation strength Gl (the
self-rotation angle per radian of input polarization-ellipse angle,
accumulated over the cell) and an intensity absorption alpha*l.  The
output variance of the orthogonally polarized mode as a function of
the homodyne phase chi is

    V(chi) = (1 - 2 Gl sin(chi) cos(chi) + Gl^2 cos^2(chi)) e^{-alpha l}
             + (1 - e^{-alpha l})

with the quantum noise limit at 1.  For suitable chi this dips below 1,
which is the squeezing this model predicts; the full Langevin treatment
in :mod:`psrsim.fluct` shows what atomic noise does to that prediction.
The functions take (Gl, alpha*l[, chi]) as plain floats.
"""

from __future__ import annotations

import math

from .core import ValidationError, _require


def variance(g_l: float, alpha_l: float, chi: float) -> float:
    """Output quadrature variance at phase chi, QNL = 1."""
    _require(alpha_l >= 0, "absorption", "must be >= 0")
    bare = 1.0 - 2.0 * g_l * math.sin(chi) * math.cos(chi) \
        + g_l * g_l * math.cos(chi) ** 2
    return bare * math.exp(-alpha_l) + (1.0 - math.exp(-alpha_l))


def variance_extrema(g_l: float, alpha_l: float = 0.0) -> tuple[float, float]:
    """(min, max) of the variance over chi, in closed form.

    The chi-dependence is 1 + Gl^2/2 + R cos(2 chi + psi) with
    R = |Gl| sqrt(1 + Gl^2/4), so the extrema are analytic.
    """
    r = abs(g_l) * math.sqrt(1.0 + g_l * g_l / 4.0)
    base = 1.0 + g_l * g_l / 2.0
    att = math.exp(-alpha_l)
    lost = 1.0 - att
    return (base - r) * att + lost, (base + r) * att + lost


def optimal_phase(g_l: float, alpha_l: float = 0.0) -> tuple[float, float]:
    """Phase chi* minimizing the variance, and the minimum itself.

    Raises for Gl = 0, where the variance is flat and no optimum exists.
    """
    if g_l == 0.0:
        raise ValidationError("rotation_strength",
                              "variance is flat at Gl = 0; no optimal phase")
    # V - base = A cos(2chi) + B sin(2chi) = R cos(2chi - psi),
    # A = Gl^2/2, B = -Gl, psi = atan2(B, A); minimum at 2chi = pi + psi
    psi = math.atan2(-g_l, g_l * g_l / 2.0)
    chi_star = ((math.pi + psi) / 2.0) % math.pi
    v_min, _ = variance_extrema(g_l, alpha_l)
    return chi_star, v_min


def min_variance_db(g_l: float, alpha_l: float = 0.0) -> float:
    """Minimum variance in dB relative to the QNL (negative = squeezing)."""
    v_min, _ = variance_extrema(g_l, alpha_l)
    return 10.0 * math.log10(v_min)
