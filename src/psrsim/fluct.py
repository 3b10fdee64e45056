"""Quadrature noise of the orthogonally polarized vacuum mode.

Linearizing the Bloch-Maxwell system around the symmetric steady state
gives a closed 2x2 propagation equation for the sideband fluctuations
(da_y, da_y^dag) of the y-polarized vacuum mode,

    d(da_y)/dz = -Gamma(w) da_y + kappa(w) (da_y - da_y^dag) + F_y ,

with z in cell lengths.  kappa(w) = kappa(0) Lambda(w) is the
cross-Kerr coupling, Gamma(w) collects the transit phase, kappa(w) and
the dephasing/absorption term kappa(0)* Lambda'(w).  F_y is the atomic
Langevin source, a fixed frequency-dependent combination of the
coherence noises f_y = (F_14 + F_23)/sqrt(2), their adjoints, and the
population-difference noises f_z = (F_22 - F_11)/sqrt(2),
f_z' = (F_44 - F_33)/sqrt(2).

Second moments are transported deterministically: the 2x2 sideband
covariance obeys a linear equation with a source given by the atomic
diffusion matrix (generalized Einstein relations evaluated in the
steady state), scaled by the cooperativity.  Output quadrature spectra
are QNL-normalized; commutator preservation ([da_y, da_y^dag] = 1 at
the output) holds identically, is checked on every noisy spectrum and
is exposed as a diagnostic.

Every coefficient is a rational function of (I_x, Delta, w) over one
denominator D(w), with numerators linear in I_x.  ``_sidebands``
stores their I_x-free parts and I_x coefficients once per call, and
the kernel evaluates them at any number of intensities at once.

With constant coefficients (the undepleted drive) the covariances are
transported in the closed form of ``_transport``; a depleted drive
takes uniform fourth-order Magnus steps through its intensity profile
I_x(z), each step's map from the same closed form.  2x2 stacks are
held component-wise, shape (2, 2, *stack), so every product is a few
elementwise operations.  Their last axis holds u = (w, -w): the
partner -u of each sideband is the other half of the stack
(``_partner``), so a map is (e^M, F).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bloch
from .core import DriveParams, EnsembleParams, NumericalError, ValidationError

# noise basis order used throughout: (f_y, f_y^dag, f_z, f_z')
FY, FYD, FZ, FZP = 0, 1, 2, 3

# input vacuum: <da da^dag> = 1, all other second moments zero; its
# commutator matrix S(w) - S(-w)^T
_VACUUM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_COMMUTATOR = _VACUUM - _VACUUM.T


class _Sidebands(NamedTuple):
    """The intensity-free factors of the kernel at u = (w, -w).

    Each row holds, over the common denominator D(u), the numerators of
    Lambda, Lambda', A + B, B, A/(-iu) and A/(2-iu), then D itself:
    ``num + I_x num_ix`` at I_x > 0 and ``free`` at I_x = 0.
    """

    detuning: float
    truncate_dephasing: bool
    u: np.ndarray              # (2n,) signed sidebands
    num: np.ndarray            # (2n, 7) the I_x-free parts
    num_ix: np.ndarray         # (2n, 7) the coefficients of I_x
    free: np.ndarray           # (2n, 7) I_x = 0, -iu (2-iu) cancelled
    zero: np.ndarray           # (2n,) whether u = 0
    transit: np.ndarray        # iu gamma l / c, the transit phase


def _sidebands(ens: EnsembleParams, detuning: float, omegas,
               truncate_dephasing: bool) -> _Sidebands:
    """Everything of the kernel at u = (omegas, -omegas) that does not
    depend on I_x."""
    w = np.asarray(omegas, dtype=float)
    u = np.concatenate([w, -w])
    de = detuning
    iu = 1j * u
    p1 = 1.0 - iu
    p2 = 2.0 - iu
    p1_sq = p1 ** 2
    c1 = 1.0 - 1j * de - iu
    a_red = c1 * -iu                    # A D / (2-iu)
    zero = np.zeros_like(iu)
    return _Sidebands(
        detuning=de, truncate_dephasing=truncate_dephasing, u=u,
        num=np.stack([zero, -iu * (1.0 - 1j * de) * c1 * p2, a_red * p2,
                      zero, c1 * p2, a_red,
                      -iu * p2 * (p1_sq + de * de)], axis=1),
        num_ix=np.stack([p1 * p2, iu * p1, p1, p1, zero, zero,
                         2.0 * p1_sq], axis=1),
        free=np.stack([zero, (1.0 - 1j * de) * c1, c1, zero, zero, zero,
                       p1_sq + de * de], axis=1),
        zero=u == 0.0,
        transit=iu * ens.transit_time)


def _ratios(sb: _Sidebands, ix: np.ndarray) -> np.ndarray:
    """Lambda, Lambda', A + B, B, A/(-iu) and A/(2-iu) at ``sb``'s
    sidebands and the intensities I_x, shape (k, 2n, 6) for ``ix`` of
    shape (k,).

    D(u) = 2 I_x (1-iu)^2 - iu (2-iu) ((1-iu)^2 + Delta^2).  At u = 0
    the continuity values Lambda = 1, Lambda' = 0 are used.  With no
    drive (I_x = 0) the factor -iu (2-iu) common to D and every
    numerator is cancelled, so all limits at u = 0 are finite; the
    f_z weights, which carry sqrt(I_x), are then 0.
    """
    ix = ix[:, None, None]
    rows = np.where(ix == 0.0, sb.free, sb.num + ix * sb.num_ix)
    d = rows[..., 6:]
    # D(0) = 2 I_x: a pole needs D(u) = 0 at real u != 0
    if not d.all():
        i, j, _ = np.argwhere(d == 0.0)[0]
        raise NumericalError("response pole: D(omega) = 0",
                             {"intensity": float(ix[i, 0, 0]),
                              "detuning": sb.detuning,
                              "omega": float(sb.u[j])})
    q = rows[..., :6] / d
    if sb.zero.any():
        q[:, sb.zero, 0] = ix[:, :, 0] != 0.0
    return q


def _rows(sb: _Sidebands, ix: np.ndarray, k0: np.ndarray) -> np.ndarray:
    """The first rows of the drift M(u) and of the Langevin source P(u)
    at ``sb``'s sidebands and each intensity, shape (k, 2n, 6):
    M_12 = -kappa(0) Lambda, M_11 = -kappa(0)* Lambda' without the
    transit phase, then the F_y weights of (f_y, f_y^dag, f_z, f_z'),
    (A + B, B, -i sqrt(I_x/2) A/(-iu), -i sqrt(I_x/2) A/(2-iu)).

    The source row follows from eliminating the atomic fluctuations;
    the population-noise weights are finite at u = 0 because A carries
    a factor of u.  (Commutator preservation of the propagated field
    pins both the sign and the magnitude of the f_z weight.)  The second
    rows at u, of da_y^dag and F_y^dag, are the first rows at -u
    conjugated, with (M_11, M_12) and (f_y, f_y^dag) swapped.
    """
    scale = np.ones((ix.size, 6), dtype=complex)
    scale[:, 0] = -k0
    scale[:, 1] = 0.0 if sb.truncate_dephasing else -k0.conj()
    scale[:, 4:] = -1j * np.sqrt(0.5 * ix)[:, None]
    return _ratios(sb, ix) * scale[:, None, :]


def _steady_state(ens: EnsembleParams, ix: np.ndarray, detuning: float,
                  noisy: bool):
    """kappa(0) and, if ``noisy``, C times the distinct non-zero entries
    (t, p_e, c) of the ordered atomic diffusion table, both from the
    steady state of the linear drive at each intensity I_x of ``ix``.

    The table's [i, j] entry is the white-noise density of <f_i f_j> in
    the basis (f_y, f_y^dag, f_z, f_z'), per atom, from the generalized
    Einstein relations: for operator pairs (P, Q) the density of
    <F_P F_Q> is <D+(PQ) - D+(P)Q - P D+(Q)> in the steady state, with
    D+ the dissipative part of the Heisenberg generator (the Hamiltonian
    part cancels).  That state holds the populations p_k and the
    coherences <sigma_14> = -<sigma_23> only, and the relations leave
    five entries:

        <f_y f_y^dag> = p1 + p2 + p3 + p4 = t,
        <f_z f_z> = <f_z' f_z'> = p3 + p4 = p_e,
        <f_y f_z'> = <sigma_14> - <sigma_23> = c,  <f_z' f_y^dag> = c*.

    The Gram table <f_i f_j^dag> (the ordered one with the f_y and
    f_y^dag columns swapped) is then Hermitian and block diagonal:
    [[t, c], [c*, p_e]] on (f_y, f_z'), p_e on f_z and 0 on f_y^dag.  It
    is positive semidefinite when the smaller eigenvalue of the 2x2
    block is; below -1e-10, or NaN, at any intensity raises
    NumericalError naming the first.
    """
    p_g, p_e, coh = bloch.linear_steady_state(ix, detuning)
    cc = ens.cooperativity
    k0 = -1j * cc * coh
    if not noisy:
        return k0, ()
    t = 2.0 * (p_g + p_e)
    p_e = 2.0 * p_e
    c = 2.0 * np.sqrt(0.5 * ix) * coh
    with np.errstate(invalid="ignore"):     # NaN fails the test below
        lam_min = 0.5 * (t + p_e) - np.hypot(0.5 * (t - p_e), np.abs(c))
    bad = ~(lam_min >= -1e-10)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NumericalError(
            f"diffusion table not positive semidefinite "
            f"(min eigenvalue {lam_min[i]:.2e})",
            {"intensity": float(ix[i]), "detuning": detuning})
    return k0, (cc * t, cc * p_e, cc * c)


def _partner(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """The partner of each sideband of a stack whose ``axis`` holds
    u = (w, -w): the stack with the two halves of that axis swapped."""
    half = a.shape[axis] // 2
    return a.take(np.arange(-half, half), axis)


def _kernel(ens: EnsembleParams, sb: _Sidebands, intensities,
            noisy: bool):
    """The drifts M(u) of (da_y, da_y^dag) and the Langevin source
    densities N(u) at ``sb``'s sidebands u and each of the intensities
    I_x, component-wise, shape (2, 2, k, 2n).

    N(u) = C P(u) D P(-u)^T with D the ordered diffusion table, written
    out from its five entries; without ``noisy`` it is 0.
    """
    ix = np.asarray(intensities, dtype=float)
    k0, weights = _steady_state(ens, ix, sb.detuning, noisy)
    rows = _rows(sb, ix, k0)
    m = np.empty((2, 2) + rows.shape[:2], dtype=complex)
    m[0, 0] = sb.transit + rows[..., 1]
    m[0, 1] = rows[..., 0]
    m[1, ::-1] = _partner(m[0]).conj()
    if not noisy:
        return m, np.zeros_like(m)
    # the rows of P(u), and of P(-u) = the same rows at -u
    p = np.stack([rows[..., 2:],
                  _partner(rows, 1)[..., [3, 2, 4, 5]].conj()])[:, None]
    q = np.moveaxis(_partner(p, 3), 0, 1)
    t, p_e, c = (w[:, None] for w in weights)
    src = (p[..., FY] * (t * q[..., FYD] + c * q[..., FZP])
           + p[..., FZP] * (p_e * q[..., FZP] + c.conj() * q[..., FYD])
           + p_e * (p[..., FZ] * q[..., FZ]))
    return m, src


@dataclass(frozen=True)
class ComplexResponse:
    """Propagation coefficients at one sideband frequency, without the
    transit phase -i w gamma l / c (which the limit regimes leave out)."""

    kappa: complex             # kappa(w) = kappa(0) Lambda(w)
    gamma: complex             # Gamma(w) = kappa(w) + kappa(0)* Lambda'(w)
    drift: complex             # -kappa(0)* Lambda'(w), the drift on da_y
    lam: complex
    lam_prime: complex
    kappa0: complex


def response(ens: EnsembleParams, drive: DriveParams,
             omega: float) -> ComplexResponse:
    """kappa(0), Lambda, Lambda', kappa(w), Gamma(w) at sideband w >= 0.

    At w = 0 the continuity values Lambda = 1, Lambda' = 0 are used
    (they are forced by the formulas whenever I_x > 0; with no drive
    the limits are Lambda = 0 and Lambda' = (1 - i Delta)^2 / (1 + Delta^2)).
    """
    if omega < 0:
        raise ValidationError("omega", "must be >= 0")
    k0 = bloch.kappa_zero(ens, drive)
    lam, lamp = _ratios(_sidebands(ens, drive.detuning, [omega], False),
                        np.array([drive.intensity]))[0, 0, :2]
    kap = k0 * lam
    return ComplexResponse(kappa=kap,
                           gamma=kap + np.conj(k0) * lamp,
                           drift=-np.conj(k0) * lamp,
                           lam=lam, lam_prime=lamp, kappa0=k0)


# theta_m: the largest scaled norm at which the degree-m Taylor series of
# exp (and of phi_1) is accurate to double precision,
# theta^(m+1) e^theta / (m+1)! <= 2^-53, for m = 1..18; theta_18 is capped
# at 1, the bound the squaring count scales every norm below
_THETA = np.array([(math.factorial(m + 1) * 2.0 ** -53 / math.e)
                   ** (1.0 / (m + 1)) for m in range(1, 18)] + [1.0])
_EYE = np.eye(2)[:, :, None]
# the closed form is taken where |K|_max <= _CONFLUENT |d|: the divided
# differences in d then lose at most about that factor in precision
_CONFLUENT = 10.0


def _mul(a, b):
    """Products of 2x2 stacks stored component-wise, shape (2, 2, ...)."""
    return a[:, :1] * b[None, 0] + a[:, 1:] * b[None, 1]


def _t(a):
    """Transposes of a component-wise 2x2 stack."""
    return a.swapaxes(0, 1)


def _phi1(x):
    """phi_1(x) = (e^x - 1)/x, from its series where |x| < 2^-12 (a
    denormal x makes expm1(x)/x NaN)."""
    series = 1.0 + x * (0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0)))
    return np.where(np.abs(x) < 2.0 ** -12, series, np.expm1(x) / x)


def _drifts(gen: np.ndarray):
    """m = tr M / 2, K = M - m I, d with d^2 = K00^2 + K01 K10, e^M, and
    whether |K|_max <= _CONFLUENT |d|, for a component-wise stack of
    drifts M."""
    m = 0.5 * (gen[0, 0] + gen[1, 1])
    k00 = 0.5 * (gen[0, 0] - gen[1, 1])
    k = gen.copy()
    k[0, 0] = k00
    k[1, 1] = -k00
    d = np.sqrt(k00 * k00 + k[0, 1] * k[1, 0])
    # e^(m +- d) directly: e^m cosh d overflows where e^(m + d) does not
    ep, em = np.exp(m + d), np.exp(m - d)
    e = (0.5 * (ep - em) / d) * k
    c = 0.5 * (ep + em)
    e[0, 0] += c
    e[1, 1] += c
    return m, k, d, e, np.abs(k).max(axis=(0, 1)) <= _CONFLUENT * np.abs(d)


def _transport(gen: np.ndarray, src: np.ndarray):
    """The map (e^M, F) of dS/dz = M S + S M'^T + src over z in [0, 1]
    with constant coefficients: S(1) = e^M S(0) e^(M'^T) + F, with
    F = int_0^1 e^(Mz) src e^(M'^T z) dz.

    The stacks and maps are component-wise, shape (2, 2, *stack), with
    u = (w, -w) on the last axis, as ``_kernel`` builds them: the
    partner drift M' = M(-u) is ``_partner(M)``, and e^(M') is
    ``_partner(e^M)``.  With m = tr M / 2, K = M - m I and
    d^2 = K00^2 + K01 K10 (so K^2 = d^2 I), and m', K', d' from M',

        e^M = ((e^(m+d) + e^(m-d)) I + (e^(m+d) - e^(m-d)) K / d) / 2,
        F = g1 src + g2 K src + g3 src K'^T + g4 K src K'^T,

    where g1..g4 are the mean and the divided differences in d, in d'
    and in both of phi_1(x) = (e^x - 1)/x at the four eigenvalue sums
    x = m + m' +- d +- d' of L(X) = M X + X M'^T, formed once per +-w
    pair.  The divided differences lose about |K|/|d| in precision, so
    a pair with a near-confluent drift (|K|_max > 10 |d|; a Jordan
    block has d = 0), or whose closed form overflows, takes ``_taylor``.
    Diagonal drift pairs (no drive, or no atoms) take e^M = diag(e^M_ii)
    and F_ij = src_ij phi_1(M_ii + M'_jj).  Each pair is on its own.
    """
    half = gen.shape[-1] // 2
    undriven = (gen[0, 1] == 0.0) & (gen[1, 0] == 0.0)
    undriven &= _partner(undriven)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m, k, d, e, exact = _drifts(gen)
        nk, d_ = _mul(src, _t(_partner(k))), _partner(d)
        # at -w, d and d' swap places: dm changes sign, so the phi_1
        # values at s0 + dm and s0 - dm swap, and g2, g3 too
        s0 = m[..., :half] + m[..., half:]
        dp, dm = d[..., :half] + d[..., half:], d[..., :half] - d[..., half:]
        pp, mm, pm, mp = _phi1(np.stack([s0 + dp, s0 - dp, s0 + dm,
                                         s0 - dm]))
        g1, g4 = 0.25 * ((pp + mm) + (pm + mp)), 0.25 * ((pp + mm) - (pm + mp))
        g2, g3 = 0.25 * ((pp - mm) + (pm - mp)), 0.25 * ((pp - mm) - (pm - mp))
        g1, g4 = np.concatenate((g1, g1), -1), np.concatenate((g4, g4), -1)
        g2, g3 = np.concatenate((g2, g3), -1), np.concatenate((g3, g2), -1)
        f = (g1 * src + g3 / d_ * nk) + _mul(k, g2 / d * src
                                            + g4 / (d * d_) * nk)
        ok = (exact & np.isfinite(e).all(axis=(0, 1))
              & np.isfinite(f).all(axis=(0, 1)))
        slow = ~undriven & ~(ok & _partner(ok))
        if slow.any():
            # taken sideband-major, the slow pairs are a +-w stack
            pick = np.moveaxis(slow, -1, 0)
            e_, f_, gen_, src_ = (np.moveaxis(a, -1, 2)
                                  for a in (e, f, gen, src))
            e_[:, :, pick], f_[:, :, pick] = _taylor(gen_[:, :, pick],
                                                     src_[:, :, pick])
        if undriven.any():
            diag = np.moveaxis(np.diagonal(gen), -1, 0)
            eye = np.eye(2).reshape((2, 2) + (1,) * undriven.ndim)
            e = np.where(undriven, eye * np.exp(diag)[:, None], e)
            f = np.where(undriven, src * _phi1(diag[:, None]
                                               + _partner(diag)[None, :]), f)
    return e, f


def _taylor(gen: np.ndarray, src: np.ndarray):
    """``_transport`` of driven +-w stacks by Taylor series and squaring.

    Each sideband takes its own squaring count s and Taylor degree
    m <= 18 from eta = ||M||_1 + ||M'||_1, which bounds the 1-norm of
    the Kronecker-sum generator L, so that h eta <= theta_m with
    h = 2^-s; a sideband and its partner share eta, s and m.  Horner
    gives E = e^(hM) and F = h phi_1(hL) src; then F <- F + E F E'^T
    and E <- E^2 run s times, with E' = ``_partner(E)`` throughout.
    """
    norm = np.abs(gen).sum(axis=0).max(axis=0)
    eta = norm + _partner(norm)
    s = np.maximum(np.frexp(eta)[1], 0)
    h = np.ldexp(1.0, -s)
    deg = np.minimum(np.searchsorted(_THETA, eta * h) + 1, _THETA.size)
    # Horner factors 1/j (exp) and 1/(j+1) (phi_1), j = max(deg)..1;
    # a sideband of lower degree keeps I and src until j reaches its own
    j = np.arange(deg.max(initial=0), 0, -1.0)[:, None]
    c_exp = np.where(j <= deg, 1.0 / j, 0.0)
    c_phi = np.where(j <= deg, 1.0 / (j + 1.0), 0.0)
    hm = gen * h
    hb = _t(_partner(hm))
    e, f = np.broadcast_to(_EYE, gen.shape), src
    for a, b in zip(c_exp, c_phi):
        e = _EYE + _mul(hm, e) * a
        f = src + (_mul(hm, f) + _mul(f, hb)) * b
    f = f * h
    for t in range(int(s.max(initial=0))):
        live = s > t
        f = np.where(live, f + _mul(_mul(e, f), _t(_partner(e))), f)
        e = np.where(live, _mul(e, e), e)
    return e, f


def _apply(maps, sigma: np.ndarray) -> np.ndarray:
    """E sigma E'^T + F of maps (E, F) on covariances sigma, all
    component-wise +-w stacks, E' = ``_partner(E)`` (an overflowed map
    gives inf or NaN, not a warning)."""
    e, f = maps
    with np.errstate(over="ignore", invalid="ignore"):
        return _mul(_mul(e, sigma), _t(_partner(e))) + f


def _compose(maps, counts):
    """The map (E, F) of each run of consecutive steps along axis 2, the
    runs ``counts`` steps long (powers of two, longest first), as a tree
    of pairwise compositions: (E2, F2) after (E1, F1) is
    (E2 E1, E2 F1 E2'^T + F2), O(log n) array operations for all runs."""
    e, f = maps
    counts = list(counts)
    with np.errstate(over="ignore", invalid="ignore"):
        while counts[0] > 1:
            live = sum(c for c in counts if c > 1)
            late = e[:, :, 1:live:2], f[:, :, 1:live:2]
            e, f = (np.concatenate((a, b[:, :, live:]), axis=2)
                    for a, b in ((_mul(late[0], e[:, :, 0:live:2]), e),
                                 (_apply(late, f[:, :, 0:live:2]), f)))
            counts = [c // 2 if c > 1 else c for c in counts]
    return e, f


# the two Gauss nodes of a step
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
# step doubling stops at an error of _TOL relative, or at _MAX_STEPS steps
_MAX_STEPS = 4096
_TOL = 1e-10
# sideband-steps per kernel and transport call, which bounds the memory
_BATCH = 1 << 15


def _magnus_maps(ens: EnsembleParams, sb: _Sidebands, i0: float,
                 noisy: bool, z0: np.ndarray, h: np.ndarray):
    """The maps of the steps [z0, z0 + h] of the depleted transport, by
    the two-point Gauss fourth-order Magnus expansion.

    With L_i(X) = M_i X + X M_i'^T + N_i at the Gauss points,
    Omega = h/2 (L_1 + L_2) + (sqrt(3) h^2/12) [L_2, L_1], and
    [L_2, L_1] has drift [M_2, M_1], partner drift [M_2', M_1'] and
    source M_2 N_1 + N_1 M_2'^T - M_1 N_2 - N_2 M_1'^T.  Omega is again
    of the form L, its partner drift the drift at -u, so
    ``_transport`` exponentiates every step at once.  Each L_i maps the
    vacuum commutator matrix to 0, and so does [L_2, L_1]: every step
    preserves the commutator, whatever the step count.
    """
    ix = bloch.depleted_intensity(ens.cooperativity, i0, sb.detuning,
                                  (z0[:, None] + h[:, None] * _GAUSS).ravel())
    (m1, m2), (n1, n2) = ((a[:, :, 0::2], a[:, :, 1::2])
                          for a in _kernel(ens, sb, ix, noisy))
    p1, p2 = _partner(m1), _partner(m2)
    half = 0.5 * h[:, None]
    cw = math.sqrt(3.0) / 12.0 * (h * h)[:, None]
    drift = half * (m1 + m2) + cw * (_mul(m2, m1) - _mul(m1, m2))
    src = half * (n1 + n2) + cw * ((_mul(m2, n1) + _mul(n1, _t(p2)))
                                   - (_mul(m1, n2) + _mul(n2, _t(p1))))
    return _transport(drift, src)


def _evolve(ens: EnsembleParams, sb: _Sidebands, i0: float, noisy: bool,
            levels) -> list:
    """Covariances at z = 1 from the vacuum after each number of
    uniform Magnus steps in ``levels`` (powers of two).  All steps go
    through the kernel and the transport together, in calls of at most
    ``_BATCH`` sideband-steps whose maps compose as one tree."""
    per_call = 1 << max(0, (_BATCH // sb.u.size).bit_length() - 1)
    runs = [(lv, n, start, min(n, per_call)) for lv, n in enumerate(levels)
            for start in range(0, n, per_call)]
    calls = [[]]
    for run in runs:
        if sum(r[3] for r in calls[-1]) + run[3] > per_call:
            calls.append([])
        calls[-1].append(run)
    sig = [_VACUUM[:, :, None]] * len(levels)
    for call in calls:
        call.sort(key=lambda run: -run[3])      # as _compose takes them
        z0 = np.concatenate([(start + np.arange(cnt)) / n
                             for _, n, start, cnt in call])
        h = np.concatenate([np.full(cnt, 1.0 / n) for _, n, _, cnt in call])
        e, f = _compose(_magnus_maps(ens, sb, i0, noisy, z0, h),
                        [cnt for *_, cnt in call])
        for r, (lv, *_) in enumerate(call):
            sig[lv] = _apply((e[:, :, r], f[:, :, r]), sig[lv])
    return sig


def _sigma_out_depleted(ens: EnsembleParams, drive: DriveParams,
                        sb: _Sidebands, noisy: bool) -> np.ndarray:
    """Output covariances at ``sb``'s sidebands, component-wise, with
    the drive depleting along z.

    Uniform Magnus steps, 2, 4 and 8 in one batch, then doubled.  The
    error of S_2N is a fifteenth of its change from S_N once the step
    resolves the absorption; before, it can be far larger.  S_theta
    changes by at most |d iso| + 2 |d anom| (``_symmetrized``), so S_2N
    is taken when that is within 15 _TOL S_min at every w, and the
    change before it within 64 times as much: both fall as fourth order
    does.  That bounds every S_theta >= S_min to about _TOL relative.
    Past ``_MAX_STEPS`` steps (non-finite covariances never settle)
    raises NumericalError.
    """
    levels, old, settled = [2, 4, 8], None, False
    while True:
        for sig in _evolve(ens, sb, drive.intensity, noisy, levels):
            iso, anom = _symmetrized(sig)
            if old is not None:
                with np.errstate(over="ignore", invalid="ignore"):
                    diff = np.abs(iso - old[0]) + 2.0 * np.abs(anom - old[1])
                    size = 15.0 * _TOL * (iso.real - 2.0 * np.abs(anom))
                if settled and (diff <= size).all():
                    return sig
                settled = bool((diff <= 64.0 * size).all())
            old = iso, anom
        if levels[-1] >= _MAX_STEPS:
            raise NumericalError(f"depleted transport not converged in "
                                 f"{levels[-1]} steps",
                                 {"detuning": drive.detuning})
        levels = [2 * levels[-1]]


@dataclass(frozen=True)
class QuadratureSpectrum:
    """Quadrature variances S_theta(w), QNL-normalized, at one detuning.

    ``values[i, j]`` is S at ``omegas[i]``, ``thetas[j]``; the closed
    form extrema over theta are kept alongside.  ``low_omega`` flags
    frequencies below the reporting floor where the linearized model
    accumulates very large pumping noise.
    """

    omegas: np.ndarray
    thetas: np.ndarray
    values: np.ndarray
    s_min: np.ndarray
    s_max: np.ndarray
    low_omega: np.ndarray
    detuning: float

    def __post_init__(self):
        finite = (np.isfinite(self.values).all(axis=1)
                  & np.isfinite(self.s_min) & np.isfinite(self.s_max))
        _check(~finite, self.detuning, self.omegas,
               lambda i: "non-finite quadrature variance")
        lowest = np.minimum(self.values.min(axis=1), self.s_min)
        _check(lowest < -1e-9, self.detuning, self.omegas,
               lambda i: f"negative quadrature variance ({lowest[i]:.3e})")

    def to_db(self) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.values, 1e-300))

    def min_db(self) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.s_min, 1e-300))

    def max_db(self) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.s_max, 1e-300))


def propagate_noise(ens: EnsembleParams, drive: DriveParams,
                    omega_grid, theta_grid, include_noise: bool = True,
                    truncate_dephasing: bool = False, deplete: bool = False,
                    omega_floor: float = 0.01) -> QuadratureSpectrum:
    """Output quadrature spectra S_theta(w) of the y-polarized vacuum.

    The input is vacuum (<da da^dag> = 1, all other moments zero); the
    Langevin sources act throughout the cell.  Spectra are symmetrized
    over +-w (what a spectrum analyzer reports).  ``include_noise``
    off drops the atomic sources; ``truncate_dephasing`` additionally
    reduces Gamma to its kappa part, leaving the bare cross-Kerr
    squeezing interaction.  ``deplete`` feeds the mean-field depletion
    of the drive along the cell into the coefficients (default keeps
    them constant, i.e. an undepleted drive); the whole grid then
    shares one step-doubled Magnus transport.  With no atoms or no
    drive nothing depletes, and the undepleted transport is taken.
    With the atomic sources on and the full Gamma, S_min S_max below
    1 - 1e-6 (the uncertainty bound) raises NumericalError naming
    (Delta, omega).
    """
    omegas = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    thetas = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    if (omegas < 0).any():
        raise ValidationError("omega_grid", "sideband frequencies must be >= 0")
    n = omegas.size
    noisy = include_noise and ens.cooperativity > 0.0
    sb = _sidebands(ens, drive.detuning, omegas, truncate_dephasing)
    # no atoms, or no drive: nothing depletes
    if deplete and ens.cooperativity > 0.0 and drive.intensity > 0.0:
        sig = _sigma_out_depleted(ens, drive, sb, noisy)
    else:
        sig = _sigma_out(ens, drive, sb, noisy)
    # before any arithmetic on them: an overflowed transport would warn
    finite = np.isfinite(sig).all(axis=(0, 1))
    _check(~(finite[:n] & finite[n:]), drive.detuning, omegas,
           lambda i: "non-finite quadrature variance")
    iso, anom = _symmetrized(sig)
    _check(np.abs(iso.imag) > 1e-8 * np.maximum(1.0, np.abs(iso.real)),
           drive.detuning, omegas, lambda i: f"non-real quadrature variance "
           f"(imag {iso.imag[i]:.2e})")
    s_theta = iso.real[:, None] + 2.0 * np.real(np.exp(2j * thetas)
                                                * anom[:, None])
    spread = 2.0 * np.abs(anom)
    spec = QuadratureSpectrum(omegas=omegas, thetas=thetas, values=s_theta,
                              s_min=iso.real - spread,
                              s_max=iso.real + spread,
                              low_omega=omegas < omega_floor,
                              detuning=drive.detuning)
    if noisy and not truncate_dephasing:
        # uncertainty: S_min S_max >= 1, compared as a quotient so that it
        # cannot overflow (S_max reaches 3e135 at C = 1e8, I_x = 1e6)
        with np.errstate(divide="ignore"):
            below = spec.s_min < (1.0 - 1e-6) / spec.s_max
        _check(below, drive.detuning, omegas,
               lambda i: f"uncertainty product below 1 "
               f"({spec.s_min[i] * spec.s_max[i]:.6g})")
        # commutator preservation, relative to the covariances' size
        # (1e2 absolute but 4e-16 relative at C = 1e7, I_x = 1e6)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            size = np.abs(sig).max(axis=(0, 1))
            rel = _commutator_excess(sig) / np.maximum(size[:n], size[n:])
        _check(~(rel <= 1e-8), drive.detuning, omegas,
               lambda i: f"output commutator not preserved "
               f"({rel[i]:.2e} relative)")
    return spec


def _check(bad: np.ndarray, detuning: float, omegas: np.ndarray,
           message) -> None:
    """Raise NumericalError naming (Delta, omega) of the first flagged
    sideband; ``message`` maps its index to the text."""
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NumericalError(message(i), {"detuning": detuning,
                                          "omega": float(omegas[i])})


def _sigma_out(ens: EnsembleParams, drive: DriveParams, sb: _Sidebands,
               noisy: bool) -> np.ndarray:
    """Output covariances at ``sb``'s sidebands, component-wise, with
    the undepleted drive: the one-step case of the depleted transport."""
    return _apply(_transport(*_kernel(ens, sb, [drive.intensity], noisy)),
                  _VACUUM[:, :, None, None])[:, :, 0]


def _symmetrized(sig: np.ndarray):
    """The +-w symmetrized moments (iso, anom) at each w of a +-w stack
    of covariances: S_theta = Re iso + 2 Re(e^(2i theta) anom)."""
    n = sig.shape[-1] // 2
    p, m = sig[..., :n], sig[..., n:]
    return (0.5 * (p[0, 1] + p[1, 0] + m[0, 1] + m[1, 0]),
            0.5 * (p[1, 1] + m[1, 1]))


def _commutator_excess(sig: np.ndarray) -> np.ndarray:
    """|S(w) - S(-w)^T - C0|_max at each w of a +-w covariance stack.

    The -w sideband is transported with the drift pair (M(-w), M(w)), so
    S(-w)^T obeys the +w equation with source N(-w)^T; by linearity
    S(w) - S(-w)^T is the transported commutator matrix, which starts
    at C0 = [[0, 1], [-1, 0]].
    """
    n = sig.shape[-1] // 2
    return np.abs(sig[..., :n] - _t(sig[..., n:])
                  - _COMMUTATOR[:, :, None]).max(axis=(0, 1))


def commutator_residual(ens: EnsembleParams, drive: DriveParams,
                        omega: float) -> float:
    """Max deviation of the output commutator matrix from its vacuum value.

    Read off the +-omega covariances with the full diffusion; absorption
    loss is exactly compensated by the noise inflow, so the result is
    zero up to roundoff (amplified at strongly amplifying parameter
    points).
    """
    sig = _sigma_out(ens, drive, _sidebands(ens, drive.detuning, [omega],
                                            False), True)
    return float(_commutator_excess(sig)[0])


# ---------------------------------------------------------------------------
# limit regimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HighSidebandLimit:
    """w >= gamma, Delta >> gamma response pair (kappa, Gamma)."""

    kappa: complex
    gamma: complex
    kappa_compact: complex     # deep-limit form, w >> gamma


def limit_high_sideband(ens: EnsembleParams, drive: DriveParams,
                        omega: float) -> HighSidebandLimit:
    """High-sideband (kappa, Gamma) in the far-detuned regime.

    ``kappa`` keeps the finite-w/gamma structure
    kappa(0) * s (1-iw)(2-iw) / (2 s (1-iw)^2 - iw(2-iw)); for
    w >> gamma it contracts to the compact
    -i delta0 s/((1+s)(1+2s)).  ``gamma`` is exactly
    -i delta0/(1+s): the finite-w corrections cancel in Gamma.
    """
    d0 = drive.linear_dephasing(ens)
    s = drive.saturation
    w = omega
    e = 2.0 * s * (1.0 - 1j * w) ** 2 - 1j * w * (2.0 - 1j * w)
    k0 = bloch.kappa_zero(ens, drive)
    kap = k0 * s * (1.0 - 1j * w) * (2.0 - 1j * w) / e
    return HighSidebandLimit(
        kappa=kap,
        gamma=-1j * d0 / (1.0 + s),
        kappa_compact=-1j * d0 * s / ((1.0 + s) * (1.0 + 2.0 * s)))


@dataclass(frozen=True)
class KerrLimit:
    """Dispersive (Kerr) regime coefficients, Delta >> sqrt(I_x) >> gamma."""

    dephasing: complex         # i delta0 on da_y
    kerr_ay: complex           # -2 i delta0 s on da_y
    kerr_aydag: complex        # +i delta0 s on da_y^dag
    noise_scale: float         # ~ C gamma^2 / Delta^2
    in_regime: bool


def kerr_in_regime(drive: DriveParams) -> bool:
    """The Kerr limit's validity gate, Delta >= 10 sqrt(I_x) >= 100 gamma."""
    sq_ix = math.sqrt(drive.intensity)
    return abs(drive.detuning) >= 10.0 * sq_ix and sq_ix >= 10.0


def limit_kerr(ens: EnsembleParams, drive: DriveParams) -> KerrLimit:
    """Kerr-limit evolution coefficients.

    Linear dephasing i delta0, cross-Kerr -i delta0 s (2 da_y -
    da_y^dag) and a coherence-noise scale C gamma^2/Delta^2.  Squeezing
    becomes possible when delta0 s ~ 1 while the noise scale stays
    small, the cold-atom operating point.  Warns outside ``kerr_in_regime``.
    """
    d0 = drive.linear_dephasing(ens)
    s = drive.saturation
    in_regime = kerr_in_regime(drive)
    if not in_regime:
        warnings.warn("Kerr limit outside its validity gate "
                      "(need Delta >= 10 sqrt(I_x) >= 100 gamma)",
                      stacklevel=2)
    return KerrLimit(dephasing=1j * d0,
                     kerr_ay=-2j * d0 * s,
                     kerr_aydag=1j * d0 * s,
                     noise_scale=ens.cooperativity / drive.detuning**2,
                     in_regime=in_regime)


@dataclass(frozen=True)
class HighSaturationLimit:
    """I_x >> Delta^2 evolution coefficients at sideband w."""

    coef_ay: complex           # drift on da_y
    coef_aydag: complex        # coupling to da_y^dag
    compact: complex           # i delta0/(2s): the w >> gamma form of both
    noise_scale: float         # ~ C gamma^2 / w^2


def limit_high_saturation(ens: EnsembleParams, drive: DriveParams,
                          omega: float) -> HighSaturationLimit:
    """Saturated-regime coefficients (I_x >> Delta^2, w >= gamma).

    In the I_x -> infinity limit the response factorizes:
    coupling -kappa -> -kappa(0) (2-iw)/(2(1-iw)) and drift
    -> -kappa(0)^* iw/(2(1-iw)); both contract to i delta0/(2 s) for
    w >> gamma.  The accompanying pumping noise scales like
    C gamma^2 / w^2 >> 1 for cell-sized C, which is what forbids
    squeezing at all sideband frequencies in hot vapour.
    """
    d0 = drive.linear_dephasing(ens)
    s = drive.saturation
    w = omega
    k0 = bloch.kappa_zero(ens, drive)
    coef_aydag = -k0 * (2.0 - 1j * w) / (2.0 * (1.0 - 1j * w))
    coef_ay = -np.conj(k0) * 1j * w / (2.0 * (1.0 - 1j * w))
    scale = ens.cooperativity / omega**2 if omega > 0 else float("inf")
    return HighSaturationLimit(coef_ay=coef_ay, coef_aydag=coef_aydag,
                               compact=1j * d0 / (2.0 * s),
                               noise_scale=scale)
