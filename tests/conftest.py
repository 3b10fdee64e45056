"""Shared test oracles: the Liouvillian and brute-force time
integration, the steady state of any (elliptical) drive and its
mean-field derivative, exact arithmetic, the scalar (one sideband at a
time) fluctuation chain, the Einstein relations, the kernel and the
covariance transport on stacks of 2x2 matrices, the kernel with its
rows stored sideband-major and phi_1 by np.where, the transport by 5x5
exponentials (scipy and 50-digit mpmath), the depleted transport by
scipy's RK45 and the kernel built afresh at each intensity, Doppler
quadrature, the two-wofz composite kappa, the fit loop with the
complex-stack Jacobian and one SVD per step, the low-sideband limit and
the phenomenological rotation model's inverse."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import solve_ivp

from psrsim import bloch, fluct
from psrsim.core import (DriveParams, EnsembleParams, NumericalError,
                         ValidationError)
from psrsim.ensemble import wofz
from psrsim.matsko import min_variance_db

UNIT_C = EnsembleParams.from_cooperativity(1.0)


def sigma_op(i: int, j: int) -> np.ndarray:
    """|i><j| on the 4-level space, 1-based labels."""
    m = np.zeros((4, 4), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


def jump_operators() -> list[np.ndarray]:
    """Four independent decay channels, each at rate gamma = 1."""
    return [sigma_op(g, e) for e in (3, 4) for g in (1, 2)]


def adjoint_dissipator(x: np.ndarray) -> np.ndarray:
    """Dissipative part of the Heisenberg-picture generator on operator x."""
    out = np.zeros((4, 4), dtype=complex)
    for j in jump_operators():
        jd = j.conj().T
        out += jd @ x @ j - 0.5 * (jd @ j @ x + x @ jd @ j)
    return out


def hamiltonian(omega_plus: complex, omega_minus: complex,
                detuning: float) -> np.ndarray:
    """Rotating-frame Hamiltonian (units of hbar*gamma)."""
    h = detuning * (sigma_op(3, 3) + sigma_op(4, 4))
    h -= (omega_plus * sigma_op(4, 1) + np.conj(omega_plus) * sigma_op(1, 4))
    h -= (omega_minus * sigma_op(3, 2)
          + np.conj(omega_minus) * sigma_op(2, 3))
    return h


def liouvillian(omega_plus: complex, omega_minus: complex,
                detuning: float) -> np.ndarray:
    """16x16 generator L with vec(rho_dot) = L vec(rho) (row-major vec)."""
    h = hamiltonian(omega_plus, omega_minus, detuning)
    eye = np.eye(4)
    L = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for j in jump_operators():
        jdj = j.conj().T @ j
        L += np.kron(j, j.conj()) - 0.5 * (np.kron(jdj, eye)
                                           + np.kron(eye, jdj.T))
    return L


@dataclass(frozen=True)
class SteadyState:
    """Stationary populations and optical coherences.

    ``coh_14`` is <sigma_14> (ground-excited coherence of the sigma+
    transition), ``coh_23`` the sigma- one.  Populations sum to 1.
    """

    populations: tuple[float, float, float, float]
    coh_14: complex
    coh_23: complex


def steady_state(omega_plus, omega_minus, detuning) -> SteadyState:
    """Stationary solution of the optical Bloch equations for any pair
    of circular Rabi amplitudes Omega+- = g <a+->.

    With both drives off the unpolarized convention pop1 = pop2 = 1/2
    is returned; with one drive on, optical pumping empties the driven
    ground state into the undriven one.
    """
    om_p = complex(omega_plus)
    om_m = complex(omega_minus)
    den = 1.0 + detuning**2
    sp = abs(om_p) ** 2 / den
    sm = abs(om_m) ** 2 / den
    if sp == 0.0 and sm == 0.0:
        pops = (0.5, 0.5, 0.0, 0.0)
    elif sm == 0.0:
        pops = (0.0, 1.0, 0.0, 0.0)
    elif sp == 0.0:
        pops = (1.0, 0.0, 0.0, 0.0)
    else:
        # excited populations are equal in steady state; the ground
        # populations balance the per-transition pump rates
        t = 1.0 / ((1.0 + sp) / sp + (1.0 + sm) / sm + 2.0)
        pops = (t * (1.0 + sp) / sp, t * (1.0 + sm) / sm, t, t)
    coh_14 = 1j * om_p * (pops[0] - pops[3]) / (1.0 + 1j * detuning)
    coh_23 = 1j * om_m * (pops[1] - pops[2]) / (1.0 + 1j * detuning)
    return SteadyState(populations=pops, coh_14=coh_14, coh_23=coh_23)


def linear_state(drive) -> SteadyState:
    """``bloch.linear_steady_state`` as a SteadyState, phase 0:
    Omega+- = +-sqrt(I_x/2)."""
    p_g, p_e, r = bloch.linear_steady_state(drive.intensity, drive.detuning)
    om = math.sqrt(drive.intensity / 2.0)
    return SteadyState((p_g, p_g, p_e, p_e), om * r, -om * r)


def field_derivative(ens, omega_plus, omega_minus, detuning) -> np.ndarray:
    """dOmega+-/dz = g d<a+->/dz = i C (<sigma_14>, <sigma_23>), z in
    cell lengths, the atoms in the steady state of the local field."""
    st = steady_state(omega_plus, omega_minus, detuning)
    return 1j * ens.cooperativity * np.array([st.coh_14, st.coh_23])


def evolve_density_matrix(omega_plus, omega_minus, detuning,
                          t_end=1000.0, method="expm"):
    """Time-domain integration of the Bloch equations (noise dropped).

    Starts from the unpolarized ground manifold and marches the full
    master equation to ``t_end`` (units of 1/gamma).  ``expm`` (default)
    takes exact fixed unit time steps with the matrix exponential of
    the constant generator; ``ivp`` uses an adaptive Runge-Kutta solver
    (slow at strong drives, used to cross-check the stepper).  Returns
    the 4x4 density matrix.
    """
    liou = liouvillian(complex(omega_plus), complex(omega_minus), detuning)
    rho0 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex).reshape(-1)
    if method == "expm":
        from scipy.linalg import expm
        steps = int(round(t_end))
        prop = expm(liou)  # one unit of gamma t per step
        rho = rho0
        for _ in range(steps):
            rho = prop @ rho
        return rho.reshape(4, 4)
    lre = np.block([[liou.real, -liou.imag], [liou.imag, liou.real]])
    y0 = np.concatenate([rho0.real, rho0.imag])
    sol = solve_ivp(lambda _t, y: lre @ y, (0.0, t_end), y0, method="DOP853",
                    rtol=1e-10, atol=1e-12)
    assert sol.success, sol.message
    yf = sol.y[:, -1]
    return (yf[:16] + 1j * yf[16:]).reshape(4, 4)


def oracle_steady_values(omega_plus, omega_minus, detuning, **kw):
    """(populations, <sigma_14>, <sigma_23>) from the time-domain oracle."""
    rho = evolve_density_matrix(omega_plus, omega_minus, detuning, **kw)
    pops = np.diag(rho).real
    return pops, rho[3, 0], rho[2, 1]


class QC:
    """Exact complex arithmetic over rationals, for formula oracles."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        o = _qc(o)
        return QC(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = _qc(o)
        return QC(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return _qc(o) - self

    def __mul__(self, o):
        o = _qc(o)
        return QC(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        o = _qc(o)
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("exact pole")
        return QC((self.re * o.re + self.im * o.im) / den,
                  (self.im * o.re - self.re * o.im) / den)

    __radd__ = __add__
    __rmul__ = __mul__

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)


def _qc(v):
    if isinstance(v, QC):
        return v
    return QC(v)


_I = QC(0, 1)


def exact_denominator(ix: Fraction, de: Fraction, w: Fraction) -> QC:
    one = QC(1)
    return (QC(2) * QC(ix) * (one - _I * QC(w)) * (one - _I * QC(w))
            - _I * QC(w) * (QC(2) - _I * QC(w))
            * ((one - _I * QC(w)) * (one - _I * QC(w)) + QC(de) * QC(de)))


def exact_lambda(ix, de, w) -> QC:
    one = QC(1)
    return (QC(ix) * (one - _I * QC(w)) * (QC(2) - _I * QC(w))
            / exact_denominator(ix, de, w))


def exact_lambda_prime(ix, de, w) -> QC:
    one = QC(1)
    num = (QC(ix) * (one - _I * QC(w))
           - (one - _I * QC(de)) * (one - _I * QC(de) - _I * QC(w))
           * (QC(2) - _I * QC(w)))
    return _I * QC(w) * num / exact_denominator(ix, de, w)


def exact_a_coef(ix, de, w) -> QC:
    one = QC(1)
    return ((one - _I * QC(de) - _I * QC(w)) * (QC(0) - _I * QC(w))
            * (QC(2) - _I * QC(w)) / exact_denominator(ix, de, w))


def exact_b_coef(ix, de, w) -> QC:
    one = QC(1)
    return QC(ix) * (one - _I * QC(w)) / exact_denominator(ix, de, w)


# ---------------------------------------------------------------------------
# scalar reference chain of the fluctuation kernel (one sideband at a time)
# ---------------------------------------------------------------------------

def scalar_denominator(ix, de, w):
    return (2.0 * ix * (1.0 - 1j * w) ** 2
            - 1j * w * (2.0 - 1j * w) * ((1.0 - 1j * w) ** 2 + de * de))


def scalar_lambda(ix, de, w):
    if w == 0.0:
        return 1.0 + 0.0j
    return ix * (1.0 - 1j * w) * (2.0 - 1j * w) / scalar_denominator(ix, de, w)


def scalar_lambda_prime(ix, de, w):
    if w == 0.0:
        return 0.0j
    num = (ix * (1.0 - 1j * w)
           - (1.0 - 1j * de) * (1.0 - 1j * de - 1j * w) * (2.0 - 1j * w))
    return 1j * w * num / scalar_denominator(ix, de, w)


def scalar_source_row(ix, de, w):
    """Coefficients of (f_y, f_y^dag, f_z, f_z') in F_y at sideband w."""
    d = scalar_denominator(ix, de, w)
    a = (1.0 - 1j * de - 1j * w) * (-1j * w) * (2.0 - 1j * w) / d
    b = ix * (1.0 - 1j * w) / d
    a_red = (1.0 - 1j * de - 1j * w) * (2.0 - 1j * w) / d
    om = math.sqrt(ix / 2.0)
    return np.array([a + b, b, -1j * om * a_red,
                     -1j * om * a / (2.0 - 1j * w)])


def scalar_source_rows_pair(ix, de, w):
    """2x4 coefficients of (F_y, F_y^dag) over the noise basis."""
    r1m = scalar_source_row(ix, de, -w)
    return np.vstack([scalar_source_row(ix, de, w),
                      np.conj(r1m[[1, 0, 2, 3]])])


def scalar_drift(ens, drive, w, truncate_dephasing=False):
    """2x2 drift matrix M(w) of (da_y, da_y^dag)."""
    k0 = bloch.kappa_zero(ens, drive)
    ix, de = drive.intensity, drive.detuning

    def m11(u):
        out = 1j * u * ens.transit_time
        if not truncate_dephasing:
            out = out - np.conj(k0) * scalar_lambda_prime(ix, de, u)
        return out

    def m12(u):
        return -k0 * scalar_lambda(ix, de, u)

    return np.array([[m11(w), m12(w)],
                     [np.conj(m12(-w)), np.conj(m11(-w))]])


def scalar_inflow(ens, drive, w, ordered):
    """2x2 source density N(w) from the ordered diffusion table."""
    ix, de = drive.intensity, drive.detuning
    return ens.cooperativity * (scalar_source_rows_pair(ix, de, w) @ ordered
                                @ scalar_source_rows_pair(ix, de, -w).T)


def source_rows(ens, drive, omegas):
    """(2n, 2, 4) Langevin rows P(u) of (F_y, F_y^dag) over (f_y, f_y^dag,
    f_z, f_z') at u = (omegas, -omegas), from ``fluct._rows``: the
    second row at u is the first at -u conjugated, f_y and f_y^dag
    swapped."""
    sb = fluct._sidebands(ens, drive.detuning, omegas, False)
    first = fluct._rows(sb, np.array([drive.intensity]),
                        np.array([bloch.kappa_zero(ens, drive)]))[0, 2:].T
    return np.stack([first, fluct._partner(first, 0)[:, [1, 0, 2, 3]].conj()],
                    axis=1)


def langevin_coeffs(ens, drive, omega):
    """A(w), B(w) of the Langevin source decomposition: B is a row of
    ``fluct._ratios``, A is (2 - i w) times the f_z' row."""
    q = fluct._ratios(fluct._sidebands(ens, drive.detuning, [omega], False),
                      np.array([drive.intensity]))[0, :, 0]
    return q[5] * (2.0 - 1j * omega), q[3]


# the Einstein relations: operators P of the sigma basis, and the rows
# f_y, f_y^dag, f_z, f_z' as combinations of their noises
SIGMA_BASIS = [(1, 4), (2, 3), (4, 1), (3, 2), (1, 1), (2, 2), (3, 3), (4, 4)]
COMBINE_SQRT2 = np.array([[1, 1, 0, 0, 0, 0, 0, 0],
                          [0, 0, 1, 1, 0, 0, 0, 0],
                          [0, 0, 0, 0, -1, 1, 0, 0],
                          [0, 0, 0, 0, 0, 0, -1, 1]])
COMBINE = COMBINE_SQRT2 / math.sqrt(2.0)


def einstein_operator(a: int, b: int) -> np.ndarray:
    """D+(P_a P_b) - D+(P_a) P_b - P_a D+(P_b) of sigma-basis operators."""
    pa, pb = (sigma_op(*SIGMA_BASIS[k]) for k in (a, b))
    return (adjoint_dissipator(pa @ pb) - adjoint_dissipator(pa) @ pb
            - pa @ adjoint_dissipator(pb))


@functools.cache
def einstein_tensor() -> tuple[np.ndarray, np.ndarray]:
    """The flat indices a * 8 + b of the 26 non-zero Einstein operators
    among the 64, and their (26, 4, 4) stack."""
    t = np.array([einstein_operator(a, b)
                  for a in range(8) for b in range(8)])
    idx = np.flatnonzero(t.any(axis=(1, 2)))
    return idx, t[idx]


def density_matrix(st) -> np.ndarray:
    """rho of a ``SteadyState``, rho_ij = <sigma_ji>."""
    rho = np.zeros((4, 4), dtype=complex)
    rho.flat[::5] = st.populations        # the diagonal
    rho[3, 0] = st.coh_14
    rho[0, 3] = np.conj(st.coh_14)
    rho[2, 1] = st.coh_23
    rho[1, 2] = np.conj(st.coh_23)
    return rho


def gram(ordered: np.ndarray) -> np.ndarray:
    """<f_i f_j^dag> of an ordered diffusion table <f_i f_j> (Hermitian,
    positive semidefinite): the f_y and f_y^dag columns swapped."""
    return ordered[:, [1, 0, 2, 3]]


def excess(ordered: np.ndarray) -> np.ndarray:
    """Ordered table with creation noises moved left (normal order).

    Only the <f_y f_y^dag> entry is anti-normal; swapping it leaves the
    excess (fluorescence-fed) correlators, which all vanish when the
    excited states are empty.
    """
    out = ordered.copy()
    out[0, 1] = ordered[1, 0]
    return out


# the (a, b) of the diffusion table's non-zero entries: t, p_e, p_e, c, c*
DIFFUSION = ((fluct.FY, fluct.FYD), (fluct.FZ, fluct.FZ),
             (fluct.FZP, fluct.FZP), (fluct.FY, fluct.FZP),
             (fluct.FZP, fluct.FYD))


def diffusion(drive) -> np.ndarray:
    """The ordered (4, 4) diffusion table <f_i f_j> per atom that
    ``fluct._steady_state`` weights the inflow with (at C = 1, so the
    weights are the entries)."""
    _, (t, p_e, c) = fluct._steady_state(UNIT_C, np.array([drive.intensity]),
                                         drive.detuning, True)
    ordered = np.zeros((4, 4), dtype=complex)
    for (a, b), v in zip(DIFFUSION, (t, p_e, p_e, c, c.conj())):
        ordered[a, b] = v[0]
    return ordered


def brute_force_diffusion(drive):
    """Ordered diffusion table, one Einstein relation at a time, in
    double precision, on ``bloch.linear_steady_state``."""
    rho = density_matrix(linear_state(drive))
    d8 = np.empty((8, 8), dtype=complex)
    for a in range(8):
        for b in range(8):
            d8[a, b] = np.trace(rho @ einstein_operator(a, b))
    return COMBINE @ d8 @ COMBINE.T


def mpmath_diffusion(drive, dps=50):
    """Ordered diffusion table at ``dps`` digits, as a 4x4 mpmath matrix.

    The Einstein operators have dyadic entries (0, +-1/2, +-1, ...), so
    their double-precision values are exact; the double-precision
    steady state is taken as it is, and the traces and the
    combinations, (1/sqrt(2))^2 = 1/2, are done at ``dps`` digits.
    """
    import mpmath
    rho = density_matrix(linear_state(drive))
    idx, t_nz = einstein_tensor()
    with mpmath.workdps(dps):
        d8 = mpmath.matrix(8, 8)
        for k, t in zip(idx, t_nz):
            d8[k // 8, k % 8] = mpmath.fsum(
                mpmath.mpc(rho[i, j]) * mpmath.mpc(t[j, i])
                for i, j in zip(*np.nonzero(t.T)))
        comb = mpmath.matrix(COMBINE_SQRT2.tolist())
        return comb * d8 * comb.T / 2


# ---------------------------------------------------------------------------
# the kernel with its rows stored sideband-major, (k, 2n, 7), every I_x = 0
# row formed and selected by np.where, and phi_1 by np.where over its
# series: the references that fluct's sidebands-last rows and its phi_1
# must reproduce bit for bit
# ---------------------------------------------------------------------------

class SidebandMajor(NamedTuple):
    detuning: float
    truncate_dephasing: bool
    u: np.ndarray              # (2n,) signed sidebands
    num: np.ndarray            # (2n, 7) the I_x-free parts
    num_ix: np.ndarray         # (2n, 7) the coefficients of I_x
    free: np.ndarray           # (2n, 7) I_x = 0, -iu (2-iu) cancelled
    zero: np.ndarray           # (2n,) whether u = 0
    transit: np.ndarray        # iu gamma l / c, the transit phase


def sideband_major_sidebands(ens, detuning, omegas, truncate_dephasing):
    w = np.asarray(omegas, dtype=float)
    u = np.concatenate([w, -w])
    de = detuning
    iu = 1j * u
    p1 = 1.0 - iu
    p2 = 2.0 - iu
    p1_sq = p1 ** 2
    c1 = 1.0 - 1j * de - iu
    a_red = c1 * -iu
    zero = np.zeros_like(iu)
    return SidebandMajor(
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


def sideband_major_ratios(sb, ix):
    ix = ix[:, None, None]
    rows = np.where(ix == 0.0, sb.free, sb.num + ix * sb.num_ix)
    d = rows[..., 6:]
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


def sideband_major_rows(sb, ix, k0):
    scale = np.ones((ix.size, 6), dtype=complex)
    scale[:, 0] = -k0
    scale[:, 1] = 0.0 if sb.truncate_dephasing else -k0.conj()
    scale[:, 4:] = -1j * np.sqrt(0.5 * ix)[:, None]
    return sideband_major_ratios(sb, ix) * scale[:, None, :]


def sideband_major_kernel(ens, sb, intensities, noisy):
    """(M, N) of ``fluct._kernel`` from the sideband-major rows."""
    ix = np.asarray(intensities, dtype=float)
    k0, weights = fluct._steady_state(ens, ix, sb.detuning, noisy)
    rows = sideband_major_rows(sb, ix, k0)
    m = np.empty((2, 2) + rows.shape[:2], dtype=complex)
    m[0, 0] = sb.transit + rows[..., 1]
    m[0, 1] = rows[..., 0]
    m[1, ::-1] = fluct._partner(m[0]).conj()
    if not noisy:
        return m, np.zeros_like(m)
    p = np.stack([rows[..., 2:],
                  fluct._partner(rows, 1)[..., [3, 2, 4, 5]].conj()])[:, None]
    q = np.moveaxis(fluct._partner(p, 3), 0, 1)
    t, p_e, c = (w[:, None] for w in weights)
    fy, fyd, fz, fzp = range(4)
    src = (p[..., fy] * (t * q[..., fyd] + c * q[..., fzp])
           + p[..., fzp] * (p_e * q[..., fzp] + c.conj() * q[..., fyd])
           + p_e * (p[..., fz] * q[..., fz]))
    return m, src


def where_phi1(x):
    """phi_1(x) = (e^x - 1)/x, its series selected by np.where."""
    series = 1.0 + x * (0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0)))
    return np.where(np.abs(x) < 2.0 ** -12, series, np.expm1(x) / x)


# ---------------------------------------------------------------------------
# covariance transport: the 5x5 augmented generator of each sideband,
# exponentiated by scipy and by mpmath at 50 digits
# ---------------------------------------------------------------------------

def augmented_generator(m_w, m_mw, src):
    """[[kron(M, 1) + kron(1, Mm), vec(src)], [0, 0]] of one sideband.

    Its exponential carries (vec(S), 1) from z = 0 to z = 1 under
    dS/dz = M S + S Mm^T + src (row-major vec).
    """
    eye = np.eye(2)
    a = np.zeros((5, 5), dtype=complex)
    a[:4, :4] = np.kron(m_w, eye) + np.kron(eye, m_mw)
    a[:4, 4] = np.reshape(src, 4)
    return a


def scipy_transport(m_w, m_mw, src, sigma0):
    """``fluct._transport`` by scipy's expm of each augmented generator."""
    from scipy.linalg import expm
    out = [e[:4, :4] @ np.reshape(sigma0, 4) + e[:4, 4]
           for e in map(expm, map(augmented_generator, m_w, m_mw, src))]
    return np.reshape(out, (-1, 2, 2))


def _mpmath_covariances(m_w, m_mw, src, sigma0):
    """Row-major output covariances of each sideband as mpmath numbers,
    from ``mpmath.expm`` of its augmented generator at the working
    precision."""
    import mpmath
    s0 = np.reshape(sigma0, 4).tolist()
    sig = []
    for a in map(augmented_generator, m_w, m_mw, src):
        e = mpmath.expm(mpmath.matrix(a.tolist()))
        sig.append([sum(e[i, k] * s0[k] for k in range(4)) + e[i, 4]
                    for i in range(4)])
    return sig


def mpmath_transport(m_w, m_mw, src, sigma0, dps=50):
    """``fluct._transport`` at ``dps`` digits, rounded to double."""
    import mpmath
    with mpmath.workdps(dps):
        sig = _mpmath_covariances(m_w, m_mw, src, sigma0)
        return np.array([[complex(v) for v in s] for s in sig]).reshape(
            -1, 2, 2)


def mpmath_extrema(m_w, m_mw, src, sigma0, dps=50):
    """S_min and S_max over theta from a ``dps``-digit transport.

    The stacks hold the sidebands +w, then -w, as ``propagate_noise``
    builds them.  Each augmented generator is exponentiated by
    ``mpmath.expm``, and the output covariances are symmetrized over
    +-w as ``propagate_noise`` does; only the final values are rounded
    to double.
    """
    import mpmath
    n = len(m_w) // 2
    with mpmath.workdps(dps):
        sig = _mpmath_covariances(m_w, m_mw, src, sigma0)
        out = []
        for p, m in zip(sig[:n], sig[n:]):
            iso = mpmath.re(p[1] + p[2] + m[1] + m[2]) / 2
            spread = abs(p[3] + m[3])       # 2 |anomalous moment|
            out.append((float(iso - spread), float(iso + spread)))
    return np.array(out).T


def per_intensity_kernel(ens, sb, intensities, noisy,
                         kernel=fluct._kernel):
    """``fluct._kernel`` with fresh sideband factors at each intensity,
    one intensity per call, stacked (``kernel`` is bound when the module
    loads, so that this can stand in for ``fluct._kernel``)."""
    parts = [kernel(ens, fluct._sidebands(ens, sb.detuning, sb.u[
        :sb.u.size // 2], sb.truncate_dephasing), [ix], noisy)
        for ix in intensities]
    return tuple(np.concatenate(a, axis=2) for a in zip(*parts))


def rk45_depleted(ens, drive, sb, noisy, rtol=1e-12):
    """``fluct._sigma_out_depleted`` by scipy's RK45: the Rabi amplitudes
    Omega+- and the covariances of every sideband in one ODE, the
    amplitudes driven by ``field_derivative`` (the general steady
    state), the covariances by ``fluct._kernel`` at the local
    intensity.  Component-wise covariances, as the library returns
    them."""
    size = sb.u.size
    de = drive.detuning

    def rhs(_z, y):
        om_p, om_m = y[:2]
        m, src = (a[:, :, 0] for a in fluct._kernel(
            ens, sb, [abs(om_p) ** 2 + abs(om_m) ** 2], noisy))
        s = y[2:].reshape(2, 2, size)
        ds = (np.einsum("ikn,kjn->ijn", m, s)
              + np.einsum("ikn,jkn->ijn", s, fluct._partner(m)) + src)
        return np.concatenate((field_derivative(ens, om_p, om_m, de),
                               ds.ravel()))

    om = math.sqrt(drive.intensity / 2.0)
    y0 = np.concatenate(([om, -om], np.repeat(fluct._VACUUM.ravel(),
                                              size))).astype(complex)
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="RK45", rtol=rtol,
                    atol=rtol * 1e-3)
    assert sol.success, sol.message
    return sol.y[2:, -1].reshape(2, 2, size)


def stacked(a):
    """A component-wise (2, 2, n) stack as n 2x2 matrices."""
    return np.moveaxis(a, (0, 1), (-2, -1))


def componentwise(a):
    """n 2x2 matrices as a component-wise (2, 2, n) stack."""
    return np.moveaxis(np.asarray(a), (-2, -1), (0, 1))


def kernel(ens, drive, omegas, noisy=True, truncate_dephasing=False):
    """(m_w, m_mw, src) of the undepleted drive, each as (2n, 2, 2):
    the kernel's drifts, their partners and its sources."""
    sb = fluct._sidebands(ens, drive.detuning, omegas, truncate_dephasing)
    m, src = (a[:, :, 0]
              for a in fluct._kernel(ens, sb, [drive.intensity], noisy))
    return stacked(m), stacked(fluct._partner(m)), stacked(src)


def transport(m_w, m_mw, src, sigma0):
    """``fluct._transport``'s maps applied to ``sigma0``, on (n, 2, 2)
    stacks of any drift pairs (M, M') and sources: each sideband goes in
    as the +-w pair [M, M'], with a zero source at its partner, and
    comes out as the first half."""
    gen = componentwise(np.concatenate((m_w, m_mw)))
    src = componentwise(np.concatenate((src, np.zeros_like(src))))
    sig = fluct._apply(fluct._transport(gen, src),
                       np.asarray(sigma0)[:, :, None])
    return stacked(sig[..., :len(m_w)])


# ---------------------------------------------------------------------------
# Doppler averaging: quadrature of any integrand, and the composite kappa
# with a separate wofz call for each of a line's two poles
# ---------------------------------------------------------------------------

def doppler_average(f, manifold, nodes: int = 64, rel_tol: float = 1e-6):
    """Average f over the thermal detuning distribution (any integrand).

    ``f`` maps an array of detuning shifts (gamma units) to values.
    Gauss-Hermite quadrature with the exact Gaussian weight is tried
    first and checked against a doubled node count; integrands with
    structure much narrower than the Doppler width defeat it, so a
    dense trapezoid rule (also convergence-checked by doubling) is the
    fallback.  Zero width returns f(0).
    """
    w = manifold.doppler_width
    if w == 0.0:
        return np.asarray(f(np.array([0.0])))[..., 0] * 1.0

    def gh(n):
        x, wt = hermgauss(n)
        vals = np.asarray(f(w * x))
        return np.tensordot(vals, wt, axes=([-1], [0])) / math.sqrt(math.pi)

    coarse, fine = gh(nodes), gh(2 * nodes)
    scale = np.max(np.abs(fine)) + 1e-300
    if np.max(np.abs(fine - coarse)) / scale <= rel_tol:
        return fine

    def trap(n):
        v = np.linspace(-8.0 * w, 8.0 * w, n)
        wt = np.exp(-((v / w) ** 2))
        wt /= wt.sum()
        return np.tensordot(np.asarray(f(v)), wt, axes=([-1], [0]))

    n_pts = 4001
    prev = trap(n_pts)
    for _ in range(4):
        n_pts = 2 * n_pts - 1
        cur = trap(n_pts)
        scale = np.max(np.abs(cur)) + 1e-300
        if np.max(np.abs(cur - prev)) / scale <= rel_tol:
            return cur
        prev = cur
    raise NumericalError(
        f"Doppler quadrature not converged at {n_pts} trapezoid points "
        f"(Gauss-Hermite {nodes}/{2 * nodes} also disagreed)",
        {"doppler_width": w})


def _gaussian_pole_average(z0, width):
    """< 1/(z0 - v) > over the Gaussian detuning spread, via wofz.

    ``z0`` must have a non-vanishing imaginary part (off the real
    axis); width = 0 reduces to 1/z0.
    """
    z0 = np.asarray(z0, dtype=complex)
    if width == 0.0:
        return 1.0 / z0
    z = z0 / width
    upper = z.imag > 0
    out = np.empty(z.shape, dtype=complex)
    root_pi = math.sqrt(math.pi)
    out[upper] = -1j * root_pi * wofz(z[upper]) / width
    low = ~upper
    out[low] = np.conj(-1j * root_pi * wofz(np.conj(z[low]))) / width
    return out


def thermal_doppler_width_ghz(temperature: float, wavelength: float) -> float:
    """1/e half-width sqrt(2 k T / m)/lambda of the 87Rb Doppler profile,
    in GHz."""
    k_b, mass_rb87 = 1.380_649e-23, 1.443_160_6e-25     # J/K, kg
    return math.sqrt(2.0 * k_b * temperature / mass_rb87) / wavelength / 1e9


def two_wofz_composite_kappa(manifold, ens, detunings, intensity: float):
    """``ensemble.composite_kappa`` with a wofz call for each pole.

    The saturated single-line response (1 - i d) / (d^2 + 1 + s I) has
    simple poles at +-i a, a = sqrt(1 + s I); each pole's Gaussian
    average is its own Faddeeva evaluation (the lower one on the
    conjugated argument).  The residue sum r+ P(-) + r- P(+), with
    r+- = -i (a +- 1) / (2 a) and P(-+) the averages of 1/(d -+ i a),
    is -i (s + h / a) with s = (P(-) + P(+)) / 2 and h = (P(-) - P(+)) / 2,
    written out in real arithmetic.  Detunings and intensity in gamma
    units.
    """
    detunings = np.asarray(detunings, dtype=float)
    wd = manifold.doppler_width
    out = np.zeros(detunings.shape, dtype=complex)
    for centre, strength in manifold.lines:
        a = math.sqrt(1.0 + strength * intensity)
        d0 = detunings - centre
        lower = _gaussian_pole_average(d0 - 1j * a, wd)
        upper = _gaussian_pole_average(d0 + 1j * a, wd)
        s, h = (lower + upper) / 2.0, (lower - upper) / 2.0
        avg = (s.imag + h.imag / a) - 1j * (s.real + h.real / a)
        out += strength * ens.cooperativity / 2.0 * avg
    return out


def finite_difference_fit(manifold, ens, det_ghz, t_data, gl_data,
                          intensity_mw, initial):
    """``ensemble.fit``'s least-squares problem with a finite-difference
    Jacobian: (fitted parameters, rms residual)."""
    from scipy.optimize import least_squares

    from psrsim import ensemble

    strengths = [s for _, s in manifold.lines]
    x0 = np.array([1.0, 0.0, initial["intensity_scale"]]
                  + [s / strengths[0] for s in strengths[1:]])
    n_ratio = len(strengths) - 1
    lo = np.array([1e-3, -1.0, 1e-3] + [1e-3] * n_ratio)
    hi = np.array([1e3, 1.0, 1e6] + [1e3] * n_ratio)
    t_scale = np.max(np.abs(t_data))
    gl_scale = np.max(np.abs(gl_data))

    def residual(p):
        t_mod, gl_mod = ensemble._fit_model(manifold, ens, det_ghz,
                                            intensity_mw, p)
        return np.concatenate(((t_mod - t_data) / t_scale,
                               (gl_mod - gl_data) / gl_scale))

    res = least_squares(residual, x0, bounds=(lo, hi), method="trf",
                        diff_step=1e-6, xtol=1e-14, ftol=1e-14, gtol=1e-14,
                        max_nfev=400)
    return res.x, float(np.sqrt(np.mean(res.fun ** 2)))


# ---------------------------------------------------------------------------
# the fit loop's oracles: the complex-stack Jacobian, one SVD per step
# ---------------------------------------------------------------------------

def complex_stack_fit_jacobian(ens, width, intensity_mw, params,
                               evaluation):
    """``ensemble._fit_jacobian`` in complex arithmetic, as (n, n_params)
    columns: each line's terms through ``ensemble._response``, the rows
    of d kappa / d params stacked as complex columns."""
    from psrsim.core import ghz_to_gamma
    from psrsim.ensemble import _response

    t, _, kap, poles = evaluation
    density_scale, intensity = params[0], params[2] * intensity_mw
    half_c = density_scale * ens.cooperativity / 2.0
    d_det = d_scale = 0.0
    d_strength = []                 # d kappa / d s_k, other s held fixed
    for strength, a, zeta, p in poles:
        dp = -p * p
        if width > 0.0:
            dp = np.where(np.abs(zeta) > 5e3 * width, dp,
                          2.0 * (1.0 - zeta * p) / width**2)
        d_det = d_det + half_c * strength * _response(a, dp)
        d_a = p.imag / a**2 + _response(a, 1j * dp)
        d_si = half_c * strength * d_a / (2.0 * a)      # d kappa / d(s I)
        d_scale = d_scale + d_si * strength * intensity_mw
        d_strength.append(half_c * _response(a, p) + d_si * intensity)
    q_sum = 1.0 + float(np.sum(params[3:]))
    mean = sum(s * g for (s, *_), g in zip(poles, d_strength))
    d_kappa = np.stack([kap / density_scale,
                        -ghz_to_gamma(1.0, ens.gamma_raw) * d_det, d_scale]
                       + [(g - mean) / q_sum for g in d_strength[1:]],
                       axis=-1)
    d_t = -2.0 * d_kappa.real * t[:, None]
    return d_t, -d_kappa.imag * t[:, None] - kap.imag[:, None] * d_t


def svd_step_factor(jac, r, free, scale):
    """(s, V^T, U^T r) from the thin SVD of the scaled free columns of
    ``jac`` (n, n_params), with the m x k factor U formed: the oracle of
    ``ensemble._lm_factor``."""
    u, sv, vt = np.linalg.svd(jac[:, free] / scale, full_matrices=False)
    return sv, vt, u.T @ r


def svd_fit(manifold, ens, det_ghz, t_data, gl_data, intensity_mw,
            initial):
    """``ensemble.fit``'s loop with the complex-stack Jacobian, column
    norms from the (n, n_params) Jacobian and one SVD of the scaled
    free columns per accepted point: (parameters, residual
    evaluations)."""
    from psrsim.ensemble import _FIT_MAX_NFEV, _ROUNDOFF, _fit_eval

    strengths = [s for _, s in manifold.lines]
    x = np.array([initial.get("density_scale", 1.0),
                  initial.get("freq_offset_ghz", 0.0),
                  initial["intensity_scale"]]
                 + [s / strengths[0] for s in strengths[1:]])
    n_ratio = len(strengths) - 1
    lo = np.array([1e-3, -1.0, 1e-3] + [1e-3] * n_ratio)
    hi = np.array([1e3, 1.0, 1e6] + [1e3] * n_ratio)
    t_scale = max(np.max(np.abs(t_data)), 1e-12)
    gl_scale = max(np.max(np.abs(gl_data)), 1e-12)

    def evaluate(p):
        evaluation = _fit_eval(manifold, ens, det_ghz, intensity_mw, p)
        t_mod, gl_mod = evaluation[:2]
        return np.concatenate(((t_mod - t_data) / t_scale,
                               (gl_mod - gl_data) / gl_scale)), evaluation

    def jacobian(p, evaluation):
        d_t, d_gl = complex_stack_fit_jacobian(
            ens, manifold.doppler_width, intensity_mw, p, evaluation)
        return np.concatenate((d_t / t_scale, d_gl / gl_scale))

    r, state = evaluate(x)
    nfev, jac = 1, jacobian(x, state)
    cost = 0.5 * (r @ r)
    col_scale = np.zeros_like(x)
    damping, growth = 1e-3, 2.0
    while True:
        grad = jac.T @ r
        free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        col_scale = np.maximum(col_scale, np.linalg.norm(jac, axis=0))
        scale = np.where(col_scale > 0.0, col_scale, 1.0)[free]
        sv, vt, ur = svd_step_factor(jac, r, free, scale)
        floor = _ROUNDOFF * np.abs(r).sum()
        while True:
            step = np.zeros_like(x)
            step[free] = -(vt.T @ (sv * ur / (sv * sv + damping))) / scale
            trial = np.clip(x + step, lo, hi)
            j_step = jac @ (trial - x)
            predicted = -(r @ j_step) - 0.5 * (j_step @ j_step)
            if not predicted > floor:
                return x, nfev
            if nfev >= _FIT_MAX_NFEV:
                raise NumericalError("svd_fit did not converge")
            r_trial, state = evaluate(trial)
            nfev += 1
            cost_trial = 0.5 * (r_trial @ r_trial)
            gain = (cost - cost_trial) / predicted
            if gain > 1e-4:
                break
            damping *= growth
            growth *= 2.0
        damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        growth = 2.0
        x, r, cost = trial, r_trial, cost_trial
        jac = jacobian(x, state)


# ---------------------------------------------------------------------------
# limit regimes and the phenomenological rotation model: closed forms
# that only the tests use
# ---------------------------------------------------------------------------

def limit_low_sideband(ens, drive) -> complex:
    """The low-sideband (w << gamma, Delta >> gamma) coupling of the
    y-mode to its adjoint, i delta0/(1+s)."""
    return 1j * drive.linear_dephasing(ens) / (1.0 + drive.saturation)


def psr_angle(g_l: float, ellipticity: float) -> float:
    """Self-rotation angle of the polarization ellipse: phi = Gl * epsilon."""
    return g_l * ellipticity


def rotation_strength_for_db(target_db: float, alpha_l: float = 0.0,
                             bracket: tuple[float, float] = (1e-6, 1e3)
                             ) -> float:
    """Smallest Gl whose optimal-phase variance reaches ``target_db``.

    Bisection on the closed-form minimum; the minimum decreases
    monotonically with Gl at fixed absorption.
    """
    lo, hi = bracket
    if min_variance_db(hi, alpha_l) > target_db:
        raise ValidationError("rotation_strength",
                              f"target {target_db} dB unreachable in bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if min_variance_db(mid, alpha_l) > target_db:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
