"""The array fluctuation kernel against the scalar chain, the closed-form
diffusion entries against the Einstein relations (traced in double
precision, and at 50 digits), the 2x2 covariance transport against 5x5
exponentials (scipy, and mpmath at 50 digits), and --deplete, bit for
bit against a kernel built afresh at each intensity, and against the
saturable Beer law."""

import itertools
import math
import subprocess
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
import yaml
from conftest import (DIFFUSION, brute_force_diffusion, componentwise,
                      diffusion, einstein_operator, einstein_tensor,
                      field_derivative, kernel,
                      mpmath_diffusion, mpmath_extrema, mpmath_transport,
                      per_intensity_kernel, scalar_drift,
                      scalar_inflow, scalar_source_rows_pair, scipy_transport,
                      sideband_major_kernel, sideband_major_sidebands,
                      source_rows, stacked, transport, where_phi1)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psrsim import bloch, cli, fluct
from psrsim.core import DriveParams, EnsembleParams, NumericalError

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
    m_w, m_mw, _ = kernel(ens, drive, omegas)
    p = source_rows(ens, drive, omegas)
    n = len(omegas)
    for i, w in enumerate(omegas):
        assert_close(m_w[i], scalar_drift(ens, drive, w))
        assert_close(m_mw[i], scalar_drift(ens, drive, -w))
        assert_close(p[i], scalar_source_rows_pair(ix, de, w))
        assert_close(p[n + i], scalar_source_rows_pair(ix, de, -w))


@KERNEL
@given(cooperativity.filter(lambda c: c > 0), intensity, detuning, sideband)
def test_inflow_and_truncated_drift_match_scalar_chain(c, ix, de, w):
    ens = EnsembleParams.from_cooperativity(c)
    drive = DriveParams(intensity=ix, detuning=de)
    assert_close(kernel(ens, drive, [w])[2][0],
                 scalar_inflow(ens, drive, w, diffusion(drive)))
    drift = kernel(ens, drive, [w], truncate_dephasing=True)[0][0]
    assert_close(drift, scalar_drift(ens, drive, w, truncate_dephasing=True))


def test_a_response_pole_is_a_numerical_error_naming_omega():
    """D(u) = 0 at a real u != 0 would divide by zero: the rows refuse,
    naming the first such sideband and intensity (here D(-1) zeroed by
    hand, which leaves I_x = 0 alone)."""
    sb = fluct._sidebands(HOT, 1.5, [0.5, 1.0], False)
    num, num_ix = sb.num.copy(), sb.num_ix.copy()
    num[6, 3] = num_ix[6, 3] = 0.0
    with pytest.raises(NumericalError, match="response pole") as exc:
        fluct._ratios(sb._replace(num=num, num_ix=num_ix),
                      np.array([0.0, 1000.0, 10.0]))
    assert exc.value.point == {"intensity": 1000.0, "detuning": 1.5,
                               "omega": -1.0}


def preset_kernel_points(preset):
    """(ensemble, intensities, detuning, omegas) of every preset detuning."""
    cfg, _ = cli.load_config(preset)
    ix = float(cfg["drive"]["intensity"])   # YAML reads 8.0e4 as a string
    return [pytest.param(cli.build_ensemble(cfg), [ix], de,
                         cfg["noise"]["omegas"], id=f"{preset}-{de:g}")
            for de in cfg["noise"]["detunings"]]


COLD = EnsembleParams.from_cooperativity(1600.0)
# the exact zeros and the denormals of an underflowed depleted profile,
# next to its drive of 10 at z = 0
UNDERFLOWED = bloch.depleted_intensity(1600.0, 10.0, 0.0,
                                       np.linspace(0.0, 1.0, 33))
KERNEL_POINTS = (
    preset_kernel_points("hot-vapour-d2")
    + preset_kernel_points("hot-vapour-d1")
    + preset_kernel_points("cold-atom-kerr")
    + [pytest.param(HOT, [1000.0], de, np.geomspace(0.1, 3.0, 400),
                    id=f"hot-400-{de:g}") for de in (-2.7, 0.4)]
    + [pytest.param(COLD, [8e4], de, np.geomspace(1.0, 300.0, 400),
                    id=f"cold-400-{de:g}") for de in (-450.0, 320.0)]
    + [pytest.param(HOT, [0.0], 2.0, [0.0, 0.5, 1.0], id="undriven"),
       pytest.param(HOT, [1000.0, 0.0, 5.0], -1.5, [0.0, 0.3, 3.0],
                    id="omega-0"),
       pytest.param(COLD, UNDERFLOWED, 0.0, [0.0, 0.1, 0.5, 1.0, 3.0],
                    id="underflowed")])


@pytest.mark.parametrize("ens, intensities, de, omegas", KERNEL_POINTS)
def test_kernel_equals_the_sideband_major_oracle_bit_for_bit(
        ens, intensities, de, omegas):
    """The rows stored sidebands-last, the I_x = 0 rows formed only
    where I_x = 0 and P(+-u) sliced from one array move no bit of M or
    N, with and without the sources and with the truncated dephasing.
    (At u = 0 a denormal intensity overflows A/(-iu) over D(0) = 2 I_x
    to inf, and NaN follows, in both.)"""
    assert (UNDERFLOWED == 0.0).any() and (UNDERFLOWED > 0.0).any()
    for noisy, truncate in ((True, False), (False, False), (True, True)):
        with np.errstate(over="ignore", invalid="ignore"):
            got = fluct._kernel(ens, fluct._sidebands(ens, de, omegas,
                                                      truncate),
                                intensities, noisy)
            ref = sideband_major_kernel(
                ens, sideband_major_sidebands(ens, de, omegas, truncate),
                np.asarray(intensities, dtype=float), noisy)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(2, 2, 8), (2, 2, 3, 8)])
def test_vacuum_start_equals_apply_bit_for_bit(shape):
    """E sigma E'^T + F at sigma = vacuum is E[:, 0] E'[:, 1]^T + F."""
    rng = np.random.default_rng(7)
    maps = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2)]
    vacuum = fluct._VACUUM.reshape((2, 2) + (1,) * (len(shape) - 2))
    assert (fluct._from_vacuum(maps).tobytes()
            == fluct._apply(maps, vacuum).tobytes())


def test_vacuum_start_of_overflowed_maps_is_non_finite_where_apply_is():
    """Maps that overflow in e^M or F (the drifts and sources of strongly
    amplifying cells, scaled up, driven and undriven): the closed-form
    start is non-finite on exactly the entries where ``_apply`` is."""
    overflowed = 0
    for c, ix, scale in itertools.product((1e7, 1e9), (0.0, 1e4, 1e8),
                                          (1e3, -1e3, 1e6, -1e6)):
        ens = EnsembleParams.from_cooperativity(c)
        sb = fluct._sidebands(ens, -30.0, [0.0, 0.5, 1.0, 5.0], False)
        gen, src = (a[:, :, 0] for a in fluct._kernel(ens, sb, [ix], True))
        maps = fluct._transport(gen * scale, src * scale)
        overflowed += not all(np.isfinite(a).all() for a in maps)
        assert np.array_equal(
            np.isfinite(fluct._from_vacuum(maps)),
            np.isfinite(fluct._apply(maps, fluct._VACUUM[:, :, None])))
    assert overflowed >= 12


def test_phi1_equals_the_where_form_bit_for_bit():
    """The series where |x| < 2^-12 (x = 0 and a denormal included),
    expm1(x)/x elsewhere, up to overflow."""
    rng = np.random.default_rng(3)
    unit = np.exp(2j * np.pi * rng.uniform(size=64))
    x = np.concatenate((
        [0.0, 2.2250738585e-313j, -5e-324, 2.0 ** -12, -2.0 ** -12],
        unit * 2.0 ** rng.uniform(-60.0, -12.0, 64),   # the series
        unit * 2.0 ** rng.uniform(-12.0, 4.0, 64),
        unit * 10.0 ** rng.uniform(1.0, 3.5, 64),       # overflow
        [709.0, 710.0, -745.0, 1e3j, 1e308]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got, ref = fluct._phi1(x), where_phi1(x)
    assert got.tobytes() == ref.tobytes()
    assert not np.isfinite(got).all()


# the five entries the Einstein relations leave in the steady state
ZERO = np.ones((4, 4), dtype=bool)
ZERO[tuple(zip(*DIFFUSION))] = False


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.0, 1e6), detuning)
def test_diffusion_matches_brute_force_loop(ix, de):
    """Within 5e-16 of the largest entry; the entries that the double
    precision loop leaves at ~1e-35 ((1/sqrt(2))^2 != 1/2) are 0."""
    drive = DriveParams(intensity=ix, detuning=de)
    got = diffusion(drive)
    assert_close(got, brute_force_diffusion(drive), rtol=5e-16)
    assert not got[ZERO].any()


@KERNEL
@given(cooperativity,
       st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e6)), min_size=1,
                max_size=4),
       st.floats(-1e3, 1e3),
       st.lists(st.one_of(st.just(0.0), sideband), min_size=1, max_size=5),
       st.booleans())
def test_intensity_part_equals_a_fresh_kernel(c, intensities, de, omegas,
                                              truncate):
    """One ``_sidebands`` serves all intensities in one call, each
    intensity's rows byte for byte those of a fresh one-intensity call,
    and is left as it was built."""
    ens = EnsembleParams.from_cooperativity(c, gamma_raw=1.9058e7)
    sb = fluct._sidebands(ens, de, omegas, truncate)
    built = [f.tobytes() for f in sb if isinstance(f, np.ndarray)]
    ix = np.array(intensities)
    k0 = np.array([bloch.kappa_zero(ens, DriveParams(intensity=x,
                                                     detuning=de))
                   for x in intensities])
    got = fluct._rows(sb, ix, k0)
    for i in range(ix.size):
        ref = fluct._rows(fluct._sidebands(ens, de, omegas, truncate),
                          ix[i:i + 1], k0[i:i + 1])
        assert got[i].tobytes() == ref[0].tobytes()
    assert [f.tobytes() for f in sb if isinstance(f, np.ndarray)] == built


def test_einstein_tensor_keeps_every_non_zero_operator():
    full = np.array([einstein_operator(a, b)
                     for a in range(8) for b in range(8)])
    idx, t_nz = einstein_tensor()
    assert idx.size == 26
    assert np.array_equal(full[idx], t_nz)
    assert not np.delete(full, idx, axis=0).any()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(0.0, 1e6), st.floats(-1e3, 1e3))
@example(1000.0, 0.5)              # hot vapour: p3 = p4 = 0.25
@example(8e4, 400.0)               # cold atoms: p3 = p4 = 0.083
def test_closed_form_diffusion_matches_50_digit_einstein_loop(ix, de):
    """Every entry matches the Einstein relations traced at 50 digits on
    the same steady state within 2 ulp of the table's largest entry,
    and the eleven entries outside the five are exactly zero."""
    drive = DriveParams(intensity=ix, detuning=de)
    got = diffusion(drive)
    ref = mpmath_diffusion(drive)
    tol = 2.0 * np.spacing(np.abs(got).max())
    for i in range(4):
        for j in range(4):
            assert abs(mpmath.mpc(got[i, j]) - ref[i, j]) <= tol, (i, j)
    assert not got[ZERO].any()


def psd_edge(lam, t=1.0, p_e=0.1):
    """|c| at which [[t, c], [c*, p_e]] has smallest eigenvalue ``lam``."""
    return math.sqrt(t * p_e - lam * (t + p_e) + lam * lam)


@pytest.mark.parametrize("p_g, p_e, c, admissible", [
    (0.45, 0.05, 0.2 + 0.1j, True),                      # |c|^2 = 0.05
    (0.45, 0.05, psd_edge(0.0), True),
    (0.45, 0.05, psd_edge(-5e-11), True),
    (0.45, 0.05, psd_edge(-2e-10), False),
    (0.45, 0.05, 0.3 + 0.2j, False),                     # |c|^2 = 0.13 > 0.1
    (0.55, -0.05, 0.0, False),                           # p_e < 0
    (0.45, 0.05, complex("nan"), False),
    (0.45, float("nan"), 0.0, False),
    (float("inf"), 0.05, 0.0, False),
], ids=["inside", "on-the-edge", "within-tolerance", "beyond-tolerance",
        "coherence-too-large", "negative-excited-population", "nan-coherence",
        "nan-population", "inf-population"])
def test_diffusion_rejects_an_inadmissible_steady_state(p_g, p_e, c,
                                                        admissible):
    """The Gram table's 2x2 block [[t, c], [c*, p_e]] must be PSD to
    -1e-10; a NaN anywhere fails the test.  At I_x = 2, c is twice the
    steady state's coherence per Rabi amplitude."""
    with mock.patch.object(bloch, "linear_steady_state",
                           return_value=(p_g, p_e, c / 2.0)):
        if admissible:
            fluct._steady_state(HOT, np.array([2.0]), 1.0, True)
        else:
            with pytest.raises(NumericalError,
                               match="not positive semidefinite"):
                fluct._steady_state(HOT, np.array([2.0]), 1.0, True)


def transport_inputs(ens, drive, omegas):
    """The (m_w, m_mw, src, sigma0) that propagate_noise transports, as
    (2n, 2, 2) stacks: its drifts, their partners and its sources."""
    with mock.patch.object(fluct, "_transport",
                           wraps=fluct._transport) as spy:
        fluct.propagate_noise(ens, drive, omegas, [0.0])
    gen, src = (a[:, :, 0] for a in spy.call_args.args)
    return (stacked(gen), stacked(fluct._partner(gen)), stacked(src),
            fluct._VACUUM)


# the preset ranges: hot vapour (D1/D2 cells) and cold far-detuned atoms
hot_point = st.tuples(st.floats(1.0, 50.0), st.floats(100.0, 5000.0),
                      st.floats(-5.0, 5.0),
                      st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8))
cold_point = st.tuples(st.floats(100.0, 2000.0), st.floats(1e4, 1e5),
                       st.floats(100.0, 500.0).flatmap(
                           lambda d: st.sampled_from([d, -d])),
                       st.lists(st.floats(0.0, 300.0), min_size=1,
                                max_size=8))


@KERNEL
@given(st.one_of(hot_point, cold_point))
# a denormal omega: an eigenvalue sum is about 2.6e-317i, where
# expm1(x)/x is not finite and phi_1 comes from its series
@example((1.0, 2158.7589668959463, 0.0, [2.2250738585e-313,
                                          2.7890003526208593]))
def test_transport_matches_scipy_expm_of_augmented_generators(point):
    c, ix, de, omegas = point
    ens = EnsembleParams.from_cooperativity(c, gamma_raw=1.9058e7,
                                            temperature=345.0)
    args = transport_inputs(ens, DriveParams(intensity=ix, detuning=de),
                            sorted(set(omegas)))
    for s, ref in zip(transport(*args), scipy_transport(*args)):
        assert_close(s, ref, rtol=1e-13)


diagonal_drift = st.lists(st.complex_numbers(max_magnitude=300.0),
                          min_size=2, max_size=2)
source = st.lists(st.complex_numbers(max_magnitude=1e6), min_size=4,
                  max_size=4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(diagonal_drift, diagonal_drift, source),
                min_size=1, max_size=4), source)
def test_undriven_transport_is_the_closed_form(sidebands, sigma0):
    """Diagonal drifts: S_ij = e^x sigma0_ij + src_ij (e^x - 1)/x with
    x = M_ii + Mm_jj, to 1e-15 of the larger term.  The map keeps
    sigma0 by e^M_ii and e^Mm_jj, so e^x there is taken at the exact
    sum of the two doubles; (e^x - 1)/x is taken at the double x that
    the closed form rounds it to.  Both at 30 digits."""
    m_w = np.array([np.diag(m) for m, _, _ in sidebands])
    m_mw = np.array([np.diag(mm) for _, mm, _ in sidebands])
    src = np.array([n for _, _, n in sidebands]).reshape(-1, 2, 2)
    sigma0 = np.reshape(sigma0, (2, 2))
    got = transport(m_w, m_mw, src, sigma0)
    with mpmath.workdps(30):
        for k, (m, mm, _) in enumerate(sidebands):
            for i, j in np.ndindex(2, 2):
                x = m[i] + mm[j]
                kept = mpmath.exp(mpmath.mpc(m[i]) + mpmath.mpc(mm[j])) \
                    * complex(sigma0[i, j])
                fed = complex(src[k, i, j]) * (
                    1 if x == 0 else mpmath.expm1(x) / x)
                scale = float(abs(kept) + abs(fed))
                assert abs(got[k, i, j] - complex(kept + fed)) \
                    <= 1e-15 * scale


def test_triangular_transport_without_drive_stays_at_the_qnl():
    """I_x = 0: diagonal drifts, transported in closed form.

    At C = 1e5, Delta = +-300 a plain Taylor scaling and squaring of the
    2x2 drifts moves the spectra off the QNL by more than 1e-13 dB."""
    for c, de in [(1600.0, 2.0), (1e5, 300.0), (1e5, -300.0)]:
        ens = EnsembleParams.from_cooperativity(c)
        spec = fluct.propagate_noise(ens, DriveParams(intensity=0.0,
                                                      detuning=de),
                                     [0.1, 0.5, 1.0, 5.0], THETAS)
        assert np.abs(spec.min_db()).max() <= 1e-14
        assert np.abs(spec.max_db()).max() <= 1e-14


def test_transport_of_each_sideband_does_not_depend_on_its_stack():
    cold = EnsembleParams.from_cooperativity(1600.0)
    parts = [
        transport_inputs(HOT, DriveParams(intensity=1000.0, detuning=-1.5),
                         np.geomspace(0.1, 3.0, 20)),
        transport_inputs(cold, DriveParams(intensity=8e4, detuning=400.0),
                         np.geomspace(1.0, 300.0, 20)),
        transport_inputs(cold, DriveParams(intensity=0.0, detuning=2.0),
                         [0.1, 0.5, 1.0, 5.0]),
        transport_inputs(EnsembleParams.from_cooperativity(0.0),
                         DriveParams(intensity=4.0, detuning=1.0),
                         [0.0, 0.5, 30.0])]
    sigma0 = parts[0][3]
    stack = [np.concatenate([p[i] for p in parts]) for i in range(3)]
    batched = transport(*stack, sigma0)
    for k, s in enumerate(batched):
        one = transport(*(a[k:k + 1] for a in stack), sigma0)
        assert np.array_equal(one[0], s)
    perm = np.random.default_rng(1).permutation(len(batched))
    assert np.array_equal(transport(*(a[perm] for a in stack), sigma0),
                          batched[perm])
    # each part on its own is a +-w stack, which forms the drift
    # quantities once per drift and phi_1 once per pair: the same bits
    start = 0
    for p in parts:
        stop = start + len(p[0])
        assert np.array_equal(transport(*p), batched[start:stop])
        start = stop


def mirrored_stack(drifts, seed=0):
    """(m_w, m_mw, src, vacuum) of the sidebands +-w of each drift M(w),
    shaped as ``_kernel`` shapes them: M(-w) = J M(w)* J with J the swap
    of (da_y, da_y^dag), and random sources."""
    m = np.array(drifts, dtype=complex)
    m_w = np.concatenate([m, m[:, ::-1, ::-1].conj()])
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(len(m_w), 2, 2)) + 1j * rng.normal(
        size=(len(m_w), 2, 2))
    return m_w, np.roll(m_w, len(m), axis=0), src, fluct._VACUUM


def confluent(ratio, scale, m):
    """m I + K with K00^2 + K01 K10 = ratio K00^2 and |K|_max = scale."""
    p, q = scale * (0.6 + 0.8j), scale * (0.8 - 0.6j)
    return m * np.eye(2) + [[p, q], [(ratio - 1.0) * p * p / q, -p]]


# (drift M(w), whether the closed form takes it)
HARD_DRIFTS = {
    "jordan-triangular": ([[-0.3 + 0.2j, 2.0 - 1.0j], [0.0, -0.3 + 0.2j]],
                          False),
    "jordan": (confluent(0.0, 1.5, -0.4 + 2.0j), False),
    # |K| <= 5: at |K| = 40 a change of one ulp in the drift moves the
    # exact result by 3e-13 relative, more than the 1e-13 asked here
    **{f"confluent-{r:g}-{s:g}": (confluent(r, s, -0.5 + 3.0j), r > 1e-2)
       for r in (1e-1, 1e-4, 1e-8, 1e-12, 1e-16) for s in (1.0, 5.0)},
    # e^d overflows and e^m underflows; |e^(m + d)| is e^-1 and e^-2
    "damped": ([[-1.0 + 5.0j, 3.0 + 1.0j], [2.0 - 1.0j, -1601.0 + 5.0j]],
               True),
    "damped-far": ([[-2.0 - 20.0j, 5.0j], [-4.0, -3002.0 - 60.0j]], True),
}


@pytest.mark.parametrize("name", HARD_DRIFTS)
def test_confluent_and_overflowing_drifts_match_a_50_digit_transport(name):
    """Jordan blocks (d = 0), drifts with d^2/|K|^2 down to 1e-16 and
    strongly damped drifts with e^d = inf, against mpmath at 50 digits;
    the closed form takes the damped ones and leaves |K| > 10 |d| to
    the Taylor series."""
    drift, closed = HARD_DRIFTS[name]
    args = mirrored_stack([drift])
    with mock.patch.object(fluct, "_taylor", wraps=fluct._taylor) as spy:
        got = transport(*args)
    assert spy.called is not closed
    for s, ref in zip(got, mpmath_transport(*args)):
        assert_close(s, ref, rtol=1e-13)


def test_transport_of_a_stack_of_steps_is_that_of_each_step():
    """A (steps, +-w) stack, as the Magnus steps give it, with pairs that
    take the closed form and pairs that take the Taylor series in
    different places on each step: every step's maps are those of the
    step on its own, bit for bit."""
    names = ["jordan", "damped", "confluent-1e-16-1", "confluent-0.1-1"]
    rows = [mirrored_stack([HARD_DRIFTS[names[i]][0],
                            HARD_DRIFTS[names[j]][0]], seed=k)
            for k, (i, j) in enumerate([(0, 1), (1, 2), (3, 0), (1, 3)])]
    gen, src = (componentwise(np.stack([r[i] for r in rows]))
                for i in (0, 2))
    with mock.patch.object(fluct, "_taylor", wraps=fluct._taylor) as spy:
        maps = fluct._transport(gen, src)
    assert spy.call_count == 1
    for r in range(len(rows)):
        for got, ref in zip(maps, fluct._transport(gen[:, :, r],
                                                   src[:, :, r])):
            assert np.array_equal(got[:, :, r], ref)


def test_cross_kerr_transport_takes_phi1_at_a_zero_eigenvalue_sum():
    """truncate_dephasing leaves m = +-i w gamma l/c, so at omega = 0
    m + m' = 0 and d = d': an eigenvalue sum is exactly 0."""
    ens = EnsembleParams.from_cooperativity(1600.0)
    drive = DriveParams(intensity=8e4, detuning=400.0)
    args = (*kernel(ens, drive, [0.0, 5.0, 50.0], truncate_dephasing=True),
            fluct._VACUUM)
    m, _, d, _, _ = fluct._drifts(componentwise(args[0]))
    m_, _, d_, _, _ = fluct._drifts(componentwise(args[1]))
    assert m[0] + m_[0] + (d[0] - d_[0]) == 0.0
    for s, ref in zip(transport(*args), scipy_transport(*args)):
        assert_close(s, ref, rtol=1e-13)


def preset_points(preset, every=3):
    """(ensemble, drive, omegas) of every ``every``-th preset detuning."""
    cfg, _ = cli.load_config(preset)
    sec = cfg["noise"]
    ix = float(cfg["drive"]["intensity"])   # YAML reads 8.0e4 as a string
    return [pytest.param(cli.build_ensemble(cfg),
                         DriveParams(intensity=ix, detuning=de),
                         sec["omegas"], id=f"{preset}-{de:g}")
            for de in sec["detunings"][::every]]


# 104 augmented generators: the preset grids (hot ones at every third
# detuning) and the strongly amplifying C = 1e7, 1e8 points, where the
# absolute commutator residual reaches 77 and 1e119
ORACLE_POINTS = (
    preset_points("hot-vapour-d2") + preset_points("hot-vapour-d1")
    + preset_points("cold-atom-kerr")
    + [pytest.param(EnsembleParams.from_cooperativity(c),
                    DriveParams(intensity=1e6, detuning=3.0), [0.5, 1.0],
                    id=f"C{c:g}") for c in (1e7, 1e8)])


@pytest.mark.parametrize("ens, drive, omegas", ORACLE_POINTS)
def test_spectrum_extrema_match_a_50_digit_transport(ens, drive, omegas):
    spec = fluct.propagate_noise(ens, drive, omegas, THETAS)
    s_min, s_max = mpmath_extrema(*transport_inputs(ens, drive, omegas))
    assert np.abs(spec.s_min / s_min - 1.0).max() <= 1e-11
    assert np.abs(spec.s_max / s_max - 1.0).max() <= 1e-11


# every preset detuning, and hot and cold grids of the noise-grid size
FAST_GRIDS = (
    preset_points("hot-vapour-d2", 1) + preset_points("hot-vapour-d1", 1)
    + preset_points("cold-atom-kerr", 1)
    + [pytest.param(HOT, DriveParams(intensity=1000.0, detuning=de),
                    np.geomspace(0.1, 3.0, 400), id=f"hot-400-{de:g}")
       for de in (-2.7, 0.4)]
    + [pytest.param(EnsembleParams.from_cooperativity(1600.0),
                    DriveParams(intensity=8e4, detuning=de),
                    np.geomspace(1.0, 300.0, 400), id=f"cold-400-{de:g}")
       for de in (-450.0, 320.0)])


@pytest.mark.parametrize("ens, drive, omegas", FAST_GRIDS)
def test_driven_sidebands_take_the_closed_form(ens, drive, omegas):
    """No sideband of these grids falls back to the Taylor series, and
    the closed form is within 1e-14 of it, relative to each sideband's
    largest covariance."""
    with mock.patch.object(fluct, "_taylor", wraps=fluct._taylor) as spy:
        args = transport_inputs(ens, drive, omegas)
        got = transport(*args)
    spy.assert_not_called()
    m_w, _, src, sigma0 = args
    ref = stacked(fluct._apply(fluct._taylor(componentwise(m_w),
                                             componentwise(src)),
                               sigma0[:, :, None]))
    scale = np.abs(ref).max(axis=(1, 2))
    assert (np.abs(got - ref).max(axis=(1, 2)) <= 1e-14 * scale).all()


def decades(lo, hi):
    """Floats spread evenly over the decades from 10**lo to 10**hi."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(decades(1, 7), decades(0, 6),
       decades(0, 3).flatmap(lambda d: st.sampled_from([d, -d])),
       decades(-1, math.log10(300.0)))
# strongly damped drifts: e^d overflows (|d| about 1.1e5 and 1.6e3),
# e^(m + d) and the spectra do not
@example(5826500.143470126, 1.0, 1.0, 1.0)
@example(10130.426779921429, 12.59323937586027, -7.722902304935809,
         9.937929079482487)
def test_random_points_exit_3_or_match_a_50_digit_transport(c, ix, de, w):
    """Over C 10..1e7, I_x 1..1e6, |Delta| 1..1e3 and omega 0.1..300, a
    spectrum that passes every gate has the 50-digit extrema."""
    ens = EnsembleParams.from_cooperativity(c)
    drive = DriveParams(intensity=ix, detuning=de)
    try:
        spec = fluct.propagate_noise(ens, drive, [w], THETAS)
    except NumericalError:
        return
    s_min, s_max = mpmath_extrema(*transport_inputs(ens, drive, [w]))
    assert abs(spec.s_min[0] / s_min[0] - 1.0) <= 1e-6
    assert abs(spec.s_max[0] / s_max[0] - 1.0) <= 1e-6


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


def depleted_and_per_intensity(ens, drive, omegas, thetas=THETAS, **kw):
    """propagate_noise(deplete=True) as it runs and with the kernel built
    afresh at each intensity, and the intensities of every kernel
    call."""
    calls = []
    kernel = fluct._kernel

    def spy(*args):
        calls.append(args[2])
        return kernel(*args)

    with mock.patch.object(fluct, "_kernel", spy):
        got = fluct.propagate_noise(ens, drive, omegas, thetas, deplete=True,
                                    **kw)
    with mock.patch.object(fluct, "_kernel", per_intensity_kernel):
        ref = fluct.propagate_noise(ens, drive, omegas, thetas, deplete=True,
                                    **kw)
    return got, ref, calls


def assert_depleted_equals_per_intensity(ens, drive, omegas, thetas=THETAS,
                                         **kw):
    got, ref, calls = depleted_and_per_intensity(ens, drive, omegas, thetas,
                                                 **kw)
    assert min(len(ix) for ix in calls) >= 4
    for name in ("values", "s_min", "s_max"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))


@pytest.mark.parametrize("preset", ["hot-vapour-d2", "hot-vapour-d1",
                                    "cold-atom-kerr"])
def test_depleted_presets_equal_per_evaluation_kernel(preset):
    """The kernel of all Gauss points in one call gives the spectra of a
    kernel built afresh at each intensity, bit for bit."""
    cfg, _ = cli.load_config(preset)
    ens = cli.build_ensemble(cfg)
    sec = cfg["noise"]
    ix = float(cfg["drive"]["intensity"])   # YAML reads 8.0e4 as a string
    thetas = np.linspace(0.0, np.pi, sec["theta_points"], endpoint=False)
    for de in sec["detunings"]:
        assert_depleted_equals_per_intensity(
            ens, DriveParams(intensity=ix, detuning=de), sec["omegas"],
            thetas)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(-10.0, 10.0), st.floats(10.0, 1e4),
       st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=1,
                max_size=4))
def test_depleted_hot_points_equal_per_evaluation_kernel(de, ix, omegas):
    assert_depleted_equals_per_intensity(
        HOT, DriveParams(intensity=ix, detuning=de), omegas)


@pytest.mark.parametrize("kw", [{"include_noise": False},
                                {"truncate_dephasing": True},
                                {"include_noise": False,
                                 "truncate_dephasing": True}])
def test_depleted_variants_equal_per_evaluation_kernel(kw):
    for ens, drive, omegas in [
            (HOT, DriveParams(intensity=1000.0, detuning=-1.5),
             [0.0, 0.5, 1.0]),
            (EnsembleParams.from_cooperativity(1600.0),
             DriveParams(intensity=8e4, detuning=400.0), [1.0, 30.0])]:
        assert_depleted_equals_per_intensity(ens, drive, omegas, **kw)


def test_depleted_solve_builds_the_sidebands_once():
    """The sideband factors once per call; on a hot cell the 2, 4 and 8
    steps settle in one batch: one kernel, one steady state and one
    transport for all 28 Gauss points."""
    with mock.patch.object(fluct, "_sidebands",
                           wraps=fluct._sidebands) as sidebands, \
            mock.patch.object(fluct, "_kernel",
                              wraps=fluct._kernel) as kernel_spy, \
            mock.patch.object(fluct, "_transport",
                              wraps=fluct._transport) as transport_spy, \
            mock.patch.object(bloch, "linear_steady_state",
                              wraps=bloch.linear_steady_state) as steady:
        fluct.propagate_noise(HOT, DriveParams(intensity=1000.0,
                                               detuning=-1.5),
                              [0.0, 0.5, 1.0], THETAS, deplete=True)
    assert sidebands.call_count == 1
    assert kernel_spy.call_count == steady.call_count == 1
    assert transport_spy.call_count == 1
    assert kernel_spy.call_args.args[2].shape == (28,)


@pytest.mark.parametrize("preset", ["hot-vapour-d2", "hot-vapour-d1",
                                    "cold-atom-kerr"])
def test_depleted_mean_field_stays_linear(preset):
    """The depleted solve carries I_x(z) alone.  That rests on a linearly
    polarized input staying linear: at every intensity the solve visits,
    the mean-field derivative of the general (elliptical) steady state
    keeps <a-> = -<a+>, and it attenuates each amplitude by the same
    kappa(0), whatever their common phase."""
    cfg, _ = cli.load_config(preset)
    ens = cli.build_ensemble(cfg)
    sec = cfg["noise"]
    ix = float(cfg["drive"]["intensity"])   # YAML reads 8.0e4 as a string
    seen = []
    profile = bloch.depleted_intensity

    def spy(*args):
        seen.append(profile(*args))
        return seen[-1]

    for de in sec["detunings"]:
        seen.clear()
        with mock.patch.object(bloch, "depleted_intensity", spy):
            fluct.propagate_noise(ens, DriveParams(intensity=ix, detuning=de),
                                  sec["omegas"], THETAS, deplete=True)
        intensities = np.concatenate(seen)
        assert intensities.size >= 28
        for i in intensities[::7]:
            k0 = bloch.kappa_zero(ens, DriveParams(intensity=i, detuning=de))
            for phase in (0.0, 2.1):
                a = np.sqrt(i / 2.0) * np.exp(1j * phase)
                dp, dm = field_derivative(ens, a, -a, de)
                assert dm == -dp
                assert abs(dp + k0 * a) <= 1e-13 * abs(k0 * a)


@pytest.mark.parametrize("preset, tol", [("hot-vapour-d2", 1e-12),
                                         ("hot-vapour-d1", 1e-12),
                                         ("cold-atom-kerr", 1e-12)])
def test_depleted_mean_field_obeys_the_saturable_beer_law(preset, tol):
    """dI/dz = -C I / ((1 + Delta^2)(1 + s)), s = I/(1 + Delta^2), so the
    output intensity I1 of an input I0 solves
    ln(I1/I0) + (I1 - I0)/(1 + Delta^2) = -C/(1 + Delta^2).  The
    closed-form profile's I1 matches that root to ``tol`` relative."""
    from scipy.optimize import brentq
    cfg, _ = cli.load_config(preset)
    ens = cli.build_ensemble(cfg)
    sec = cfg["noise"]
    i0 = float(cfg["drive"]["intensity"])   # YAML reads 8.0e4 as a string
    for de in sec["detunings"]:
        i1 = float(bloch.depleted_intensity(ens.cooperativity, i0, de, 1.0))
        x = 1.0 + de * de
        beer = brentq(lambda i: math.log(i / i0) + (i - i0 + ens.cooperativity)
                      / x, 1e-300, i0, xtol=1e-300, rtol=1e-15)
        assert abs(i1 / beer - 1.0) <= tol, de


@pytest.mark.parametrize("c, de", [(15.0, 1.5), (15.0, -400.0),
                                   (1600.0, 400.0), (100.0, 0.0),
                                   (100.0, 1.5), (1600.0, 0.0),
                                   (1600.0, 1.5)])
def test_depleted_spectra_without_drive_stay_at_the_qnl(c, de):
    """Nothing depletes at I_x = 0, so ``deplete`` takes the undepleted
    transport, with -iu (2-iu) cancelled from the rows, omega = 0
    included: absorption and inflow balance to 1e-14 dB, also in the
    optically thick cells (C = 100, 1600 near resonance) where an ODE
    at rtol 1e-8 does not hold that balance."""
    ens = EnsembleParams.from_cooperativity(c, gamma_raw=1.9058e7)
    spec = fluct.propagate_noise(ens, DriveParams(intensity=0.0,
                                                  detuning=de),
                                 [0.0, 0.5, 3.0, 50.0], THETAS, deplete=True)
    assert np.abs(spec.min_db()).max() <= 1e-14
    assert np.abs(spec.max_db()).max() <= 1e-14
    assert np.abs(spec.to_db()).max() <= 1e-14
