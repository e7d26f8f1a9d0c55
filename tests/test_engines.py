"""Evaluation engines: frozen anchors, exact identities, routing checks."""

import cmath
import math
import random
import subprocess
import sys
import threading
import time

import mpmath as mp
import pytest

from helpers import reference_series_sum, rel_err, sample
from lerchphi import engines, special_kernel
from lerchphi._quadrature import _half_line_nodes
from lerchphi._types import EngineReport, LerchPoint
from lerchphi.cli import _run_engine
from lerchphi.coefficients import (CoefficientTable, csc_coefficients,
                                   csc_coefficients_contour,
                                   csc_coefficients_subtracted)
from lerchphi.engines import (
    choose_optimal_M,
    eval_abel_plana,
    eval_auto,
    eval_fl_expansion,
    eval_integer_s_large_z,
    eval_main_theorem,
    eval_near_one,
    eval_series_direct,
    eval_symmetric_igamma,
    remainder_estimate,
    residue_series,
)
from lerchphi.errors import (AccuracyError, ConditioningError, DomainError,
                             LerchError)
from lerchphi.factorial_series import p_n_direct, p_n_stable, series_states
from lerchphi.oracle import (hp_continuation, hp_series, quad_integral,
                             reference_value)
from lerchphi.special_kernel import (gamma, gamma_star, hurwitz_zeta,
                                     log_neg_z, reciprocal_gamma,
                                     upper_incomplete_gamma)

S34 = 0.75
A03 = 0.3

# closed form at z = 1/2, s = 2, a = 1: pi^2/6 - ln^2 2
PHI_HALF_2_1 = 1.1644810529300250118

# limit row toward the branch point: z = 1 - 1e-6 (the binary64 nearest it),
# s = 3/4, a = 0.3.  Frozen from a chunked compensated direct summation of
# 44 million series terms; an independent 40-digit recomputation at the same
# binary64 z agrees to 4e-14.  The value is sensitive to z at level 3e7, so
# anchors computed at the exact decimal 0.999999 differ in the 10th digit.
NEAR_ONE_LIMIT_Z1M6 = 113.29627935124659

# a point of the Abel-Plana engine's former gap past e: |a ln z| ~ 800,
# where Gamma(1 - s, -a ln z) leaves the double range and the engine
# carries it in log space
GAP_Z, GAP_S, GAP_A = 2e9 + 1e9j, 0.75 + 0.5j, 37.3

# points where the Abel-Plana engine's Gamma term is past the double
# range and goes to log space, with no kernel call
LOG_SPACE_POINTS = (
    LerchPoint(0.95, 0.75, 20000.3),
    LerchPoint(4.13 - 3.78j, -26.5 + 29.9j, 267.8),
    LerchPoint(cmath.rect(1e7, -2.0), 0.75 + 0.5j, 40.0 + 10.0j),
    LerchPoint(cmath.rect(1e5, -1.0), 1.5, 60.0 + 12.0j))

# one-sided limit onto the cut at z = 10, s = 3/4, a = 0.3 approached from
# above; frozen from the reference suite (offset 1e-6, drift there ~5e-8)
CUT_ABOVE_Z10 = complex(0.524840789287, 1.04306685763)

# frozen verification rows for the resummed theorem at s = 3/4, a = 0.3,
# depth N = 5: (z, optimal M, reference to 8 digits, depth-5 value to
# 8 digits, |z|^6-scaled true remainder).  The reference column is
# cross-checked against the oracle in the acceptance suite.
VERIFICATION_ROWS = (
    (complex(-5.0, 0.0), 9,
     complex(1.3421782, 0.0), complex(1.3421692, 0.0), 0.140),
    (complex(-10.0, 0.0), 13,
     complex(1.0889334, 0.0), complex(1.0889332, 0.0), 0.158),
    (complex(0.0, 10.0), 16,
     complex(0.98125249, 0.54864116), complex(0.98125270, 0.54864133), 0.269),
    (complex(10.0, 0.01), 22,
     complex(0.52526675, 1.04285831), complex(0.52526654, 1.04285810), 0.297),
)


def contiguity_gap(value_a, value_a1, z, s, a):
    """Defect in phi(z,s,a) = a^-s + z phi(z,s,a+1), scaled past |phi| = 1."""
    return abs(value_a - (a ** -s + z * value_a1)) / max(1.0, abs(value_a))


# ---------------------------------------------------------------------------
# shared point/report types


def test_point_validation():
    p = LerchPoint(0.5, 2, 1)
    assert p.z == 0.5 + 0j and isinstance(p.z, complex)
    assert p.s == 2 + 0j and p.a == 1 + 0j
    assert not p.on_cut
    assert LerchPoint(1.5, 0.5, 0.3).on_cut
    assert LerchPoint(1.0, 2.5, 0.3).on_cut
    assert not LerchPoint(1.5 + 1e-9j, 0.5, 0.3).on_cut
    with pytest.raises(ValueError):
        LerchPoint(0.5, 1.0, 0.5, cut_side="left")
    for bad_a in (0.0, -3.0, -1 + 0j):
        with pytest.raises(DomainError):
            LerchPoint(0.5, 1.0, bad_a)
    with pytest.raises(DomainError):
        LerchPoint(1.0, 0.75, 0.3)


def test_report_validation():
    rep = EngineReport(1.0 + 0j, 1e-12, 4, 2, "direct")
    assert rep.warnings == ()
    with pytest.raises(ValueError):
        EngineReport(1.0 + 0j, -1e-3, 0, 0, "direct")
    with pytest.raises(ConditioningError):
        EngineReport(1.0 + 0j, math.nan, 0, 0, "direct")


# ---------------------------------------------------------------------------
# direct series


def test_direct_at_zero_argument():
    for s, a in ((2.5, 1.3), (1.1 - 0.7j, 0.4 + 0.2j)):
        rep = eval_series_direct(LerchPoint(0.0, s, a))
        assert rel_err(rep.value, complex(a) ** -complex(s)) < 1e-15
        assert rep.n_terms == 1
    # the Abel-Plana form, which eval_auto keeps away from z = 0
    with pytest.raises(DomainError):
        eval_abel_plana(LerchPoint(0.0, 2.5, 1.3))


def test_direct_known_sums():
    rep = eval_series_direct(LerchPoint(0.5, 2.0, 1.0), tol=1e-14)
    assert abs(rep.value - PHI_HALF_2_1) < 1e-13
    z = 0.4 + 0.2j
    geo = eval_series_direct(LerchPoint(z, 0.0, 0.8), tol=1e-14)
    assert rel_err(geo.value, 1.0 / (1.0 - z)) < 1e-12


def test_direct_domain_and_cap():
    with pytest.raises(DomainError):
        eval_series_direct(LerchPoint(-1.0, 2.0, 1.0))
    with pytest.raises(DomainError):
        eval_series_direct(LerchPoint(1.2 + 0.1j, 2.0, 1.0))
    # this close to the branch point the tail bound needs ~4e7 terms
    with pytest.raises(AccuracyError) as info:
        eval_series_direct(LerchPoint(1.0 - 1e-6, S34, A03))
    assert math.isfinite(info.value.achieved)
    # and so at complex s, at Re s < 0 (whose ratio bound is still
    # infinite at the cap) and at complex z
    for z, s in ((1.0 - 1e-6, 1.5 + 2.5j), (1.0 - 1e-6, -2.5),
                 ((1.0 - 1e-6) * 1j, S34)):
        with pytest.raises(AccuracyError):
            eval_series_direct(LerchPoint(z, s, 0.6))


def test_series_sum_matches_reference_loop():
    # the series' two loops (the general one, then real a + n > 0 at
    # Re s >= 0) against the one loop that decides each term's route
    # afresh (helpers.reference_series_sum): the same value, estimate and
    # term count, bit for bit
    def draw(rng):
        z = cmath.rect(rng.uniform(0.0, 0.9), rng.uniform(-math.pi, math.pi))
        s = complex(rng.uniform(0.0, 8.0))
        a = complex(rng.uniform(0.05, 10.0))
        regime = rng.randrange(7)
        if regime == 1:  # complex s
            s += 1j * rng.uniform(-10.0, 10.0)
        elif regime == 2:  # Re s < 0, real or complex
            s = complex(rng.uniform(-20.0, 0.0),
                        rng.choice((0.0, rng.uniform(-5.0, 5.0))))
        elif regime == 3:  # real a < 0: the head while Re(a+n) <= 0
            a = complex(rng.uniform(-8.0, 0.0))
            s += rng.choice((0.0, 1j * rng.uniform(-3.0, 3.0)))
        elif regime == 4:  # complex a
            a = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        elif regime == 5:  # real z: the float sum
            z = complex(rng.uniform(-0.9, 0.9))
        elif regime == 6:
            z = 0j
        return z, s, a, 10.0 ** rng.uniform(-18.0, -4.0)

    for z, s, a, tol in sample(26, 700, draw):
        assert (repr(engines._series_sum(z, s, a, tol))
                == repr(reference_series_sum(z, s, a, tol))), (z, s, a)


def test_direct_tolerance_scaling():
    p = LerchPoint(0.9, 1.1, 0.7)
    loose = eval_series_direct(p, tol=1e-6)
    tight = eval_series_direct(p, tol=1e-13)
    assert loose.n_terms < tight.n_terms
    assert loose.abs_err_estimate <= 1e-6
    assert abs(loose.value - tight.value) <= 2e-6


# ---------------------------------------------------------------------------
# expansion around the branch point


def test_near_one_matches_direct_inside_disk():
    rows = ((0.9, 2.5, 1.2),
            (cmath.rect(0.88, 0.7), 1.3 - 0.4j, 0.6 + 0.2j))
    for z, s, a in rows:
        p = LerchPoint(z, s, a)
        want = eval_series_direct(p, tol=1e-13).value
        got = eval_near_one(p).value
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (z, s, a)


def test_near_one_branch_point_limit():
    rep = eval_near_one(LerchPoint(1.0 - 1e-6, S34, A03))
    assert rel_err(rep.value, NEAR_ONE_LIMIT_Z1M6) < 1e-10
    assert rep.abs_err_estimate < 1e-9


def test_near_one_zero_depth_assembly():
    # with the sum capped at its first term the report is exactly
    # z^-a (Gamma(1-s) (-ln z)^(s-1) + zeta(s, a))
    from lerchphi.special_kernel import gamma

    z, s, a = 1.4 + 0.3j, 0.8 - 0.4j, 0.65
    rep = eval_near_one(LerchPoint(z, s, a), n_max=0)
    assert rep.warnings == ("n-cap-reached",)
    lnz = cmath.log(z)
    want = z ** -a * (gamma(1 - s) * (-lnz) ** (s - 1.0) + hurwitz_zeta(s, a))
    assert rel_err(rep.value, want) < 1e-13


def test_near_one_cut_sides():
    above = eval_near_one(LerchPoint(10.0, S34, A03, "above"))
    below = eval_near_one(LerchPoint(10.0, S34, A03, "below"))
    assert abs(above.value - CUT_ABOVE_Z10) < 5e-6
    assert abs(below.value - CUT_ABOVE_Z10.conjugate()) < 5e-6
    assert abs(above.value - below.value) > 1.0  # genuine jump
    assert abs(below.value - above.value.conjugate()) < 1e-12


def test_near_one_estimate_is_honest():
    # cheap positive-axis points, one inside the disk and one on each side
    # of the cut, where the error outgrows 1e-15 of the value; 60-digit
    # mpmath, taken at z +/- i 1e-40 on the cut
    rows = ((0.93, 0.5 + 2.0j, 0.9, "above", 0.0),
            (1.2, 0.5 + 2.0j, 0.2, "above", 1e-40),
            (1.6, 0.5 - 2.0j, 2.3, "below", -1e-40))
    for z, s, a, side, nudge in rows:
        rep = eval_near_one(LerchPoint(z, s, a, side))
        with mp.workdps(60):
            want = complex(mp.lerchphi(mp.mpc(z, nudge), mp.mpc(s),
                                       mp.mpf(a)))
        assert abs(rep.value - want) <= rep.abs_err_estimate, z
        assert rep.abs_err_estimate <= 1e-12 * abs(want), z


def test_near_one_estimate_is_honest_on_random_points():
    # seeded points of the band 0.9 < |z| < e off the positive axis, with
    # complex a and |Im s| <= 3; mpmath's lerchphi at 30 and 45 digits is
    # the reference, and the two must agree before it judges anything
    def draw(rng):
        z = cmath.rect(math.exp(rng.uniform(math.log(0.9), 1.0)),
                       rng.choice((-1.0, 1.0)) * rng.uniform(0.05, math.pi))
        s = complex(rng.uniform(0.1, 6.0), rng.uniform(-3.0, 3.0))
        a = complex(rng.uniform(0.1, 4.0), rng.uniform(-1.0, 1.0))
        return z, s, a

    for z, s, a in sample(120, 12, draw):
        rep = eval_near_one(LerchPoint(z, s, a))
        refs = []
        for dps in (30, 45):
            with mp.workdps(dps):
                refs.append(mp.lerchphi(mp.mpc(z), mp.mpc(s), mp.mpc(a)))
        with mp.workdps(45):
            assert abs(refs[0] - refs[1]) <= 1e-25 * abs(refs[1]), z
        want = complex(refs[1])
        assert abs(rep.value - want) <= rep.abs_err_estimate, (z, s, a)
        assert rep.abs_err_estimate <= 1e-10 * max(1.0, abs(want)), z


def test_near_one_at_z_equal_one():
    # z = 1 sits on the cut, where ln z = 0 leaves no singular piece: the
    # sum is zeta(s, a), from either side.  At integer s too: no term
    # past n = 0 is evaluated, and at s = 2 the first of them would be
    # zeta's pole; zeta(2, 1/2) = pi^2/2
    for s, want in ((2.5, hurwitz_zeta(2.5, 0.5)), (2.0, math.pi ** 2 / 2)):
        for side in ("above", "below"):
            rep = eval_near_one(LerchPoint(1.0, s, 0.5, side))
            assert rep.n_terms == 0
            assert rel_err(rep.value, want) < 1e-13
            assert abs(rep.value - want) <= rep.abs_err_estimate


def test_near_one_refusals():
    for s in (1.0, 2.0, 5.0):
        with pytest.raises(DomainError):
            eval_near_one(LerchPoint(1.1, s, 0.4))
    with pytest.raises(DomainError):
        eval_near_one(LerchPoint(600.0, S34, A03))


# ---------------------------------------------------------------------------
# Abel-Plana summation (the band 0.9 < |z| < e)


def test_abel_plana_estimate_is_honest_on_random_band_points():
    # seeded band points with real and complex a, integer s and
    # |Im s| <= 8, plus points where arg a + arg(-ln z) leaves (-pi, pi],
    # so that Gamma(1 - s, -a ln z) must be continued past the kernel's
    # principal branch, and points on the cut from both sides.
    # References: at real a, mpmath's continuation at 30 and 40 digits
    # (at z +/- i 1e-30 on the cut), since reference_value's quadrature
    # can miss its own bar when x^(s-1) oscillates (Re s < 1, or |Im s|
    # near 8); at complex a, that quadrature, with Re s > 1 and
    # |Im s| <= 3, since mpmath's continuation is O(1) wrong at the
    # points that need the continued branch
    def draw(rng):
        z = cmath.rect(math.exp(rng.uniform(math.log(0.9), 1.0)),
                       rng.uniform(-math.pi, math.pi))
        whole = rng.random() < 0.25
        if rng.random() < 0.4:
            s = (complex(rng.uniform(1.0, 7.0), rng.uniform(-3.0, 3.0))
                 if not whole else complex(rng.randint(1, 5), 0.0))
            return LerchPoint(z, s, complex(rng.uniform(0.05, 4.0),
                                            rng.uniform(-1.0, 1.0)))
        s = (complex(rng.uniform(-2.0, 7.0), rng.uniform(-8.0, 8.0))
             if not whole else complex(rng.randint(1, 5), 0.0))
        return LerchPoint(z, s, rng.uniform(0.05, 4.0))

    def check(p, ref):
        rep = eval_abel_plana(p)
        err = abs(rep.value - ref.value)
        assert err <= rep.abs_err_estimate + ref.err_bar, p
        assert rep.abs_err_estimate <= 1e-10 * max(1.0, abs(ref.value)), p

    turned = [LerchPoint(cmath.rect(2.0, sign * 0.3), s,
                         complex(1.0, -sign * 0.8))
              for sign in (1.0, -1.0) for s in (3.0, 1.5 + 2.0j)]
    for p in sample(610, 16, draw) + turned:
        if p.a.imag:
            check(p, quad_integral(p.z, p.s, p.a))
        else:
            check(p, hp_continuation(p.z, p.s, p.a))
    for side, nudge in (("above", 1e-30), ("below", -1e-30)):
        for z, s, a in ((1.7, 2.0, 0.45), (2.4, 0.6 - 4.0j, 1.3)):
            check(LerchPoint(z, s, a, side),
                  hp_continuation(complex(z, nudge), s, a))


def test_abel_plana_at_z_one_is_hurwitz_zeta():
    # at z = 1 (L = 0, Re s > 1) the Abel-Plana form is Hermite's formula
    # for zeta(s, a): the shared integral at L = 0, checked against the
    # kernel's other zeta route, Euler-Maclaurin, which hurwitz_zeta
    # takes at Re s >= -0.5.  Small |a| (the last
    # point) puts a sharp peak in the integrand near t = |a|, which costs
    # the quadrature digits; the estimate says so
    for s, a in ((1.5, 0.3), (2.0, 1.0), (3.2 + 4.0j, 0.7 + 0.4j),
                 (1.1 - 2.5j, 2.6), (6.0, 0.05 - 0.3j)):
        rep = eval_abel_plana(LerchPoint(1.0, s, a))
        want = hurwitz_zeta(s, a)
        assert rel_err(rep.value, want) < 1e-12, (s, a)
        assert abs(rep.value - want) <= rep.abs_err_estimate, (s, a)


def test_abel_plana_shifts_nonpositive_a():
    # Re a <= 0 steps through Phi(z,s,a) = a^(-s) + z Phi(z,s,a+1)
    z, s, a = cmath.rect(1.3, 2.0), 0.5 + 0.5j, -1.4 + 0.2j
    rep = eval_abel_plana(LerchPoint(z, s, a))
    step = eval_abel_plana(LerchPoint(z, s, a + 2.0))
    want = a ** -s + z * (a + 1.0) ** -s + z * z * step.value
    assert rel_err(rep.value, want) < 1e-14
    assert rep.abs_err_estimate >= abs(z) ** 2 * step.abs_err_estimate


def test_abel_plana_steps_complex_a_to_re_a_one():
    # at complex a the branch point of (a + it)^(-s) or (a - it)^(-s)
    # lies Re a from the integration path, at t = |Im a|; the engine
    # steps such a to Re a >= 1 first, and the half-line rule then needs
    # no more nodes than elsewhere (2037 and 2007 before the step, and
    # the second point was 8.2e-10 off)
    a = 0.05 - 0.3j
    with mp.workdps(30):
        wants = (complex(mp.lerchphi(1.5j, 2.5, a)), complex(mp.zeta(6, a)))
    for z, s, want in zip((1.5j, 1.0), (2.5, 6.0), wants):
        rep = eval_abel_plana(LerchPoint(z, s, a))
        assert rep.n_terms <= 140, (z, s)
        assert abs(rep.value - want) <= rep.abs_err_estimate, (z, s)
        assert rel_err(rep.value, want) < 1e-12, (z, s)


def test_abel_plana_tail_is_cut_where_its_bound_is_under_the_floor():
    # near the negative axis at Re s < 0 the integrand decays only like
    # e^(-(2 pi - |Im L|) t) |a + it|^(-Re s) e^(pi |Im s| / 2); a fixed
    # end at t = max(14, 6 + 1.1 |Re s|) left 1.3e-11 out here against
    # an estimate of 2.7e-12
    p = LerchPoint(-2.786464933654975 - 0.2801932546958694j,
                   -6.844729180990214 + 2.2595641957126738j,
                   1.6595992904621812)
    with mp.workdps(30):
        want = complex(mp.lerchphi(p.z, p.s, p.a))
    rep = eval_abel_plana(p)
    assert abs(rep.value - want) <= rep.abs_err_estimate
    assert abs(rep.value - want) < 1e-13 * abs(want)


def test_abel_plana_oscillating_integrand_refines_past_the_digit_doubling():
    # at |z| ~ 2000 the integrand turns like e^(i t ln|z|) where the
    # half-line map spaces its nodes like t h: its digits went
    # 3.8 -> 8.2 -> 12.4 over three levels, so the squared change
    # promised 5e-16 where the value was 3.7e-7 off.  The half-line
    # chunk also needs change^2 / (the change before) under its bar
    p = LerchPoint(-1804.5321487177443 + 878.4758527519269j,
                   -13.719812672564693 + 4.767157939658071j,
                   1.259000535514974 + 1.6406341415056946j)
    with mp.workdps(30):
        want = complex(mp.lerchphi(p.z, p.s, p.a))
    rep = eval_abel_plana(p)
    assert abs(rep.value - want) <= rep.abs_err_estimate


def _mp_lerchphi_is_principal(z, a):
    # mpmath's lerchphi takes Gamma(1 - s, -a ln z) on its principal
    # branch, after stepping a to Re a >= 1; that is the continuation
    # only while arg a + arg(-ln z) stays inside (-pi, pi)
    a_mp = a + max(0, math.ceil(1.0 - a.real))
    return abs(cmath.phase(a_mp) + cmath.phase(-cmath.log(z))) < math.pi - 0.1


def draw_abel_plana_point(rng, r_min=0.9, r_max=1e4):
    """|z| log-uniform in [r_min, r_max] off the positive axis,
    Re s in (-12, 8), |Im s| < 8; real a in (0.05, 4), or in four of ten
    draws a complex a where mpmath's lerchphi is the continuation."""
    while True:
        z = cmath.rect(math.exp(rng.uniform(math.log(r_min),
                                            math.log(r_max))),
                       rng.choice((-1.0, 1.0)) * rng.uniform(0.05, math.pi))
        s = complex(rng.uniform(-12.0, 8.0), rng.uniform(-8.0, 8.0))
        if rng.random() >= 0.4:
            return LerchPoint(z, s, rng.uniform(0.05, 4.0))
        a = complex(rng.uniform(0.05, 3.0), rng.uniform(-1.5, 1.5))
        if _mp_lerchphi_is_principal(z, a):
            return LerchPoint(z, s, a)


def test_abel_plana_evaluations_past_e():
    # the half-line rule's cost: the median point at |z| >= e takes no
    # more than two refinements of its first level, 140 evaluations
    # (273 with the chunks [0, 2, 8, 14] it replaced)
    points = sample(1212, 40, lambda rng: draw_abel_plana_point(
        rng, math.e, 400.0))
    counts = sorted(eval_abel_plana(p).n_terms for p in points)
    assert counts[len(counts) // 2] <= 140


def test_abel_plana_estimate_is_honest_on_seeded_points():
    # 60 seeded points at 0.9 <= |z| <= 1e4, Re s on both sides of 0 and
    # complex a, against mpmath's lerchphi at 30 digits
    points = sample(1213, 60, draw_abel_plana_point)
    assert sum(p.s.real < 0.0 for p in points) >= 20
    assert sum(p.a.imag != 0.0 for p in points) >= 15
    for p in points:
        with mp.workdps(30):
            want = complex(mp.lerchphi(p.z, p.s, p.a))
        rep = eval_abel_plana(p)
        assert abs(rep.value - want) <= rep.abs_err_estimate, p


def test_abel_plana_evaluates_one_incomplete_gamma(monkeypatch):
    # the Gamma term's rounding bound comes from the kernel's route, so
    # each point evaluates Gamma(1 - s, -aL) once (twice before, with the
    # recurrence gauge), the gap point and LOG_SPACE_POINTS too, whose
    # term the kernel's e^(x-w) m carries past the double range, and none
    # at z = 1, where the term is closed; at the band point the estimate
    # still covers the error
    calls = []
    kernel = special_kernel._upper_incomplete_gamma

    def counted(s, w):
        calls.append((s, w))
        return kernel(s, w)

    monkeypatch.setattr(special_kernel, "_upper_incomplete_gamma", counted)
    monkeypatch.setattr(engines, "_upper_incomplete_gamma", counted)
    band = LerchPoint(-0.28867 + 0.95968j, 2.05279 + 0.21746j, 1.17260)
    past_e = LerchPoint(-14.06 - 3.35j, 5.07 + 0.98j, 1.54)
    for p, n in ((band, 1), (past_e, 1), (LerchPoint(GAP_Z, GAP_S, GAP_A), 1),
                 (LerchPoint(1.0, 2.5, 0.7), 0)) + tuple(
                     (p, 1) for p in LOG_SPACE_POINTS):
        calls.clear()
        eval_abel_plana(p)
        assert len(calls) == n, p
    with mp.workdps(40):
        want = complex(mp.lerchphi(band.z, band.s, band.a))
    rep = eval_abel_plana(band)
    assert abs(rep.value - want) <= rep.abs_err_estimate
    assert rep.abs_err_estimate <= 1e-10 * max(1.0, abs(want))


def test_abel_plana_past_the_double_range_at_large_a_and_huge_z():
    # a ln|z| near 2.2e4: the Gamma term in log space after one step
    # down, and a value near 1e-305; against the quadrature
    p = LerchPoint(-1.18e9 - 1.50e9j, 98.3 + 22.0j, 1012.8)
    rep = eval_abel_plana(p)
    ref = quad_integral(p.z, p.s, p.a)
    assert abs(rep.value - ref.value) <= rep.abs_err_estimate + ref.err_bar
    assert rel_err(rep.value, ref.value) <= 1e-13


def test_abel_plana_gamma_term_in_log_space():
    # the Gamma term is one exponential, e^((s-1) ln(-L) + x) m from the
    # kernel's Gamma(1-s, w) = e^(x-w) m, so no factor of it leaves the
    # double range on its own: at |z| < 1, where e^(-aL) is e^1026; where
    # only w^(1-s) e^(-w) overflows, at Re w = -459; and one turn past the
    # principal branch (arg a + arg(-L) > pi), where the continuation's
    # jump is taken against e^(x-w)
    p_in, p_x, *turned = LOG_SPACE_POINTS
    for p in turned:
        assert cmath.phase(p.a) + cmath.phase(-cmath.log(p.z)) > math.pi
    cases = ([(p_in, hp_series, 1e-14), (p_x, hp_continuation, 1e-12)]
             + [(p, quad_integral, 1e-14) for p in turned])
    # Where an exponent passes 600 only because |w| = |a ln z| is small
    # against Re s, the scaled tail does not serve and the series routes
    # do: at s = 86, a = 0.5 just inside and outside |z| = 1 (the tail
    # there once gave 7.7e28 for 7.7e25); where e^(-aL) (-L)^(s-1) alone
    # would underflow (e^-916 at z = e^-0.01, s = 200.5); and at s = 100
    # and 150, where Gamma(1-s, w) itself leaves the range and the value
    # (about 2^100 and 1e78) raised before
    cases += [(LerchPoint(1.001, s, 0.5), hp_continuation, 1e-14)
              for s in (86.0, 100.0)]
    cases += [(p, quad_integral, 1e-14)
              for p in (LerchPoint(0.999, 86.0, 0.5),
                        LerchPoint(math.exp(-0.01), 200.5, 10.0),
                        LerchPoint(0.995, 150.0, 3.0),
                        LerchPoint(0.999, 100.0, 0.5),
                        LerchPoint(0.999, 150.0, 0.3))]
    for p, oracle, rel in cases:
        rep = eval_auto(p)
        assert rep.engine == "abel_plana", p
        ref = oracle(p.z, p.s, p.a)
        assert abs(rep.value - ref.value) <= (rep.abs_err_estimate
                                              + ref.err_bar), p
        assert rel_err(rep.value, ref.value) <= rel, p
    # the quadrature's values at the last two, as mpmath gives them
    assert rel_err(eval_auto(LerchPoint(0.999, 100.0, 0.5)).value,
                   1.2676506002282294e30) <= 1e-15
    assert rel_err(eval_auto(LerchPoint(0.999, 150.0, 0.3)).value,
                   2.702786817554781e78) <= 1e-15


def test_auto_estimate_is_honest_at_huge_z():
    # real a > 1 at |z| = 1e3 to 1e14: one step down to a - 1 puts the
    # value, about -(a-1)^(-s)/z, in the head, so the relative digits
    # stay (the stepping that went before lost them from |z| ~ 1e3, to
    # 2e-3 relative at 1e14); against the quadrature
    def draw_real_a(rng):
        z = cmath.rect(10.0 ** rng.uniform(3.0, 14.0),
                       rng.choice((-1.0, 1.0)) * rng.uniform(0.05, math.pi))
        return LerchPoint(z, complex(rng.uniform(0.1, 6.0),
                                     rng.uniform(-6.0, 6.0)),
                          rng.uniform(1.02, 4.0))

    for p in sample(2323, 16, draw_real_a):
        rep = eval_auto(p)
        ref = quad_integral(p.z, p.s, p.a)
        assert abs(rep.value - ref.value) <= (rep.abs_err_estimate
                                              + ref.err_bar), p
        assert rel_err(rep.value, ref.value) <= 1e-13, p

    # complex a with 1.3 < Re a < 2 at |z| = 1e150 to 1e300, where a - 1
    # would leave Re a >= 1 and the step is not taken: the pieces at a
    # carry no relative digits of the value, but the estimate says so.
    # There -(a-1)^(-s)/z is the value to far below double precision
    # (the next terms are |z|^(-Re a + 1) and 1/|z| smaller); stepping
    # below Re a = 1 once put the 11th draw 2.6 times past its estimate
    def draw_corner(rng):
        z = cmath.rect(10.0 ** rng.uniform(150.0, 300.0),
                       rng.choice((-1.0, 1.0)) * rng.uniform(0.05, math.pi))
        a = complex(rng.uniform(1.3, 2.0), rng.uniform(-2.0, 2.0))
        return LerchPoint(z, complex(rng.uniform(0.1, 6.0),
                                     rng.uniform(-6.0, 6.0)), a)

    for p in sample(17, 12, draw_corner):
        rep = eval_auto(p)
        want = -(p.a - 1.0) ** -p.s / p.z
        assert abs(rep.value - want) <= rep.abs_err_estimate, p


def test_auto_estimate_is_honest_at_large_re_s_and_huge_z():
    # Re s in (150, 200) at |z| = 1e10 to 1e17: Gamma(1-s, -aL) is far
    # below the double range there while the Gamma term is not, and the
    # term carried as a double came out 0, up to 0.24 relative off the
    # value against an estimate of 1e-13 relative (13 of these 17 points,
    # among them the pinned one); against the quadrature
    def draw(rng):
        z = cmath.rect(10.0 ** rng.uniform(10.0, 17.0),
                       rng.choice((-1.0, 1.0)) * rng.uniform(0.05, math.pi))
        return LerchPoint(z, complex(rng.uniform(150.0, 200.0),
                                     rng.uniform(-8.0, 8.0)),
                          rng.uniform(1.0, 20.0))

    pinned = LerchPoint(4.8336651993168475e14 + 1.1196823291843952e14j,
                        189.24630559174824 - 7.287937367498792j,
                        12.4336475867039)
    # real s in (172, 200): within 0.25 of an integer m + 1, Gamma(1-s, w)
    # takes the kernel's pole join at -m, whose 1/m! once left the double
    # range as a float (3 of these 12 draws raised)
    def draw_real_s(rng):
        z = cmath.rect(10.0 ** rng.uniform(10.0, 17.0),
                       rng.choice((-1.0, 1.0)) * rng.uniform(0.05, math.pi))
        return LerchPoint(z, rng.uniform(172.0, 200.0),
                          rng.uniform(1.0, 20.0))

    for p in (sample(2424, 16, draw) + [pinned]
              + sample(2626, 12, draw_real_s)):
        rep = eval_auto(p)
        ref = quad_integral(p.z, p.s, p.a)
        assert abs(rep.value - ref.value) <= (rep.abs_err_estimate
                                              + ref.err_bar), p
        assert rel_err(rep.value, ref.value) <= 1e-12, p


def _geometric_ray(arg, lo=math.e, hi=1000.0, count=12):
    """count points from |z| = lo to hi at arg z, on the real axis
    exactly where arg is 0 or pi."""
    q = (hi / lo) ** (1.0 / (count - 1))
    radii = [lo * q ** k for k in range(count)]
    if arg in (0.0, math.pi):
        return [complex(math.cos(arg) * r, 0.0) for r in radii]
    return [cmath.rect(r, arg) for r in radii]


def _ap_report(p, cold=False):
    # cold: the Abel-Plana integral's node tables cleared first, so the
    # point computes every node factor itself
    if cold:
        special_kernel._abel_plana_entry.cache_clear()
    rep = eval_auto(p)
    assert rep.engine == "abel_plana", p
    return (repr(rep.value), repr(rep.abs_err_estimate), rep.n_terms,
            rep.warnings)


def _node_table(s, a, im_l):
    return special_kernel._abel_plana_entry(complex(s), complex(a), im_l)[3]


def test_abel_plana_node_tables_keep_every_report_bit_for_bit():
    # the integral keeps the node factors of each (s, a, |Im L|) it meets
    # a second time; walked warm, a ray reads them back and must give the
    # reports of a cold walk.  Rays: one off the axis; the negative axis,
    # where the rule goes from 65 to 129 to 257 nodes, so the table is
    # extended twice, and past it z = -1e7, which takes 513 nodes, more
    # than a table holds; s = 1.5 +/- 2.5i with the mirror points
    # interleaved; two rays at one (s, a) interleaved, whose keys differ
    # in |Im L| alone; and s, a with -0.0 imaginary parts next to +0.0,
    # which are equal keys
    mirrored = []
    for z in _geometric_ray(math.pi / 3):
        mirrored += [LerchPoint(z, 1.5 + 2.5j, 0.6),
                     LerchPoint(z.conjugate(), 1.5 - 2.5j, 0.6)]
    signed = [LerchPoint(z, complex(S34, sign), complex(A03, sign))
              for k, z in enumerate(_geometric_ray(2.0 * math.pi / 3))
              for sign in ((0.0, -0.0) if k % 2 else (-0.0, 0.0))]
    negative = [LerchPoint(z, S34, A03) for z in _geometric_ray(math.pi)]
    far = [LerchPoint(-1e7, S34, A03)] * 3
    two_rays = [LerchPoint(z, S34, A03)
                for pair in zip(_geometric_ray(2.0 * math.pi / 3),
                                _geometric_ray(-math.pi / 2))
                for z in pair]
    rays = ([LerchPoint(z, S34, A03)
             for z in _geometric_ray(2.0 * math.pi / 3)],
            negative + far, mirrored, two_rays, signed)
    for ray in rays:
        cold = [_ap_report(p, cold=True) for p in ray]
        special_kernel._abel_plana_entry.cache_clear()
        assert [_ap_report(p) for p in ray] == cold
        if ray[0] is negative[0]:
            assert [n for _, _, n, _ in cold[len(negative) - 1:]] == [
                257, 513, 513, 513]
            # levels 0-4 of the rule, the table's cap
            assert (len(_node_table(S34, A03, math.pi))
                    == special_kernel._AP_TABLE_NODES
                    == sum(len(_half_line_nodes(k, special_kernel._AP_U_MIN))
                           for k in range(5)))


def test_abel_plana_node_tables_evict_the_least_recently_used():
    # ten keys, more than the tables hold, each |z| walking all ten and
    # then five back, so that keys come back both before and after their
    # eviction; every report as a cold walk gives it
    a_values = [A03 + 0.1 * k for k in range(10)]
    order = a_values + a_values[:4:-1]
    walk = [LerchPoint(z, S34, a)
            for z in _geometric_ray(2.0 * math.pi / 3, count=4)
            for a in order]
    cold = [_ap_report(p, cold=True) for p in walk]
    special_kernel._abel_plana_entry.cache_clear()
    assert [_ap_report(p) for p in walk] == cold
    info = special_kernel._abel_plana_entry.cache_info()
    assert info.currsize == info.maxsize == special_kernel._AP_TABLE_KEYS
    assert info.hits > 0 and info.misses > len(a_values)


def test_abel_plana_node_tables_under_threads():
    # four threads, more than most hosts have cores, walk one ray at
    # once, the negative axis, whose table grows as they go; each
    # thread's reports are the serial ones
    ray = [LerchPoint(z, S34, A03) for z in _geometric_ray(math.pi)] * 2
    serial = [_ap_report(p, cold=True) for p in ray]
    special_kernel._abel_plana_entry.cache_clear()
    got = [None] * 4

    def walk(k):
        got[k] = [_ap_report(p) for p in ray]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside every point
    try:
        threads = [threading.Thread(target=walk, args=(k,))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [serial] * 4


# ---------------------------------------------------------------------------
# exact closed form at integer s


def test_integer_s_geometric_row():
    rep = eval_integer_s_large_z(LerchPoint(-5.0, 0.0, A03), 1e-15)
    assert abs(rep.value - 1.0 / 6.0) < 1e-13
    z = 10.0j
    rep = eval_integer_s_large_z(LerchPoint(z, 0.0, 0.77), 1e-15)
    assert rel_err(rep.value, 1.0 / (1.0 - z)) < 1e-13


def test_integer_s_quadratic_closed_form():
    # s = -2 sums (a+n)^2 z^n, a rational function of z
    z, a = 10.0j, 0.31
    rep = eval_integer_s_large_z(LerchPoint(z, -2.0, a), 1e-15)
    u = 1.0 - z
    want = a * a / u + 2.0 * a * z / u ** 2 + z * (1.0 + z) / u ** 3
    assert rel_err(rep.value, want) < 1e-12


def test_integer_s_against_reference():
    for S in (-1, 1, 3):
        for z in (-5.0, 10.0j):
            p = LerchPoint(z, float(S), A03)
            rep = eval_integer_s_large_z(p, 1e-12)
            ref = reference_value(p)
            assert abs(rep.value - ref.value) < 1e-9, (S, z)

    # seeded draws, some at exact integer a and some on either side of
    # the cut, against mpmath at 40 digits, which is trusted at real a
    # past e; on the cut the side is an offset of 1e-35 i
    def draw(rng):
        S = rng.randint(-3, 6)
        a = (float(rng.randint(1, 5)) if rng.random() < 0.25
             else rng.uniform(0.05, 6.0))
        r = math.exp(rng.uniform(1.0, math.log(1000.0)))
        if rng.random() < 0.25:
            return LerchPoint(r, float(S), a,
                              rng.choice(("above", "below")))
        return LerchPoint(cmath.rect(r, rng.uniform(-math.pi, math.pi)),
                          float(S), a)

    for p in sample(19, 24, draw):
        S = round(p.s.real)
        rep = eval_integer_s_large_z(p, 1e-12)
        with mp.workdps(40):
            z = mp.mpc(p.z.real, p.z.imag)
            if p.z.imag == 0.0 and p.z.real > 1.0:
                z += 1e-35j if p.cut_side == "above" else -1e-35j
            want = complex(mp.lerchphi(z, S, mp.mpf(p.a.real)))
        assert abs(rep.value - want) <= rep.abs_err_estimate, p


def test_integer_a_polylog_form_matches_mpmath():
    # integer s and integer a: the polylogarithm form at S >= 1, the
    # plain tail at S <= 0.  Each (S, a) is checked off the cut or on
    # both sides of it; for real S and a the side below is the conjugate
    # of the side above, so one 30-digit mpmath value serves both
    for S in range(-2, 6):
        for k in range(1, 5):
            on_cut = (S + k) % 2 == 1
            z = 12.5 if on_cut else -7.3 + 2.1j
            want = complex(mp.lerchphi(mp.mpc(z, 1e-30 if on_cut else 2.1),
                                       S, k))
            sides = (("above", want), ("below", want.conjugate()))
            for side, ref in sides[:2 if on_cut else 1]:
                p = LerchPoint(z, float(S), float(k), side)
                rep = eval_auto(p)
                assert rep.engine == "integer_s"
                err = abs(rep.value - ref)
                if S >= 1:
                    assert err <= rep.abs_err_estimate, (S, k, side)
                    assert err <= 1e-13 * abs(ref), (S, k, side)
                else:
                    assert err <= 1e-10, (S, k, side)
    # larger S, where the branch part reads its constants h_j = 2 eta(j)
    # at even j from 2 to S off the coefficient kernel's table; against
    # mpmath at 40 digits
    for z, S, k in ((-50.0, 27, 2), (10j, 30, 1), (-5.0 + 5.0j, 26, 3)):
        with mp.workdps(40):
            want = complex(mp.lerchphi(mp.mpc(z), S, k))
        rep = eval_integer_s_large_z(LerchPoint(z, float(S), float(k)))
        assert abs(rep.value - want) <= rep.abs_err_estimate, (z, S, k)


def test_integer_a_polylog_form_is_honest_on_seeded_draws():
    # S in 1..60, a in 1..6, |z| = e^u with u in (1, 12), a tenth on the
    # negative axis; against mpmath at 40 digits, every error within its
    # estimate and under 1e-15 relative past magnitude 1
    def draw(rng):
        r = math.exp(rng.uniform(1.0, 12.0))
        z = (complex(-r, 0.0) if rng.random() < 0.1
             else cmath.rect(r, rng.uniform(-math.pi, math.pi)))
        return z, rng.randint(1, 60), rng.randint(1, 6)

    for z, S, k in sample(7, 40, draw):
        with mp.workdps(40):
            want = complex(mp.lerchphi(mp.mpc(z), S, k))
        rep = eval_integer_s_large_z(LerchPoint(z, float(S), float(k)))
        err = abs(rep.value - want)
        assert err <= rep.abs_err_estimate, (z, S, k)
        assert err <= 1e-15 * max(1.0, abs(want)), (z, S, k)


def test_integer_a_answers_up_to_the_coefficient_cap():
    # no factorial leaves the double range: S from 171 to 200 answers at
    # integer a, as at every other a, within its estimate of mpmath at 60
    # digits; past S = 200 the tables stop, at integer a too
    for z, S, k in ((5j, 171, 2), (-10.0, 180, 1), (-10.0, 200, 3)):
        with mp.workdps(60):
            want = complex(mp.lerchphi(mp.mpc(z), S, k))
        p = LerchPoint(z, float(S), float(k))
        rep = eval_integer_s_large_z(p)
        assert abs(rep.value - want) <= rep.abs_err_estimate, (z, S, k)
        assert eval_auto(p) == rep
    with pytest.raises(ConditioningError, match="past the 200 coefficients"):
        eval_integer_s_large_z(LerchPoint(-10.0, 201.0, 1.0))


def test_integer_s_closed_form_is_honest_at_large_s():
    # S in 150..200 with |L| near 1, where the main theorem's first
    # factor e^(-aL) L^(S-1) / Gamma(S) underflows: the branch part's
    # upward L^j / j! loop keeps every term that counts.  (-3, 200, 0.3)
    # came back as 3.19e30 with an estimate of 4.5e16, and 3 of the
    # draws came back wrong while meeting eval_auto's target
    p = LerchPoint(-3.0, 200.0, 0.3)
    rep = eval_integer_s_large_z(p)
    assert rel_err(rep.value, 3.7648619495990264e104) <= 1e-13
    assert eval_auto(p) == rep
    # on the negative axis every term is real: the powers d^(j-S) of
    # d = a - round(a) are built by division, since complex ** past
    # exponent 100 goes through exp and log and leaves an imaginary part
    # (1.9e57 at a = 0.6)
    assert rep.value.imag == 0.0
    assert eval_integer_s_large_z(
        LerchPoint(-2.8, 180.0, 0.6)).value.imag == 0.0

    # real a in (0.05, 6), a fifth within 1e-6..1e-1 of an integer 1..6;
    # |z| = e^u with u in (1, 2.5), 15% on the negative axis.  Against
    # mpmath at 40 and 60 digits, judged where the two agree to 1e-14
    # (on the negative axis both can read 0 for a value near 1e-66)
    def draw(rng):
        r = math.exp(rng.uniform(1.0, 2.5))
        z = (complex(-r, 0.0) if rng.random() < 0.15
             else cmath.rect(r, rng.uniform(-math.pi, math.pi)))
        a = rng.uniform(0.05, 6.0)
        if rng.random() < 0.2:
            a = rng.randint(1, 6) + (rng.choice((-1.0, 1.0))
                                     * 10.0 ** rng.uniform(-6.0, -1.0))
        return z, float(rng.randint(150, 200)), a

    judged = 0
    for z, S, a in sample(29, 30, draw):
        try:
            rep = eval_integer_s_large_z(LerchPoint(z, S, a))
        except ConditioningError:
            continue
        wants = []
        for dps in (40, 60):
            with mp.workdps(dps):
                wants.append(complex(mp.lerchphi(mp.mpc(z), S, a)))
        if not wants[1] or abs(wants[0] - wants[1]) > 1e-14 * abs(wants[1]):
            continue
        judged += 1
        assert abs(rep.value - wants[1]) <= rep.abs_err_estimate, (z, S, a)
    assert judged >= 15


def test_integer_s_closed_form_is_honest_off_the_integers():
    # S in 1..25 at e < |z| < 1e14, a tenth on the negative axis; a real
    # in (0.05, 6), negative, complex with |Im a| < 2, or within
    # 1e-9..1e-1 of an integer 1..6, where the branch part cancels
    # against the residue term n ~ a.  Judged by reference_value; at
    # a < 0 through the shift to a + m in (0, 1),
    # Phi(z, S, a) = sum_(n<m) z^n (a+n)^(-S) + z^m Phi(z, S, a+m), since
    # mpmath's continuation at a < 0 can be wrong past |z| ~ 1e10
    def draw(rng):
        r = math.exp(rng.uniform(1.0, math.log(1e14)))
        z = (complex(-r, 0.0) if rng.random() < 0.1
             else cmath.rect(r, rng.uniform(-math.pi, math.pi)))
        kind = rng.randrange(4)
        a = rng.uniform(0.05, 6.0)
        if kind == 1:
            a = -a
        elif kind == 2:
            a = complex(a, rng.uniform(-2.0, 2.0))
        elif kind == 3:
            a = rng.randint(1, 6) + (rng.choice((-1.0, 1.0))
                                     * 10.0 ** rng.uniform(-9.0, -1.0))
        return z, rng.randint(1, 25), a

    judged = 0
    for z, S, a in sample(31, 60, draw):
        rep = eval_integer_s_large_z(LerchPoint(z, float(S), a))
        m = max(0, math.ceil(-a.real))
        try:
            ref = reference_value(LerchPoint(z, float(S), a + m))
        except (AccuracyError, DomainError):
            continue
        with mp.workdps(30):
            zm = mp.mpc(z)
            head = mp.fsum(zm ** n * (mp.mpf(a) + n) ** -S for n in range(m))
            want = complex(head + zm ** m * mp.mpc(ref.value))
        bar = abs(z) ** m * ref.err_bar + 2.0 ** -52 * abs(want)
        judged += 1
        assert abs(rep.value - want) <= rep.abs_err_estimate + bar, (z, S, a)
    assert judged >= 55


def test_auto_near_integer_s_within_estimate():
    # s within 1e-12 of an integer S but not S: Phi at S, the closed
    # form's value there, is 1.3 to 1.7 times its estimate off, so the
    # closed form refuses it and eval_auto takes the Abel-Plana engine
    for z, s, a in ((cmath.rect(20.0, 2.0), 3.0 + 9e-13, 0.7),
                    (cmath.rect(20.0, 2.0), 3.0 + 9e-13j, 0.7),
                    (-50.0, 2.0 - 9e-13, 0.4)):
        p = LerchPoint(z, s, a)
        ref = reference_value(p)
        rep = eval_auto(p)
        assert (abs(rep.value - ref.value)
                <= rep.abs_err_estimate + ref.err_bar), p
        with pytest.raises(DomainError):
            eval_integer_s_large_z(p)


def test_integer_s_estimate_covers_growing_terms():
    # at S < 0 the tail terms grow like n^|S| before |z|^(-n) wins, so
    # the ratio of the tail bound is |(N+2-a)/(N+1-a)|^|S| / |z|, not
    # 1/|z|; these points were under-estimated with the latter.
    # Phi at integer S <= 0 is rational in z, so mpmath at z + i 1e-30
    # is the value at z
    for z, S, a in ((12.5, -2, 1.3), (4.0, -4, 0.3), (3.0, -5, 2.5),
                    (-6.0, -3, 0.45)):
        rep = eval_auto(LerchPoint(z, float(S), a))
        assert rep.engine == "integer_s"
        want = complex(mp.lerchphi(mp.mpc(z, 1e-30), S, a))
        assert abs(rep.value - want) <= rep.abs_err_estimate, (z, S, a)


def test_integer_s_estimate_covers_cancellation_near_integer_a():
    # near an integer a the tail term n ~ a is about dist(a, Z)^(-S) and
    # the branch part cancels it, so the closed form loses digits that
    # its estimate must count; at Re a > N + 1 the tail bound must reach
    # past n = a (the second point stopped at N = 3 and was 6.4e-10
    # off).  eval_auto takes the Abel-Plana engine where the closed
    # form's estimate misses the target; at a = 1.00012 it meets it
    # (7.3e-11): the table at d = a - 1 carries no rounding of sin(pi a)
    for z, S, a in ((-5.1018029397 - 30.247006994j, 5, 1.9415601466),
                    (-336.45026866 - 196.10806777j, 2, 5.99933),
                    (-9.4455204707 - 1.1734338282j, 1, 1.00012),
                    (5.4790327708 - 0.2395280616j, 2, 5.00029)):
        p = LerchPoint(z, float(S), a)
        ref = hp_continuation(z, S, a)
        rep = eval_integer_s_large_z(p, 1e-10)
        assert abs(rep.value - ref.value) <= rep.abs_err_estimate, p
        auto = eval_auto(p)
        assert abs(auto.value - ref.value) <= auto.abs_err_estimate, p
        assert auto.abs_err_estimate <= 1e-10 * max(1.0, abs(auto.value))
        assert auto.engine == ("integer_s" if a in (5.99933, 1.00012)
                               else "abel_plana")


def test_integer_s_guards():
    with pytest.raises(DomainError):
        eval_integer_s_large_z(LerchPoint(-5.0, 2.5, A03))
    # integer a <= 0 is refused
    with pytest.raises(DomainError):
        eval_integer_s_large_z(LerchPoint(-5.0, 2.0, -3.0))
    with pytest.raises(DomainError):
        eval_integer_s_large_z(LerchPoint(0.5, 2.0, A03))
    # e^(-aL) = 10^400.3 in the first term of the logarithmic series
    with pytest.raises(ConditioningError):
        eval_integer_s_large_z(LerchPoint(-10.0, 2.0, -400.3))


def test_integer_s_raises_only_typed_errors():
    # a residue-series term past the double range and an estimate that
    # overflows: each a ConditioningError of the closed form, which
    # eval_auto takes as a miss and hands on to the Abel-Plana engine
    # (which raises too here)
    for z, s, a in ((30.31 - 36.72j, -296.0, 0.2256),
                    (629.14 - 898.01j, 183.0, -130.06)):
        p = LerchPoint(z, s, a)
        with pytest.raises(ConditioningError):
            eval_integer_s_large_z(p)
        with pytest.raises(ConditioningError):
            eval_auto(p)
    # S past the 200 coefficients of the tables: the closed form refuses,
    # and the Abel-Plana engine answers, its Gamma term's pole join at
    # 1 - s = -249 taking ln 249! in its exponent.  The value is 0.3^-250
    # (at the double nearest 0.3) to about 1e-158 relative
    p = LerchPoint(-10.0, 250.0, 0.3)
    with pytest.raises(ConditioningError):
        eval_integer_s_large_z(p)
    rep = eval_auto(p)
    assert rep.engine == "abel_plana"
    assert abs(rep.value - 5.244285419581193e130) <= rep.abs_err_estimate
    # the coefficient recurrence's magnitude cap next to an integer a:
    # the Abel-Plana engine answers
    p = LerchPoint(-10.0, 60.0, 0.999999)
    with pytest.raises(ConditioningError):
        eval_integer_s_large_z(p)
    rep = eval_auto(p)
    ref = quad_integral(p.z, p.s, p.a)
    assert rep.engine == "abel_plana"
    assert abs(rep.value - ref.value) <= rep.abs_err_estimate + ref.err_bar
    assert rel_err(rep.value, ref.value) <= 1e-14

    # seeded integer s in [-300, 300] past e: |z| = e^u, u in (1, 8), a
    # tenth on the negative axis; a = e^v, v in (-3, 7), a fifth complex
    # with |Im a| <= 50 and a tenth negative real.  Only the package's
    # own errors may escape; 248 of the 300 answer, among them 54 of the
    # 58 past S = 200, where the Abel-Plana engine meets the target
    def draw(rng):
        r = math.exp(rng.uniform(1.0, 8.0))
        z = (complex(-r, 0.0) if rng.random() < 0.1
             else cmath.rect(r, rng.uniform(-math.pi, math.pi)))
        a = math.exp(rng.uniform(-3.0, 7.0))
        kind = rng.random()
        if kind < 0.2:
            a = complex(a, rng.uniform(-50.0, 50.0))
        elif kind < 0.3:
            a = -a
        return z, float(rng.randint(-300, 300)), a

    answered = 0
    for z, s, a in sample(2121, 300, draw):
        try:
            p = LerchPoint(z, s, a)
            eval_auto(p)
            answered += 1
        except LerchError:
            pass
    assert answered >= 240


def test_every_engine_raises_only_typed_errors():
    # every engine the CLI's --engine names, at its CLI defaults: a term,
    # a power or a factorial past the double range is a ConditioningError,
    # and a value past it too (EngineReport refuses one), never a bare
    # OverflowError or a nan value.  First the points where each engine
    # let one out: the symmetric expansion's w^k (1.49e9-2.43e9i, -242),
    # the main theorem's first term Gamma(s, aL) / (a^s Gamma(s)), about
    # e^1150 with 1/Gamma(-222.1) in it, the a-step head of hurwitz_zeta
    # in the near-one expansion, and the factorial engine's terms and its
    # nan
    points = [
        ("symmetric", 1485906347.0646927 - 2426667281.2222834j, -242.0,
         0.11719891601631233),
        ("main", -0.9509710851897176 - 0.471639709432688j,
         -222.10860401980761, 0.44973242049493495),
        ("near-one", -9.77746391490915 - 2.427845438617095j,
         -112.76222417662058 - 21.523642607148048j, 64.33907911643705),
        ("factorial", -1.1494109921430586 + 4.2144723002520115j,
         -269.6358068636785 - 21.326896842745604j, 0.043118612814589924),
        ("factorial", 660596880.6554326 + 227961623.45422396j,
         -34.37853337830654 + 26.14215672134104j, 0.039541056635302455)]
    for engine, z, s, a in points:
        with pytest.raises(ConditioningError):
            _run_engine(LerchPoint(z, s, a), engine, 1e-10, None)
    # the comparison expansion let out the pole join's 1/171! here; with
    # ln 171! in the join's exponent it answers about 1.3e81, no digits,
    # and its estimate says so
    rep = _run_engine(LerchPoint(-36950185.32891746 + 14980038.30485884j,
                                 -170.9888680947992, 1.5317923760230756),
                      "fl", 1e-10, None)
    assert rep.abs_err_estimate >= abs(rep.value)

    # seeded draws: |z| = e^u, u in (-3, 22), arg z uniform; Re s in
    # (-300, 300), half with |Im s| <= 30 and a fifth of the rest at an
    # integer; a = e^v, v in (-3.5, 4.5), a fifth complex with
    # |Im a| <= 20 and a tenth negative real
    def draw(rng):
        z = cmath.rect(math.exp(rng.uniform(-3.0, 22.0)),
                       rng.uniform(-math.pi, math.pi))
        s = complex(rng.uniform(-300.0, 300.0),
                    0.0 if rng.random() < 0.5 else rng.uniform(-30.0, 30.0))
        if rng.random() < 0.2:
            s = complex(round(s.real), 0.0)
        a = math.exp(rng.uniform(-3.5, 4.5))
        kind = rng.random()
        if kind < 0.2:
            a = complex(a, rng.uniform(-20.0, 20.0))
        elif kind < 0.3:
            a = -a
        return z, s, a

    names = ("auto", "direct", "near-one", "abel-plana", "integer-s", "main",
             "symmetric", "fl", "factorial")
    answered = 0
    for z, s, a in sample(2, 60, draw):
        try:
            p = LerchPoint(z, s, a)
        except LerchError:
            continue
        for engine in names:
            try:
                rep = _run_engine(p, engine, 1e-10, None)
            except LerchError:
                continue
            assert cmath.isfinite(rep.value), (engine, z, s, a)
            answered += 1
    assert answered >= 200


def test_public_functions_answer_finite_or_raise_typed_errors():
    # a public function converts an OverflowError at its own boundary and
    # refuses a product that reached inf or nan: it answers finite values
    # or raises a LerchError.  First the points where one got out:
    # residue_series' (N+1-a)^(-s) at s = -500 (the m-landscape sweep),
    # the factorial engine's (2 pi i)^(s-1) at s = 397 (its trace), x^146.5
    # at |x| = 300 in p_n_stable, b_1 of the coefficient recurrence past
    # the double range next to a = 0 (rows of nan, and a ZeroDivisionError
    # in the direct-sum table), and the stable-zeta table's powers of
    # 1/(N+1-a) next to a = N+1 (rows of nan)
    with pytest.raises(ConditioningError):
        residue_series(LerchPoint(-10.0, -500.0, 0.3), 5)
    with pytest.raises(ConditioningError):
        series_states(LerchPoint(1.1995803971459893 + 2.9844791483632873j,
                                 397.0, 249.9267603230403), 20)
    with pytest.raises(ConditioningError):
        p_n_stable(0.5 + 300j, 150.5, 3)
    for a, count in ((1e-200, 4), (1e-160, 2)):
        with pytest.raises(ConditioningError):
            csc_coefficients(a, count)
    with pytest.raises(ConditioningError):
        csc_coefficients_subtracted(1e-200, 1, 4, method="direct-sum")
    with pytest.raises(ConditioningError):
        csc_coefficients_subtracted(2.0 - 1e-15, 1, 40)
    # the contour's radius^n underflows next to a = 0, and the division
    # by it is the double range too
    with pytest.raises(ConditioningError):
        csc_coefficients_contour(1e-13, 40)
    # residue_series' tolerance, 1e-18 of (N+1-a)^(-s), underflowed to 0
    # here: the sum ran to the term cap (about a second) and raised
    # AccuracyError for a value under the double range
    start = time.perf_counter()
    assert residue_series(LerchPoint(2819.85 - 705.97j, 280.0,
                                     6.04e-10 - 11.75j), 6) == 0.0
    assert time.perf_counter() - start < 0.5

    # seeded draws: |z| = e^u, u in (-3, 25), arg z uniform; Re s in
    # (-400, 400), half with |Im s| <= 40 and a fifth at an integer;
    # a = e^v, v in (-30, 6), a fifth complex with |Im a| <= 30 and a
    # tenth negative real; a depth or order n in 0..6 and a count in 1..40
    def draw(rng):
        z = cmath.rect(math.exp(rng.uniform(-3.0, 25.0)),
                       rng.uniform(-math.pi, math.pi))
        s = complex(rng.uniform(-400.0, 400.0),
                    rng.uniform(-40.0, 40.0) if rng.random() < 0.5 else 0.0)
        if rng.random() < 0.2:
            s = complex(round(s.real), 0.0)
        a = math.exp(rng.uniform(-30.0, 6.0))
        kind = rng.random()
        if kind < 0.2:
            a = complex(a, rng.uniform(-30.0, 30.0))
        elif kind < 0.3:
            a = -a
        return z, s, a, rng.randint(0, 6), rng.randint(1, 40)

    def finite(value):
        if isinstance(value, list):  # series_states
            return all(cmath.isfinite(st.partial) for st in value)
        if isinstance(value, CoefficientTable):
            return all(map(cmath.isfinite, value.values))
        return cmath.isfinite(value)

    answered = {}
    for z, s, a, n, count in sample(28, 100, draw):
        L = log_neg_z(z).value
        x = 0.5 + 1j * L / (2.0 * math.pi)  # the factorial engine's
        w = -complex(a) * L  # the Abel-Plana Gamma term's
        calls = {"p_n_direct": lambda: p_n_direct(x, s, n),
                 "p_n_stable": lambda: p_n_stable(x, s, n),
                 "csc_coefficients": lambda: csc_coefficients(a, count),
                 "stable-zeta": lambda: csc_coefficients_subtracted(
                     a, n, count),
                 "direct-sum": lambda: csc_coefficients_subtracted(
                     a, n, count, method="direct-sum"),
                 "gamma": lambda: gamma(s),
                 "reciprocal_gamma": lambda: reciprocal_gamma(s),
                 "gamma_star": lambda: gamma_star(s, w),
                 "upper_incomplete_gamma": lambda: upper_incomplete_gamma(
                     1.0 - s, w),
                 "hurwitz_zeta": lambda: hurwitz_zeta(s, a)}
        try:
            p = LerchPoint(z, s, a)
            calls["residue_series"] = lambda: residue_series(p, n)
            calls["series_states"] = lambda: series_states(p, 12)
        except LerchError:
            pass
        for name, call in calls.items():
            try:
                value = call()
            except LerchError:
                continue
            assert finite(value), (name, z, s, a, n, count)
            answered[name] = answered.get(name, 0) + 1
    assert len(answered) == 12 and min(answered.values()) >= 15, answered


# ---------------------------------------------------------------------------
# truncation choice and remainder size for the resummed theorem


def test_optimal_m_preconditions():
    with pytest.raises(DomainError):
        choose_optimal_M(LerchPoint(2.0, S34, A03), 5)
    with pytest.raises(DomainError):
        choose_optimal_M(LerchPoint(-10.0, S34, A03), 0)


def test_remainder_estimate_dips_at_pick():
    p = LerchPoint(-10.0, S34, A03)
    pick = choose_optimal_M(p, 5)
    est = {m: remainder_estimate(p, 5, m) for m in range(2, 31)}
    best = min(est, key=est.get)
    assert abs(best - pick) <= 2
    assert est[5] > est[9] > est[best]
    assert est[best] < est[20] < est[28]
    assert 1e-9 < est[pick] < 1e-5


# ---------------------------------------------------------------------------
# resummed large-z theorem


def test_main_theorem_verification_rows():
    for z, m_opt, _ref, truncated, _scaled in VERIFICATION_ROWS:
        p = LerchPoint(z, S34, A03)
        assert choose_optimal_M(p, 5) == m_opt
        rep = eval_main_theorem(p, 5)
        assert rep.m_terms == m_opt and rep.n_terms == 5
        assert abs(rep.value - truncated) <= 5e-8, z


def test_main_theorem_scaled_remainders():
    for z, _m_opt, ref, _truncated, scaled in VERIFICATION_ROWS:
        p = LerchPoint(z, S34, A03)
        truth = eval_symmetric_igamma(p, tol=1e-11).value
        assert abs(truth - ref) <= 5e-8, z
        got = abs(z) ** 6 * abs(eval_main_theorem(p, 5).value - truth)
        assert abs(got - scaled) <= 0.01, z


def test_main_remainder_bounded_up_the_ray():
    for k in range(4):
        z = -5.0 * 2 ** k
        p = LerchPoint(z, S34, A03)
        truth = eval_symmetric_igamma(p, tol=1e-11).value
        rep = eval_main_theorem(p, 5)
        assert abs(z) ** 6 * abs(rep.value - truth) < 1.0, z


def test_main_estimate_order_of_magnitude():
    for z in (-5.0, -10.0):
        p = LerchPoint(z, S34, A03)
        truth = eval_symmetric_igamma(p, tol=1e-12).value
        rep = eval_main_theorem(p, 5)
        ratio = rep.abs_err_estimate / abs(rep.value - truth)
        assert 0.01 <= ratio <= 100.0, z


def test_main_theorem_m_override_and_cap():
    p = LerchPoint(-10.0, S34, A03)
    rep = eval_main_theorem(p, 5, m_override=3)
    assert rep.m_terms == 3
    assert abs(rep.value - eval_main_theorem(p, 5).value) > 1e-9
    capped = eval_main_theorem(p, 5, m_override=205)
    assert capped.m_terms == 200
    assert "m-count-capped" in capped.warnings


def test_main_theorem_preconditions():
    with pytest.raises(DomainError):
        eval_main_theorem(LerchPoint(0.5, S34, A03), 5)
    with pytest.raises(DomainError):
        eval_main_theorem(LerchPoint(-10.0, S34, -0.2), 5)
    with pytest.raises(DomainError):
        eval_main_theorem(LerchPoint(-10.0, 2.0, A03), 5)
    with pytest.raises(DomainError):
        eval_main_theorem(LerchPoint(-10.0, S34, 2.3), 2)


# ---------------------------------------------------------------------------
# symmetric incomplete-gamma expansion


def test_symmetric_matches_integral_reference():
    rep = eval_symmetric_igamma(LerchPoint(-5.0, S34, A03),
                                N_max=400, tol=1e-10)
    ref = quad_integral(-5.0, S34, A03)
    assert not rep.warnings
    assert abs(rep.value - ref.value) < 1e-8


def test_symmetric_handles_integer_s():
    # the pair form stays finite at integer s, unlike the resummed theorem
    rep = eval_symmetric_igamma(LerchPoint(-5.0, 1.0, A03), tol=1e-11)
    exact = eval_integer_s_large_z(LerchPoint(-5.0, 1.0, A03), 1e-12)
    assert abs(rep.value - exact.value) < 1e-9


def test_symmetric_pairing_beats_one_sided_tail():
    from lerchphi.engines import _branch_log, _first_sum_term, _pair_term

    p = LerchPoint(-7.0, S34, A03)
    L = _branch_log(p)
    for n in range(25, 36):
        one_sided = _first_sum_term(p, n, L)
        paired = one_sided + _pair_term(p, n, L)
        assert abs(paired) < 0.25 * abs(one_sided), n


def test_pair_term_in_log_space_matches_mpmath():
    # both mirror terms are one exponential of the kernel's e^(x - w) m,
    # with z^(+/-n) e^(-w) = (-1)^n e^(-aL), on either side of |Re w| =
    # 600, w = (a +/- n) L, where z^(+/-n) leaves the double range long
    # before the term does (at z = -1000, z^(-n) is subnormal from
    # n = 103 and 0 from n = 108).  Against the defining forms at 40
    # digits: -z^(-n) L^s gammastar(s, w) and
    # z^n Gamma(s, w) / ((a+n)^s Gamma(s))
    from lerchphi.engines import _branch_log, _first_sum_term, _pair_term

    p = LerchPoint(-1000.0, S34, A03)
    L = _branch_log(p)
    for n in (87, 88, 95, 120):
        w = (p.a - n) * L
        with mp.workdps(40):
            wm, lm, sm = mp.mpc(w), mp.mpc(L), mp.mpf(S34)
            star = mp.gammainc(sm, 0, wm) / (mp.gamma(sm) * wm ** sm)
            want = complex(-mp.mpf(-1000) ** -n * lm ** sm * star)
        assert rel_err(_pair_term(p, n, L), want) < 1e-12, n
    p = LerchPoint(-1e4, S34, A03)
    L = _branch_log(p)
    for n in (60, 70, 100, 300):
        w = (p.a + n) * L
        assert (w.real > 600.0) == (n > 60)
        with mp.workdps(40):
            wm, sm = mp.mpc(w), mp.mpf(S34)
            want = complex(mp.mpf(-1e4) ** n * mp.gammainc(sm, wm)
                           / (mp.mpf(p.a.real + n) ** sm * mp.gamma(sm)))
        assert rel_err(_first_sum_term(p, n, L), want) < 1e-12, n


def test_mirror_terms_are_exactly_real_on_the_negative_axis():
    # at real s and a and z < -1, L is real and so is every mirror term:
    # gammastar is entire with real Taylor coefficients, and the kernel
    # returns its e^(x - w) m with real x and m at real s and w
    from itertools import islice

    from lerchphi.engines import _mirror_terms

    for z, s, a in ((-1e4, S34, A03), (-50.0, 2.5, 3.7), (-10.0, S34, A03)):
        p = LerchPoint(z, s, a)
        for n, (t, u) in enumerate(islice(_mirror_terms(p), 400)):
            assert complex(t).imag == 0.0 and complex(u).imag == 0.0, (z, n)
        for rep in (eval_main_theorem(p, 4), eval_symmetric_igamma(p),
                    eval_fl_expansion(p, 5, 3)):
            assert rep.value.imag == 0.0, (z, rep)


def test_main_theorem_raises_where_its_log_series_overflows():
    # at |Im a| = 300 the logarithmic series' terms leave the double range
    # from m = 130 (M = 200): a typed error, not a nan value behind a tiny
    # estimate
    with pytest.raises(ConditioningError):
        eval_main_theorem(LerchPoint(-1000j, S34, 1.0 + 300j), 3)


def test_symmetric_answers_where_z_to_the_n_overflows():
    # |z|^n passes the double range at n = 103 while the mirror terms do
    # not: the expansion runs to its cap, with an estimate that covers its
    # distance to eval_auto's value
    p = LerchPoint(-1000j, S34, 1.0 + 300j)
    rep = eval_symmetric_igamma(p)
    assert rep.warnings == ("n-cap-reached",)
    assert abs(rep.value - eval_auto(p).value) <= rep.abs_err_estimate


def test_symmetric_cap_warning():
    rep = eval_symmetric_igamma(LerchPoint(-5.0, S34, A03),
                                N_max=5, tol=1e-10)
    assert rep.warnings == ("n-cap-reached",)


def _stream_partials(p, count):
    # S_0 .. S_(count-1), added up in the symmetric engine's order
    from itertools import islice

    from lerchphi.engines import _mirror_terms

    partials = []
    for t, u in islice(_mirror_terms(p), count):
        partials.append(partials[-1] + t + u if partials else t)
    return partials


def test_symmetric_value_is_the_binomial_average_of_the_stream():
    # six levels of pairwise averaging of S_0 .. S_n leave
    # sum_k C(6, k) / 64 * S_(n-6+k)
    points = (LerchPoint(-10.0, S34, A03),
              LerchPoint(-30.0 + 5.0j, 1.5 + 2.5j, 0.6),
              LerchPoint(8.0 - 20.0j, 2.2 - 1.0j, 1.3),
              LerchPoint(10.0, S34, A03, "below"))
    for p in points:
        for n_max, tol in ((400, 1e-8), (400, 1e-12), (7, 0.0), (40, 0.0)):
            rep = eval_symmetric_igamma(p, N_max=n_max, tol=tol)
            n = rep.n_terms
            assert n >= 7, (p, tol)
            partials = _stream_partials(p, n + 1)
            avg = sum(math.comb(6, k) / 64.0 * partials[n - 6 + k]
                      for k in range(7))
            assert abs(rep.value - avg) <= 1e-15 * max(1.0, abs(avg)), (
                p, n_max, tol)


def test_symmetric_below_seven_terms_returns_the_first_term():
    # before six averaging levels fill, the value is S_0 and the estimate
    # |S_0|; the symmetric terms-vs-error rows of the CLI start this way
    p = LerchPoint(-8.0, S34, A03)
    s_0 = _stream_partials(p, 1)[0]
    for n_max in range(7):
        rep = eval_symmetric_igamma(p, N_max=n_max, tol=0.0)
        assert rep.value == s_0
        assert rep.abs_err_estimate == abs(s_0)
        assert rep.n_terms == n_max
        assert rep.warnings == ("n-cap-reached",)
    assert eval_symmetric_igamma(p, N_max=7, tol=0.0).value != s_0


def test_symmetric_preconditions():
    with pytest.raises(DomainError):
        eval_symmetric_igamma(LerchPoint(0.8, S34, A03))
    with pytest.raises(DomainError):
        eval_symmetric_igamma(LerchPoint(-5.0, S34, -0.4))


# ---------------------------------------------------------------------------
# comparison expansion (unresummed logarithmic series)


def test_fl_expansion_floor_and_estimate():
    p = LerchPoint(-10.0, S34, A03)
    truth = eval_symmetric_igamma(p, tol=1e-12).value
    err_main = abs(eval_main_theorem(p, 5).value - truth)
    err_matched = abs(eval_fl_expansion(p, 5, 13).value - truth)
    assert err_matched >= err_main
    assert err_main < 1e-5
    # even its best truncation stays coarse: the accuracy floor is real
    best = min(abs(eval_fl_expansion(p, 5, k).value - truth)
               for k in range(14))
    assert 0.01 < best < 1.0


def test_fl_estimate_is_first_omitted_term():
    p = LerchPoint(-7.0 + 2.0j, 0.6 + 0.2j, 0.45)
    r4 = eval_fl_expansion(p, 3, 4)
    r5 = eval_fl_expansion(p, 3, 5)
    gap = abs(abs(r5.value - r4.value) - r4.abs_err_estimate)
    assert gap <= 1e-10 * r4.abs_err_estimate


def test_fl_minimal_term_is_interior():
    p = LerchPoint(-5.0, S34, A03)
    mags = [eval_fl_expansion(p, 4, k).abs_err_estimate for k in range(12)]
    low = min(range(12), key=mags.__getitem__)
    assert 0 < low < 11


def test_fl_terms_eventually_diverge():
    # the estimate at truncation k is the size of term k
    p = LerchPoint(-10.0, S34, A03)
    mags = [eval_fl_expansion(p, 0, k).abs_err_estimate for k in range(31)]
    low = min(range(31), key=mags.__getitem__)
    assert 0 < low < 6
    assert mags[30] > 1e30 * mags[low]
    assert mags[29] < mags[30]


def test_fl_log_series_against_40_digits():
    # the truncated series sum_(m<k) e^(-aL) (s-1)...(s-m) A_(m+1)(a)
    # L^(s-1-m) / Gamma(s), its weights from the zeta and digamma
    # half-differences A_1(a) = (psi((a+1)/2) - psi(a/2)) / 2 and
    # A_p(a) = (zeta(p, a/2) - zeta(p, (a+1)/2)) / 2^p
    def draw(rng):
        z = cmath.rect(rng.uniform(3.0, 400.0),
                       rng.uniform(-math.pi, math.pi))
        s = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        im = rng.uniform(-1.0, 1.0) if rng.random() < 0.5 else 0.0
        a = complex(rng.uniform(0.05, 6.0), im)
        return LerchPoint(z, s, a), rng.randint(1, 20)

    for p, k in sample(251, 24, draw):
        got = eval_fl_expansion(p, 0, k)
        with mp.workdps(40):
            ms, ma = mp.mpc(p.s), mp.mpc(p.a)
            ml = mp.log(-mp.mpc(p.z))
            half, half1 = ma / 2, (ma + 1) / 2
            fall = mp.exp(-ma * ml) * mp.rgamma(ms)
            terms = []
            for m in range(k + 1):
                if m == 0:
                    weight = (mp.digamma(half1) - mp.digamma(half)) / 2
                else:
                    fall *= ms - m
                    weight = (mp.zeta(m + 1, half)
                              - mp.zeta(m + 1, half1)) / 2 ** (m + 1)
                terms.append(fall * weight * ml ** (ms - 1 - m))
            want = complex(mp.fsum(terms[:k]))
            scale = max(abs(want), max(float(abs(t)) for t in terms[:k]))
            omitted = float(abs(terms[k]))
        assert abs(got.value - want) <= 1e-13 * scale, (p, k)
        assert abs(got.abs_err_estimate - omitted) <= 1e-13 * omitted, (p, k)


def test_fl_preconditions_and_empty_truncation():
    with pytest.raises(DomainError):
        eval_fl_expansion(LerchPoint(0.5, S34, A03), 3, 3)
    with pytest.raises(DomainError):
        eval_fl_expansion(LerchPoint(-5.0, S34, -0.4), 3, 3)
    for s in (0.0, -2.0):
        with pytest.raises(DomainError):
            eval_fl_expansion(LerchPoint(-5.0, s, A03), 3, 3)
    empty = eval_fl_expansion(LerchPoint(-5.0, S34, A03), 0, 0)
    assert empty.value == 0.0
    assert empty.abs_err_estimate > 0.0
    for n_log in (-1, 200):
        with pytest.raises(ValueError):
            eval_fl_expansion(LerchPoint(-5.0, S34, A03), 3, n_log)


# ---------------------------------------------------------------------------
# the logarithmic series against the branch-part remainder it targets


def test_m_series_error_bottoms_at_the_pick():
    from itertools import islice

    from lerchphi.coefficients import csc_coefficients_subtracted
    from lerchphi.engines import (_branch_log, _log_series_terms,
                                  _mirror_terms, residue_series)

    p = LerchPoint(-10.0, S34, A03)
    truth = eval_symmetric_igamma(p, tol=1e-12).value
    s_5 = sum(t + u for t, u in islice(_mirror_terms(p), 6))
    target = truth - s_5 - residue_series(p, 5)
    pick = choose_optimal_M(p, 5)
    assert pick == 13
    terms = _log_series_terms(p, _branch_log(p),
                              csc_coefficients_subtracted(p.a, 5, 25).values)
    errs = {m: abs(sum(t for t in terms[:m] if t is not None) - target)
            for m in range(1, 26)}
    best = min(errs, key=errs.get)
    assert abs(best - pick) <= 2
    assert errs[4] > errs[8] > errs[pick]
    assert errs[pick] < errs[20] < errs[25]


def test_log_series_terms_by_ratio_match_reference():
    # each term is built from the one before; the reference takes every
    # 2 pi i e^(-aL) b_m L^(s-1-m) / Gamma(s-m) apart, in 30 digits.  One
    # log_gamma and one exp per term missed this: 3e-13 off at m ~ 170,
    # and 2e-4 where a subnormal b_m met the exponential last
    from lerchphi.coefficients import csc_coefficients_subtracted
    from lerchphi.engines import _branch_log, _log_series_terms

    def draw(rng):
        while True:
            z = cmath.rect(rng.uniform(3.0, 400.0),
                           rng.uniform(-math.pi, math.pi))
            s = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            im = rng.uniform(-1.0, 1.0) if rng.random() < 0.5 else 0.0
            a = complex(rng.uniform(0.05, 6.0), im)
            n_cap = min(40, int(abs(z)) - 1)
            if (abs(s - round(s.real)) > 0.05
                    and math.ceil(a.real) + 1 <= n_cap):
                return (LerchPoint(z, s, a),
                        rng.randint(math.ceil(a.real) + 1, n_cap))

    # at L = ln 1e130 ~ 299, L^(s-1) is 1e369 at s = 150.5 and 1e-375 at
    # s = -150.5, while the terms with 1/Gamma(s) in them are 1e37 and
    # 1e-181
    far = [(LerchPoint(-1e130, s, A03), 5)
           for s in (150.5, -150.5, 100.5 + 30j)]
    for p, N in sample(131, 30, draw) + far:
        L = _branch_log(p)
        coeffs = csc_coefficients_subtracted(
            p.a, N, min(choose_optimal_M(p, N), 200)).values
        ms, ml = mp.mpc(p.s), mp.mpc(L)
        front = 2j * mp.pi * mp.exp(-mp.mpc(p.a) * ml)
        for m, (got, b) in enumerate(zip(_log_series_terms(p, L, coeffs),
                                         coeffs)):
            want = front * b * ml ** (ms - 1 - m) * mp.rgamma(ms - m)
            assert rel_err(got, complex(want)) <= 1e-13, (p, N, m)


def test_log_series_terms_real_and_underflow():
    from lerchphi.coefficients import csc_coefficients_subtracted
    from lerchphi.engines import _branch_log, _log_series_terms

    # real s, a and L (z < -1): every term exactly real, s > 1 and
    # |s| >= 100 (1/Gamma(s) in the exponential) included
    for s in (0.75, 2.5, -1.3, 150.5, -150.5):
        p = LerchPoint(-10.0, s, A03)
        terms = _log_series_terms(
            p, _branch_log(p), csc_coefficients_subtracted(A03, 5, 30).values)
        assert all(t.imag == 0.0 for t in terms), s
    # e^(-aL) = e^(-740) takes every term under the double range
    rep = eval_main_theorem(LerchPoint(-1e4, S34, 80.3), 82)
    assert "m-term-underflow" in rep.warnings
    ref = complex(mp.lerchphi(-1e4, S34, 80.3))
    assert rel_err(rep.value, ref) < 1e-12


# ---------------------------------------------------------------------------
# identities holding across engines


def test_contiguity_direct():
    def draw(rng):
        z = cmath.rect(rng.uniform(0.2, 0.85),
                       rng.uniform(-math.pi, math.pi))
        s = complex(rng.uniform(-1.0, 3.0), rng.uniform(-2.0, 2.0))
        a = complex(rng.uniform(0.2, 1.5), rng.uniform(-0.5, 0.5))
        return z, s, a

    for z, s, a in sample(211, 8, draw):
        va = eval_series_direct(LerchPoint(z, s, a), tol=1e-13).value
        v1 = eval_series_direct(LerchPoint(z, s, a + 1.0), tol=1e-13).value
        assert contiguity_gap(va, v1, z, s, a) < 1e-8, (z, s, a)


def test_contiguity_near_one():
    def draw(rng):
        z = cmath.rect(rng.uniform(0.95, 2.2),
                       rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 2.5))
        while True:
            s = complex(rng.uniform(-0.5, 2.5), rng.uniform(-1.0, 1.0))
            if abs(s - round(s.real)) > 0.2:
                break
        a = complex(rng.uniform(0.25, 1.2), rng.uniform(-0.3, 0.3))
        return z, s, a

    pts = sample(223, 5, draw)
    pts.append((1.5 + 0.0j, 0.6 - 0.3j, 0.45 + 0.0j))  # on the cut itself
    for z, s, a in pts:
        va = eval_near_one(LerchPoint(z, s, a)).value
        v1 = eval_near_one(LerchPoint(z, s, a + 1.0)).value
        assert contiguity_gap(va, v1, z, s, a) < 1e-8, (z, s, a)


def test_contiguity_integer_s():
    def draw(rng):
        z = cmath.rect(rng.uniform(3.0, 30.0),
                       rng.choice([-1.0, 1.0])
                       * rng.uniform(0.2, math.pi - 0.05))
        while True:
            a = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.4, 0.4))
            if abs(a - round(a.real)) > 0.15:
                break
        return z, a

    rows = list(zip((-2, -1, 0, 1, 2, 3), sample(227, 6, draw)))
    rows.append((1, (12.0 + 0.0j, 0.4 + 0.0j)))  # on the cut itself
    for S, (z, a) in rows:
        va = eval_integer_s_large_z(LerchPoint(z, float(S), a),
                                    1e-13).value
        v1 = eval_integer_s_large_z(LerchPoint(z, float(S), a + 1.0),
                                    1e-13).value
        assert contiguity_gap(va, v1, z, float(S), a) < 1e-8, (S, z, a)


def test_contiguity_main_theorem():
    def draw(rng):
        z = cmath.rect(rng.uniform(30.0, 60.0),
                       rng.choice([-1.0, 1.0])
                       * rng.uniform(0.3, math.pi - 0.05))
        while True:
            s = complex(rng.uniform(-0.5, 2.2), rng.uniform(-0.8, 0.8))
            if abs(s - round(s.real)) > 0.15:
                break
        a = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.2, 0.2))
        return z, s, a

    pts = sample(229, 5, draw)
    pts.append((45.0 + 0.0j, 0.6 + 0.4j, 0.35 + 0.0j))  # on the cut itself
    for z, s, a in pts:
        ra = eval_main_theorem(LerchPoint(z, s, a), 8)
        r1 = eval_main_theorem(LerchPoint(z, s, a + 1.0), 8)
        assert ra.abs_err_estimate < 1e-9
        assert contiguity_gap(ra.value, r1.value, z, s, a) < 1e-8, (z, s, a)


def test_contiguity_symmetric():
    def draw(rng):
        z = cmath.rect(rng.uniform(4.0, 12.0),
                       math.pi
                       + rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 0.9))
        s = complex(rng.uniform(-1.0, 2.5), rng.uniform(-1.5, 1.5))
        a = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.3, 0.3))
        return z, s, a

    pts = sample(233, 4, draw)
    pts.append((6.0 + 0.0j, 1.2 - 0.7j, 0.5 + 0.0j))  # on the cut itself
    for z, s, a in pts:
        ra = eval_symmetric_igamma(LerchPoint(z, s, a), tol=1e-12)
        r1 = eval_symmetric_igamma(LerchPoint(z, s, a + 1.0), tol=1e-12)
        assert not ra.warnings and not r1.warnings
        assert contiguity_gap(ra.value, r1.value, z, s, a) < 5e-9, (z, s, a)


def test_conjugate_symmetry_all_engines():
    # phi(conj z, conj s, conj a) = conj phi(z, s, a); on the cut the
    # side flips with the conjugation
    def flip(p):
        side = "below" if p.cut_side == "above" else "above"
        return LerchPoint(p.z.conjugate(), p.s.conjugate(),
                          p.a.conjugate(), side)

    def check(fn, p):
        v = fn(p).value
        w = fn(flip(p)).value
        assert abs(w - v.conjugate()) <= 1e-10 * max(1.0, abs(v)), p

    check(lambda q: eval_series_direct(q, tol=1e-13),
          LerchPoint(0.5 + 0.3j, 1.3 - 0.8j, 0.7 + 0.2j))
    check(eval_near_one, LerchPoint(1.2 + 0.4j, 0.8 + 0.5j, 0.6 - 0.1j))
    check(eval_near_one, LerchPoint(1.5, S34, A03, "above"))
    check(lambda q: eval_integer_s_large_z(q, 1e-13),
          LerchPoint(8.0 + 3.0j, 2.0, 0.4 + 0.2j))
    check(lambda q: eval_integer_s_large_z(q, 1e-13),
          LerchPoint(9.0, 1.0, 0.35, "above"))
    check(lambda q: eval_main_theorem(q, 6),
          LerchPoint(-30.0 + 8.0j, 0.9 - 0.6j, 0.45))
    check(lambda q: eval_main_theorem(q, 6),
          LerchPoint(35.0, 0.6 + 0.3j, A03, "above"))
    check(lambda q: eval_symmetric_igamma(q, tol=1e-11),
          LerchPoint(-6.0 + 2.0j, 1.7 + 0.9j, 0.55 - 0.1j))
    check(lambda q: eval_symmetric_igamma(q, tol=1e-11),
          LerchPoint(7.0, S34, A03, "above"))


def test_integral_route_matches_direct_series():
    ref = quad_integral(0.5, 2.5, 1.7)
    rep = eval_series_direct(LerchPoint(0.5, 2.5, 1.7), tol=1e-14)
    assert abs(ref.value - rep.value) < 1e-11


# ---------------------------------------------------------------------------
# dispatcher


def test_auto_small_z_direct():
    rep = eval_auto(LerchPoint(0.5, 2.0, 1.0))
    assert rep.engine == "direct"
    assert abs(rep.value - PHI_HALF_2_1) < 1e-10


def test_auto_band_routes():
    band = LerchPoint(cmath.rect(1.4, 0.5), 2.5, 0.7)
    rep = eval_auto(band)
    assert rep.engine == "abel_plana"
    assert rel_err(rep.value, reference_value(band).value) < 1e-12
    geo = eval_auto(LerchPoint(1.3 + 0.2j, 0.0, 0.4))
    assert geo.engine == "abel_plana"
    assert rel_err(geo.value, 1.0 / (1.0 - (1.3 + 0.2j))) < 1e-10
    # positive integer s, where the near-one expansion has a gamma pole,
    # takes the same engine
    on_pole = LerchPoint(1.2, 2.0, 0.7)
    pole = eval_auto(on_pole)
    assert pole.engine == "abel_plana"
    assert rel_err(pole.value, reference_value(on_pole).value) < 1e-12


def test_auto_large_z_routes():
    # past e every non-integer s takes the Abel-Plana engine, Re a <= 0
    # included; at real z left of the cut, real s and a > 0 its value is
    # exactly real
    ap = eval_auto(LerchPoint(-10.0, S34, A03), target_tol=1e-6)
    assert ap.engine == "abel_plana"
    assert ap.abs_err_estimate <= 1e-13
    assert ap.value.imag == 0.0
    assert abs(ap.value - 1.0889334) < 2e-6
    ref = hp_continuation(-10.0, S34, A03)
    assert abs(ap.value - ref.value) <= ap.abs_err_estimate + ref.err_bar
    ints = eval_auto(LerchPoint(-10.0, 2.0, A03))
    assert ints.engine == "integer_s"
    ref = reference_value(LerchPoint(-10.0, 2.0, A03))
    assert abs(ints.value - ref.value) < 1e-9
    whole = LerchPoint(-10.0, 2.0, 1.0)
    whole_a = eval_auto(whole)
    assert whole_a.engine == "integer_s"
    assert rel_err(whole_a.value, reference_value(whole).value) < 1e-12
    # where Gamma(1 - s, -a ln z) would leave the double range the same
    # engine answers, the term in log space
    assert eval_auto(LerchPoint(GAP_Z, GAP_S, GAP_A)).engine == "abel_plana"
    assert eval_auto(LerchPoint(-3.5, S34, 600.3)).engine == "abel_plana"
    # Re a <= 0 past the double range of z^k in the a-shift is a
    # conditioning error
    with pytest.raises(ConditioningError):
        eval_auto(LerchPoint(-1e20, S34, -30.3))


def test_auto_flags_abel_plana_reports_that_miss_the_target():
    # the Abel-Plana engine does not read target_tol; where its estimate
    # misses it (relative past magnitude 1) eval_auto says so, and the
    # report is otherwise the engine's
    for z, s, a in ((-10.0, -150.5, A03), (-10.0, S34 - 90.0j, 2.3)):
        p = LerchPoint(z, s, a)
        rep = eval_auto(p)
        assert rep.warnings == ("target-tol-unmet",), p
        assert rep.abs_err_estimate > 1e-10 * max(1.0, abs(rep.value)), p
        assert rep._replace(warnings=()) == eval_abel_plana(p), p


def test_auto_where_z_to_the_n_overflows():
    # the mirror terms form no power of z: the main theorem at depth
    # 31 > a answers at |z| = 1e20, where complex ** makes z^(-n) nan
    # past n = 15
    for z, s, a in ((2e9 + 1e9j, 0.75 + 0.5j, 37.3), (-1e20, S34, 30.3)):
        want = quad_integral(z, s, a).value
        rep = eval_auto(LerchPoint(z, s, a))
        assert rel_err(rep.value, want) < 1e-12
    assert cmath.isnan(complex(z) ** -16)
    rep = eval_main_theorem(LerchPoint(z, s, a), 31)
    assert rel_err(rep.value, want) < 1e-13


def _mp_integral_reference(z, s, a):
    """Phi by mpmath's quadrature of the integral representation
    Gamma(s)^-1 int_0^oo x^(s-1) e^(-ax) / (1 - z e^(-x)) dx at 30 digits
    (Re s > 0, Re a > 0, z off [1, oo)); it shares no code with the
    engines or the oracle."""
    with mp.workdps(30):
        zc, sc, ac = mp.mpc(z), mp.mpc(s), mp.mpc(a)
        value = mp.quad(lambda x: x ** (sc - 1) * mp.exp(-ac * x)
                        / (1 - zc * mp.exp(-x)),
                        [0, 0.25, 0.5, 1, 2, 4, 8, 16, 32, mp.inf])
        return complex(value / mp.gamma(sc))


def test_gap_points_have_honest_nonzero_estimates():
    # in the Abel-Plana engine's former gap it answers with its Gamma
    # term in log space, after one step down.  The symmetric
    # expansion, run far past what doubles resolve, is floored at the
    # rounding of its terms
    for z, s, a in ((GAP_Z, GAP_S, GAP_A), (-1e20, S34, 30.3)):
        p = LerchPoint(z, s, a)
        want = _mp_integral_reference(z, s, a)
        for rep in (eval_auto(p), eval_symmetric_igamma(p, tol=1e-18)):
            assert rep.abs_err_estimate > 0.0, (p, rep.engine)
            assert abs(rep.value - want) <= rep.abs_err_estimate, \
                (p, rep.engine)
        assert eval_auto(p) == eval_abel_plana(p)
        assert rel_err(eval_auto(p).value, want) <= 1e-13, p


def _mp_gap_reference(z, s, a, dps):
    """Phi by mpmath's quadrature of the integral representation
    Gamma(s)^-1 int_0^oo x^(s-1) e^(-ax) / (1 - z e^(-x)) dx at dps
    digits, split at multiples of 1/|a|, the scale on which e^(-ax)
    decays.  On the first piece the integrand's Taylor polynomial of
    degree 2 is integrated exactly against x^(s-1), so the quadrature
    sees no x^(s-1) singularity at small Re s; the integrand is scaled
    by z a^s, so the integral is of order Gamma(s) (Re s > 0,
    Re a > 0, z off [1, oo))."""
    with mp.workdps(dps):
        zc, sc, ac = mp.mpc(z), mp.mpc(s), mp.mpc(a)
        h = 1 / abs(ac)
        scale = zc * ac ** sc

        def g(x):
            return scale * mp.exp(-ac * x) / (1 - zc * mp.exp(-x))

        c = mp.taylor(g, 0, 2)
        head = sum(ck * h ** (sc + k) / (sc + k) for k, ck in enumerate(c))
        head += mp.quad(lambda x: x ** (sc - 1)
                        * (g(x) - c[0] - x * (c[1] + x * c[2])), [0, h])
        tail = mp.quad(lambda x: x ** (sc - 1) * g(x),
                       [h * 4 ** k for k in range(4)] + [mp.inf])
        return (head + tail) / (scale * mp.gamma(sc))


def test_auto_estimate_is_honest_in_the_abel_plana_gap():
    # seeded points with a ln|z| in (800, 1000), where Gamma(1 - s, -aL)
    # leaves the double range and the Abel-Plana engine carries it in log
    # space.
    # The resummed theorem and the symmetric expansion answered here
    # before, the latter up to 1e-4 of the value off while its estimate
    # met the target absolutely.  Against the quadrature at 30 and 40
    # digits
    def draw(rng):
        log_r = rng.uniform(2.0, 50.0)
        z = cmath.rect(math.exp(log_r),
                       rng.choice((-1.0, 1.0)) * rng.uniform(0.05, math.pi))
        a = complex(rng.uniform(800.0, 1000.0) / log_r,
                    rng.uniform(-1.0, 1.0) if rng.random() < 0.3 else 0.0)
        s = complex(rng.uniform(0.1, 6.0), rng.uniform(-6.0, 6.0))
        return LerchPoint(z, s, a)

    engines = set()
    for p in sample(1414, 8, draw):
        rep = eval_auto(p)
        engines.add(rep.engine)
        ref30 = _mp_gap_reference(p.z, p.s, p.a, 30)
        ref40 = _mp_gap_reference(p.z, p.s, p.a, 40)
        assert abs(ref30 - ref40) <= 1e-20 * abs(ref40), p
        assert abs(rep.value - complex(ref40)) <= rep.abs_err_estimate, p
        assert rel_err(rep.value, complex(ref40)) <= 1e-13, p
    assert engines == {"abel_plana"}


def test_auto_estimate_is_honest_past_e():
    # seeded points at e <= |z| <= 400: real a in (-3, 5), so Re a <= 0
    # too, real, integer and complex s, a fifth of them on the cut from
    # either side; against mpmath's lerchphi at 30 and 40 digits
    # (hp_continuation, which agrees with the a-shift identity at
    # negative a), at z +/- i 1e-30 on the cut
    def draw(rng):
        r = math.exp(rng.uniform(1.0, math.log(400.0)))
        z = (r if rng.random() < 0.2
             else cmath.rect(r, rng.uniform(-math.pi, math.pi)))
        kind = rng.random()
        if kind < 0.15:
            s = complex(rng.randint(-2, 5), 0.0)
        elif kind < 0.4:
            s = complex(rng.uniform(-3.0, 6.0), 0.0)
        else:
            s = complex(rng.uniform(-3.0, 6.0), rng.uniform(-6.0, 6.0))
        return LerchPoint(z, s, rng.uniform(-3.0, 5.0),
                          rng.choice(("above", "below")))

    points = sample(1105, 14, draw)
    # the draws reach every case named above
    assert {p.cut_side for p in points if p.on_cut} == {"above", "below"}
    assert sum(p.a.real <= 0.0 for p in points) >= 3
    engines = set()
    for p in points:
        z = p.z
        if p.on_cut:
            z = complex(z.real, 1e-30 if p.cut_side == "above" else -1e-30)
        ref = hp_continuation(z, p.s, p.a)
        rep = eval_auto(p)
        assert abs(rep.value - ref.value) <= (rep.abs_err_estimate
                                              + ref.err_bar), p
        engines.add(rep.engine)
    assert engines == {"abel_plana", "integer_s"}

    # real a in (-0.95, -0.02) and real s in (20, 168) at e < |z| < 8100,
    # where the Abel-Plana engine shifts a up once: its head term a^(-s)
    # rounds like |s ln a| ulps.  Weighted by its size alone, 4 of these
    # 24 draws lay past their estimates, by up to 2.6x
    def draw_negative_a(rng):
        z = cmath.rect(math.exp(rng.uniform(1.0, math.log(8100.0))),
                       rng.uniform(-3.1, 3.1))
        return LerchPoint(z, rng.uniform(20.0, 168.0),
                          rng.uniform(-0.95, -0.02))

    for p in sample(3, 24, draw_negative_a):
        ref = hp_continuation(p.z, p.s, p.a)
        rep = eval_auto(p)
        assert rep.engine == "abel_plana", p
        assert abs(rep.value - ref.value) <= (rep.abs_err_estimate
                                              + ref.err_bar), p


def test_auto_estimate_is_honest_along_rays():
    # seeded short rays at fixed (s, a), as the paper sweeps z: one each
    # through the direct series, the band, past e off and on the cut,
    # complex a, Re a <= 0 and integer s, four points a ray walked
    # outward with the caches kept, so the Abel-Plana points past a
    # ray's second read their node factors from a table.  References,
    # 28 oracle calls: reference_value; for complex a past e, where that
    # refuses mpmath's continuation, quad_integral; on the cut mpmath's
    # continuation at z +/- i 1e-30 (reference_value's two-sided
    # extrapolation costs twice that); at -1 < a < 0,
    # a^(-s) + z quad_integral(z, s, a + 1)
    rng = random.Random(1818)

    def radii(lo, hi):
        r0 = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        q = (hi / r0) ** (1.0 / 3.0)
        return [r0 * q ** k for k in range(4)]

    def off_axis():
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.3, math.pi)

    def s_any():
        return complex(rng.uniform(0.2, 5.0), rng.uniform(-3.0, 3.0))

    rays = {
        "direct": (radii(0.1, 0.9), off_axis(),
                   complex(rng.uniform(-3.0, 4.0), rng.uniform(-2.0, 2.0)),
                   rng.uniform(0.1, 3.0)),
        "band": (radii(0.95, 2.6), off_axis(), s_any(),
                 rng.uniform(0.1, 3.0)),
        "past_e": (radii(3.0, 800.0), off_axis(), s_any(),
                   rng.uniform(0.1, 4.0)),
        "on_cut": (radii(3.0, 800.0), rng.choice(("above", "below")),
                   complex(rng.uniform(0.7, 5.5), 0.0),
                   rng.uniform(0.1, 4.0)),
        "complex_a": (radii(3.0, 800.0), off_axis(), s_any(),
                      complex(rng.uniform(0.2, 3.0), rng.uniform(-1.5, 1.5))),
        "neg_a": (radii(3.0, 300.0), off_axis(), s_any(),
                  -rng.uniform(0.1, 0.9)),
        "integer_s": (radii(3.0, 300.0), off_axis(),
                      complex(rng.randint(1, 4), 0.0), rng.uniform(0.1, 3.0)),
    }
    special_kernel._abel_plana_entry.cache_clear()
    engines = set()
    for kind, (rs, arg, s, a) in rays.items():
        for r in rs:
            if kind == "on_cut":
                p = LerchPoint(r, s, a, arg)
            else:
                p = LerchPoint(cmath.rect(r, arg), s, a)
            rep = eval_auto(p)
            engines.add(rep.engine)
            if kind == "on_cut":
                nudge = 1e-30 if arg == "above" else -1e-30
                ref = hp_continuation(complex(r, nudge), s, a)
            elif kind == "complex_a":
                ref = quad_integral(p.z, s, a)
            elif kind == "neg_a":
                shifted = quad_integral(p.z, s, a + 1.0)
                with mp.workdps(30):
                    head = complex(mp.power(mp.mpf(a), -mp.mpc(s)))
                ref = shifted._replace(
                    value=head + p.z * shifted.value,
                    err_bar=abs(p.z) * shifted.err_bar + 1e-16 * abs(head))
            else:
                ref = reference_value(p)
            assert abs(rep.value - ref.value) <= (rep.abs_err_estimate
                                                  + ref.err_bar), (kind, p)
    assert engines == {"direct", "abel_plana", "integer_s"}
    # table reads: two a ray on each Abel-Plana ray
    assert special_kernel._abel_plana_entry.cache_info().hits >= 10


def test_abel_plana_is_exactly_real_left_of_the_cut():
    # Phi is real on the real axis below z = 1 at real s and a > 0; the
    # imaginary parts of the engine's pieces cancel to rounding, which
    # the engine drops (at -10, 200.5, 0.3 it was 3.5e90)
    for z, s, a in ((-10.0, S34, A03), (-10.0, 200.5, A03), (-1.5, 2.5, 0.7),
                    (0.95, -1.5, 3.3), (-400.0, 3.0, 0.45)):
        rep = eval_abel_plana(LerchPoint(z, s, a))
        assert rep.value.imag == 0.0, (z, s, a)
        assert rel_err(rep.value, complex(mp.lerchphi(z, s, a))) < 1e-13
    # off the axis, at complex s or at a < 0 the value is complex
    for z, s, a in ((-10.0 + 1e-3j, S34, A03), (-10.0, S34 + 0.1j, A03),
                    (-10.0, S34, -0.3), (1.5, S34, A03)):
        assert eval_abel_plana(LerchPoint(z, s, a)).value.imag != 0.0


def test_auto_needs_no_mpmath():
    # one eval_auto per route in a process where mpmath cannot be
    # imported; the reports must be those of this process
    points = [(0.5, 2.0, 1.0, 1e-10), (cmath.rect(1.4, 0.5), 2.5, 0.7, 1e-10),
              (-10.0, 2.0, A03, 1e-10), (-10.0, 2.0, 1.0, 1e-10),
              (-10.0, S34, A03, 1e-6), (GAP_Z, GAP_S, GAP_A, 1e-10),
              (-3.5, S34, 600.3, 1e-10), (-0.5, -25.0, 0.7, 1e-10)]
    script = f"""
import sys
import lerchphi.engines as engines
assert "mpmath" not in sys.modules, "importing lerchphi.engines loaded mpmath"
sys.modules["mpmath"] = None
from lerchphi._types import LerchPoint
for z, s, a, tol in {points!r}:
    r = engines.eval_auto(LerchPoint(z, s, a), target_tol=tol)
    print(repr((r.value, r.abs_err_estimate, r.engine)))
"""
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    engines = []
    for (z, s, a, tol), line in zip(points, lines, strict=True):
        r = eval_auto(LerchPoint(z, s, a), target_tol=tol)
        assert line == repr((r.value, r.abs_err_estimate, r.engine))
        engines.append(r.engine)
    assert engines == ["direct", "abel_plana", "integer_s", "integer_s",
                       "abel_plana", "abel_plana", "abel_plana", "abel_plana"]


def test_auto_integer_a_and_large_a_take_abel_plana():
    # integer a poisons the unsubtracted pair coefficients; the
    # Abel-Plana engine has no such coefficients, and it answers at
    # a = 600 too, its Gamma term in log space, where eval_auto once fell
    # back to the symmetric pair form, which is entire in a
    p = LerchPoint(-10.0, S34, 2.0)
    rep = eval_auto(p)
    assert rep.engine == "abel_plana"
    ref = reference_value(p).value
    assert rel_err(rep.value, ref) < 1e-13
    assert abs(eval_symmetric_igamma(p, tol=1e-10).value - ref) < 1e-9
    gap = eval_auto(LerchPoint(-10.0, S34, 600.0))
    assert gap.engine == "abel_plana"
    want = quad_integral(-10.0, S34, 600.0).value
    assert abs(gap.value - want) < 1e-10
    assert abs(gap.value - want) <= gap.abs_err_estimate
    assert rel_err(gap.value, want) <= 1e-13


def test_symmetric_engine_near_e_and_auto_best_effort():
    # |z| between e and 5 leaves the resummed theorem no admissible depth,
    # so the symmetric expansion serves there as an engine; eval_auto
    # takes the Abel-Plana engine at a = 600.3 too, its Gamma term in log
    # space
    for a in (A03, 600.3):
        rep = eval_symmetric_igamma(LerchPoint(-3.5, S34, a), N_max=400,
                                    tol=1e-10)
        assert rep.engine == "symmetric_igamma"
        assert not rep.warnings
        assert rep.abs_err_estimate <= 1e-10 * max(1.0, abs(rep.value))
        ref = quad_integral(-3.5, S34, a)
        assert abs(rep.value - ref.value) < 1e-8
    gap = eval_auto(LerchPoint(-3.5, S34, 600.3))
    assert gap.engine == "abel_plana"
    assert abs(gap.value - ref.value) <= gap.abs_err_estimate
    assert rel_err(gap.value, ref.value) <= 1e-13
    hard = eval_auto(LerchPoint(-3.5, S34, 600.3), target_tol=1e-30)
    assert "target-tol-unmet" in hard.warnings
    assert "target-tol-unmet" in eval_auto(
        LerchPoint(-3.5, S34, A03), target_tol=1e-30).warnings
    ap = eval_auto(LerchPoint(-3.5, S34, A03))
    assert ap.engine == "abel_plana"
    assert abs(ap.value - quad_integral(-3.5, S34, A03).value) < 1e-13


def test_abel_plana_steps_a_down_inside_e():
    # at 1 < |z| < e with Re(a ln z) past 700, where Gamma(1 - s, -aL)
    # leaves the double range and no other engine of eval_auto's answers:
    # the term in log space, with one step down at |z| = 2.1 (not at
    # |z| = 2, under 2 (a/(a-1))^Re s); on the cut and off it
    for z in (2.0, -2.0, 1.5 - 1.5j):
        p = LerchPoint(z, S34, 2000.3)
        rep = eval_auto(p)
        assert rep.engine == "abel_plana" and not rep.warnings, z
        ref = reference_value(p)
        assert abs(rep.value - ref.value) <= (rep.abs_err_estimate
                                              + ref.err_bar), z
        assert rel_err(rep.value, ref.value) <= 1e-12, z


def test_auto_raises_conditioning_error_past_the_double_range():
    # the direct series' term z^3 (-1e-13)^(-30) is past the double range:
    # a typed error, not an OverflowError
    for z, s, a in ((0.5, 30.0, -3.0000000000001),
                    (1e-12, 30.0, -3.0000000000001)):
        with pytest.raises(ConditioningError):
            eval_auto(LerchPoint(z, s, a))


def test_auto_hands_a_refused_direct_series_on():
    # a term of the direct series past the double range is a miss: the
    # Abel-Plana engine answers (-0.5, -200, 0.5), to about 3e-14
    # relative, flagged as missing the target
    p = LerchPoint(-0.5, -200.0, 0.5)
    with pytest.raises(ConditioningError):
        eval_series_direct(p)
    rep = eval_auto(p)
    with mp.workdps(30):
        want = complex(mp.lerchphi(-0.5, -200, 0.5).real)
    assert rep.engine == "abel_plana"
    assert rep.warnings == ("target-tol-unmet",)
    assert abs(rep.value - want) <= rep.abs_err_estimate
    assert rel_err(rep.value, want) <= 1e-13
    # at z = 0 no engine is left to hand it to
    with pytest.raises(ConditioningError):
        eval_auto(LerchPoint(0.0, 400.0, 1e-3))


def test_auto_lets_only_typed_errors_out_next_to_nonpositive_integer_a():
    # a within 1e-14..1e-1 of 0..-5, where a complex ** with an integer
    # exponent underflows its product and divides 1 by it: a
    # ZeroDivisionError in Python, the double range all the same, so a
    # ConditioningError (the Abel-Plana head's a^(-s) at (5+i, 40, 1e-12),
    # and 137 of these draws, let one out bare).  |z| = e^u with u in
    # (-3, 7); 70% integer s in 1..100, the rest real in (1, 100); 30% of
    # the a with an imaginary part drawn like the offset
    with pytest.raises(ConditioningError):
        eval_auto(LerchPoint(5.0 + 1.0j, 40.0, 1e-12))

    def draw(rng):
        z = cmath.rect(math.exp(rng.uniform(-3.0, 7.0)),
                       rng.uniform(-math.pi, math.pi))
        s = (float(rng.randint(1, 100)) if rng.random() < 0.7
             else rng.uniform(1.0, 100.0))

        def near():
            return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, -1.0)

        a = complex(-rng.randint(0, 5) + near(),
                    near() if rng.random() < 0.3 else 0.0)
        return z, s, a

    answered = 0
    for z, s, a in sample(1, 600, draw):
        try:
            eval_auto(LerchPoint(z, s, a))
            answered += 1
        except LerchError:
            pass
    assert answered >= 290


def test_auto_direct_series_estimate_is_honest():
    # seeded points at |z| <= 0.9 with Re s down to -30, where the terms
    # grow before they fall and cancel: the direct series answers where
    # its estimate, the rounding of the sum included, meets the target,
    # and hands the rest to the Abel-Plana engine.  Against the
    # defining series in mpmath, which adds the digits its terms cancel
    def draw(rng):
        z = cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(-math.pi, math.pi))
        s = complex(rng.uniform(-30.0, 2.0),
                    rng.uniform(-6.0, 6.0) if rng.random() < 0.3 else 0.0)
        a = complex(rng.uniform(0.05, 4.0),
                    rng.uniform(-2.0, 2.0) if rng.random() < 0.3 else 0.0)
        return LerchPoint(z, s, a)

    # real a < 0, where |a+n| falls before Re(a+n) > 0 and the terms
    # there rise: their sizes bound no later term
    def draw_negative_a(rng):
        z = cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(-math.pi, math.pi))
        s = complex(rng.uniform(0.5, 30.0),
                    rng.uniform(-3.0, 3.0) if rng.random() < 0.3 else 0.0)
        while True:
            a = rng.uniform(-15.0, -1.0)
            if abs(a - round(a)) >= 0.05:
                return LerchPoint(z, s, a)

    points = sample(1616, 40, draw) + [LerchPoint(-0.5, -25.0, 0.7),
                                       LerchPoint(0.9j, -30.0, 0.5),
                                       LerchPoint(-0.9, -20.0, 0.3)]
    points += sample(19, 261, draw_negative_a) + [
        LerchPoint(0.5, 20.0, -5.5), LerchPoint(0.3, 8.0 + 2.0j, -50.2 + 0.3j),
        LerchPoint(0.9, 2.0, -20000.3)]
    engines = set()
    for p in points:
        rep = eval_auto(p)
        engines.add(rep.engine)
        ref = hp_series(p.z, p.s, p.a)
        assert abs(rep.value - ref.value) <= (rep.abs_err_estimate
                                              + ref.err_bar), p
        direct = eval_series_direct(p, tol=1e-10)
        assert abs(direct.value - ref.value) <= (direct.abs_err_estimate
                                                 + ref.err_bar), p
    assert engines == {"direct", "abel_plana"}
    # the direct sum is 1.6e13 off there, cancelling from terms of 1e28
    assert eval_auto(LerchPoint(-0.5, -25.0, 0.7)).engine == "abel_plana"
    # the series once stopped there after one term of 1.6e-15
    rep = eval_auto(LerchPoint(0.5, 20.0, -5.5))
    assert abs(rep.value - 49152.00002114641) <= rep.abs_err_estimate
    # d^(-Re s) |z|^n bounds the tail long before Re(a+n) > 0
    assert eval_auto(LerchPoint(0.9, 2.0, -20000.3)).n_terms < 1000
