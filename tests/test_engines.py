"""Evaluation engines: frozen anchors, exact identities, routing checks."""

import cmath
import math
import subprocess
import sys

import mpmath as mp
import pytest

from helpers import rel_err, sample
from lerchphi._types import EngineReport, LerchPoint
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
)
from lerchphi.errors import AccuracyError, ConditioningError, DomainError
from lerchphi.oracle import hp_continuation, quad_integral, reference_value

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
    with pytest.raises(ValueError):
        EngineReport(1.0 + 0j, math.nan, 0, 0, "direct")


# ---------------------------------------------------------------------------
# direct series


def test_direct_at_zero_argument():
    for s, a in ((2.5, 1.3), (1.1 - 0.7j, 0.4 + 0.2j)):
        rep = eval_series_direct(LerchPoint(0.0, s, a))
        assert rel_err(rep.value, complex(a) ** -complex(s)) < 1e-15
        assert rep.n_terms == 1


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
    from lerchphi.special_kernel import gamma, hurwitz_zeta

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


def test_abel_plana_shifts_nonpositive_a():
    # Re a <= 0 steps through Phi(z,s,a) = a^(-s) + z Phi(z,s,a+1)
    z, s, a = cmath.rect(1.3, 2.0), 0.5 + 0.5j, -1.4 + 0.2j
    rep = eval_abel_plana(LerchPoint(z, s, a))
    step = eval_abel_plana(LerchPoint(z, s, a + 2.0))
    want = a ** -s + z * (a + 1.0) ** -s + z * z * step.value
    assert rel_err(rep.value, want) < 1e-14
    assert rep.abs_err_estimate >= abs(z) ** 2 * step.abs_err_estimate


# ---------------------------------------------------------------------------
# exact closed form at integer s


def test_integer_s_geometric_row():
    rep = eval_integer_s_large_z(LerchPoint(-5.0, 0.0, A03), 0, 30)
    assert abs(rep.value - 1.0 / 6.0) < 1e-13
    z = 10.0j
    rep = eval_integer_s_large_z(LerchPoint(z, 0.0, 0.77), 0, 40)
    assert rel_err(rep.value, 1.0 / (1.0 - z)) < 1e-13


def test_integer_s_quadratic_closed_form():
    # s = -2 sums (a+n)^2 z^n, a rational function of z
    z, a = 10.0j, 0.31
    rep = eval_integer_s_large_z(LerchPoint(z, -2.0, a), -2, 25)
    u = 1.0 - z
    want = a * a / u + 2.0 * a * z / u ** 2 + z * (1.0 + z) / u ** 3
    assert rel_err(rep.value, want) < 1e-12


def test_integer_s_against_reference():
    for S in (-1, 1, 3):
        for z in (-5.0, 10.0j):
            p = LerchPoint(z, float(S), A03)
            rep = eval_integer_s_large_z(p, S, 80)
            ref = reference_value(p)
            assert abs(rep.value - ref.value) < 1e-9, (S, z)


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


def test_integer_s_guards():
    with pytest.raises(ValueError):
        eval_integer_s_large_z(LerchPoint(-5.0, 2.5, A03), 2, 20)
    # integer a <= 0 is refused; a >= 1 takes the polylogarithm form,
    # whose tail must reach the left-out term n = a
    with pytest.raises(DomainError):
        eval_integer_s_large_z(LerchPoint(-5.0, 2.0, -3.0), 2, 20)
    with pytest.raises(ValueError):
        eval_integer_s_large_z(LerchPoint(-5.0, 2.0, 3.0), 2, 2)
    with pytest.raises(DomainError):
        eval_integer_s_large_z(LerchPoint(0.5, 2.0, A03), 2, 20)


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
    exact = eval_integer_s_large_z(LerchPoint(-5.0, 1.0, A03), 1, 80)
    assert abs(rep.value - exact.value) < 1e-9


def test_symmetric_pairing_beats_one_sided_tail():
    from lerchphi.engines import (_branch_log, _first_sum_term, _half_turns,
                                  _pair_term)
    from lerchphi.special_kernel import reciprocal_gamma

    p = LerchPoint(-7.0, S34, A03)
    L = _branch_log(p)
    sigma = _half_turns(p, L)
    rg = reciprocal_gamma(p.s)
    for n in range(25, 36):
        one_sided = _first_sum_term(p, n, L, rg, sigma)
        paired = one_sided + _pair_term(p, n, L, rg, sigma)
        assert abs(paired) < 0.25 * abs(one_sided), n


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
    from lerchphi.coefficients import log_power_coefficients
    from lerchphi.engines import _branch_log
    from lerchphi.special_kernel import reciprocal_gamma

    p = LerchPoint(-10.0, S34, A03)
    L = _branch_log(p)
    front = reciprocal_gamma(p.s) * cmath.exp(-p.a * L)
    coeffs = log_power_coefficients(p.s, p.a, 31)
    mags = [abs(front * coeffs[m] * L ** (p.s - 1.0 - m)) for m in range(31)]
    low = min(range(31), key=mags.__getitem__)
    assert 0 < low < 6
    assert mags[30] > 1e30 * mags[low]
    assert mags[29] < mags[30]


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
        va = eval_integer_s_large_z(LerchPoint(z, float(S), a), S, 60).value
        v1 = eval_integer_s_large_z(LerchPoint(z, float(S), a + 1.0),
                                    S, 60).value
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
    check(lambda q: eval_integer_s_large_z(q, 2, 50),
          LerchPoint(8.0 + 3.0j, 2.0, 0.4 + 0.2j))
    check(lambda q: eval_integer_s_large_z(q, 1, 50),
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
    main = eval_auto(LerchPoint(-10.0, S34, A03), target_tol=1e-6)
    assert main.engine == "main_theorem"
    assert main.abs_err_estimate <= 1e-6
    assert abs(main.value - 1.0889334) < 2e-6
    ints = eval_auto(LerchPoint(-10.0, 2.0, A03))
    assert ints.engine == "integer_s"
    ref = reference_value(LerchPoint(-10.0, 2.0, A03))
    assert abs(ints.value - ref.value) < 1e-9
    whole = LerchPoint(-10.0, 2.0, 1.0)
    whole_a = eval_auto(whole)
    assert whole_a.engine == "integer_s"
    assert rel_err(whole_a.value, reference_value(whole).value) < 1e-12


def test_auto_needs_no_mpmath():
    # one eval_auto per route in a process where mpmath cannot be
    # imported; the reports must be those of this process
    points = [(0.5, 2.0, 1.0, 1e-10), (cmath.rect(1.4, 0.5), 2.5, 0.7, 1e-10),
              (-10.0, 2.0, A03, 1e-10), (-10.0, 2.0, 1.0, 1e-10),
              (-10.0, S34, A03, 1e-6), (-3.5, S34, A03, 1e-10)]
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
                       "main_theorem", "symmetric_igamma"]


def test_auto_integer_a_falls_back_to_symmetric():
    # integer a poisons the pair coefficients; the pair form is entire
    rep = eval_auto(LerchPoint(-10.0, S34, 2.0))
    assert rep.engine == "symmetric_igamma"
    ref = reference_value(LerchPoint(-10.0, S34, 2.0))
    assert abs(rep.value - ref.value) < 1e-8


def test_auto_symmetric_fallback_and_best_effort():
    # |z| between e and 5 leaves no admissible theorem depth
    rep = eval_auto(LerchPoint(-3.5, S34, A03))
    assert rep.engine == "symmetric_igamma"
    assert not rep.warnings
    assert rep.abs_err_estimate <= 1e-10 * max(1.0, abs(rep.value))
    ref = quad_integral(-3.5, S34, A03)
    assert abs(rep.value - ref.value) < 1e-8
    hard = eval_auto(LerchPoint(-3.5, S34, A03), target_tol=1e-30)
    assert "target-tol-unmet" in hard.warnings


def _ladder_building_every_depth(p, target_tol=1e-10):
    """The large-z part of eval_auto as it reads when every ladder depth
    is built in turn and kept as a candidate."""
    a = p.a
    candidates = []
    n_cap = min(40, int(abs(p.z)) - 1)
    n_depth = max(math.ceil(a.real) + 2, 1)
    while a.real < n_depth <= n_cap:
        try:
            rep = eval_main_theorem(p, n_depth)
        except (DomainError, ConditioningError):
            break
        candidates.append(rep)
        if rep.abs_err_estimate <= target_tol:
            return rep
        n_depth *= 2
    fallback = eval_symmetric_igamma(p, N_max=400, tol=target_tol)
    if (not fallback.warnings and fallback.abs_err_estimate
            <= target_tol * max(1.0, abs(fallback.value))):
        return fallback
    candidates.append(fallback)
    best = min(candidates, key=lambda r: r.abs_err_estimate)
    return EngineReport(best.value, best.abs_err_estimate, best.n_terms,
                        best.m_terms, best.engine,
                        best.warnings + ("target-tol-unmet",))


def test_auto_estimate_first_matches_every_depth_ladder():
    # the dispatcher builds only the accepted depth; its report must be
    # the one of building the whole ladder in order
    def draw(rng):
        z = cmath.rect(math.exp(rng.uniform(1.0, math.log(400.0))),
                       rng.choice((-1.0, 1.0)) * rng.uniform(0.05, math.pi))
        s = complex(rng.uniform(0.1, 6.0), rng.uniform(-6.0, 6.0))
        return LerchPoint(z, s, rng.uniform(0.05, 4.0)), 1e-10

    # at 1e-16 nothing meets the target: the rejected depths (3; 5 and
    # 10) are built after the fallback hits its cap, and the best report
    # is the fallback's in the first point, depth 10's in the second
    unmet = [(LerchPoint(4.2 + 0.4j, 2.5 + 5.0j, 0.58), 1e-16),
             (LerchPoint(5.3 + 10.5j, 0.73 + 5.97j, 2.85), 1e-16)]
    reports = []
    for p, tol in sample(2311, 16, draw) + unmet:
        got = eval_auto(p, target_tol=tol)
        assert got == _ladder_building_every_depth(p, target_tol=tol), p
        reports.append(got)
    assert {r.engine for r in reports} == {"main_theorem", "symmetric_igamma"}
    best = reports[-len(unmet):]
    assert [r.engine for r in best] == ["symmetric_igamma", "main_theorem"]
    assert all("target-tol-unmet" in r.warnings for r in best)
