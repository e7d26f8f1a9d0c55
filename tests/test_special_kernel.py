"""Scalar special-function layer: reference comparisons and exact identities."""

import cmath
import math

import mpmath as mp
import pytest

from helpers import rel_err, sample
from lerchphi import special_kernel
from lerchphi.errors import (AccuracyError, ConditioningError, DomainError,
                             PoleError)
from lerchphi.special_kernel import (
    BranchedLog,
    digamma,
    gamma,
    gamma_star,
    gauss_2f1_unit_b,
    hurwitz_zeta,
    log_gamma,
    log_neg_z,
    reciprocal_gamma,
    signed_pi,
    upper_incomplete_gamma,
)

# reference values computed with mpmath at 30 significant digits
GAMMA_3_4 = 1.2254167024651776451
PSI_1 = -0.57721566490153286061
LOG_NEG_TABLE_Z = complex(2.3025855929937956842, -3.1405926539231263718)
F21_5_25 = 0.85146239548967630268
IGAMMA_NEG_AXIS = complex(12.7966577373971, -11.5712410349319)


# ---------------------------------------------------------------------------
# gamma family


def test_gamma_known_values():
    assert rel_err(gamma(0.5), math.sqrt(math.pi)) < 1e-14
    assert rel_err(gamma(0.75), GAMMA_3_4) < 1e-14
    assert rel_err(gamma(5.0), 24.0) < 1e-14
    assert rel_err(gamma(-1.5), 4.0 * math.sqrt(math.pi) / 3.0) < 1e-13


def test_gamma_matches_reference_on_disk():
    def draw(rng):
        while True:
            s = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if abs(s) > 50:
                continue
            if s.real < 0.5 and abs(s - round(s.real)) < 0.1:
                continue
            return s

    for s in sample(101, 60, draw):
        expect = complex(mp.gamma(mp.mpc(s)))
        assert rel_err(gamma(s), expect) < 1e-13, s


def test_gamma_poles_raise():
    for p in (0, -1, -7):
        with pytest.raises(PoleError) as info:
            gamma(complex(p))
        assert info.value.pole == p


def test_gamma_reflection_identity():
    def draw(rng):
        while True:
            s = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(s.real - round(s.real)) > 0.05 or abs(s.imag) > 0.05:
                return s

    for s in sample(102, 50, draw):
        prod = gamma(s) * gamma(1.0 - s) * cmath.sin(cmath.pi * s) / cmath.pi
        assert rel_err(prod, 1.0) < 5e-13, s


def test_gamma_recurrence_identity():
    def draw(rng):
        while True:
            s = complex(rng.uniform(-49, 49), rng.uniform(-49, 49))
            if abs(s) <= 49 and abs(s - round(s.real)) > 0.1:
                return s

    for s in sample(103, 50, draw):
        assert rel_err(gamma(s + 1.0), s * gamma(s)) < 1e-12, s


def test_reciprocal_gamma_entire():
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-4.0) == 0.0
    for s in sample(104, 50, lambda rng: complex(rng.uniform(-20, 20),
                                                 rng.uniform(0.2, 20))):
        assert rel_err(reciprocal_gamma(s) * gamma(s), 1.0) < 1e-12, s
    # at the edges of the double range: Gamma(170.5) ~ 6e305 and
    # Gamma(-169.5) ~ 6e-306
    for s in (170.5, -169.5):
        want = complex(mp.rgamma(s))
        assert rel_err(reciprocal_gamma(s), want) < 1e-13, s


def test_log_gamma_exponentiates_to_gamma():
    pts = [3.7, 0.25, complex(2, 5), complex(-4.3, 0.8),
           complex(11.0, -11.0), complex(-0.75, -0.01)]
    for s in pts:
        assert rel_err(cmath.exp(log_gamma(s)), gamma(s)) < 1e-13, s


# ---------------------------------------------------------------------------
# digamma


def test_digamma_known_values():
    assert rel_err(digamma(1.0), PSI_1) < 1e-13
    assert rel_err(digamma(0.5), PSI_1 - 2.0 * math.log(2.0)) < 1e-13
    assert rel_err(digamma(2.0), 1.0 + PSI_1) < 1e-13


def test_digamma_matches_reference():
    def draw(rng):
        while True:
            a = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
            if abs(a) > 100:
                continue
            if a.real < 0.5 and abs(a - round(a.real)) < 0.1:
                continue
            return a

    for a in sample(105, 50, draw):
        assert rel_err(digamma(a), complex(mp.digamma(mp.mpc(a)))) < 1e-12, a


def test_digamma_recurrence_identity():
    for a in sample(106, 50, lambda rng: complex(rng.uniform(0.1, 30),
                                                 rng.uniform(-30, 30))):
        assert abs(digamma(a + 1.0) - digamma(a) - 1.0 / a) < 1e-12 * max(
            1.0, abs(digamma(a))), a


def test_digamma_reflection_identity():
    def draw(rng):
        while True:
            a = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if abs(a.real - round(a.real)) > 0.1 or abs(a.imag) > 0.1:
                return a

    for a in sample(107, 50, draw):
        lhs = digamma(1.0 - a) - digamma(a)
        rhs = cmath.pi / cmath.tan(cmath.pi * a)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs)), a


def test_digamma_poles_raise():
    for p in (0, -3):
        with pytest.raises(PoleError):
            digamma(complex(p))


# ---------------------------------------------------------------------------
# Hurwitz zeta


def test_hurwitz_zeta_known_values():
    assert rel_err(hurwitz_zeta(2.0, 1.0), math.pi ** 2 / 6.0) < 1e-13
    assert rel_err(hurwitz_zeta(-1.0, 1.0), -1.0 / 12.0) < 1e-12
    # s = 0 and s = -1 have elementary closed forms in a
    for a in (0.3, 1.7, 12.5):
        assert rel_err(hurwitz_zeta(0.0, a), 0.5 - a) < 1e-12
        assert rel_err(hurwitz_zeta(-1.0, a),
                       -0.5 * (a * a - a + 1.0 / 6.0)) < 1e-12


def test_hurwitz_zeta_pole_and_domain():
    with pytest.raises(PoleError) as info:
        hurwitz_zeta(1.0, 0.3)
    assert info.value.pole == 1
    for a in (0.0, -2.0):
        with pytest.raises(DomainError):
            hurwitz_zeta(2.5, a)


def test_hurwitz_zeta_matches_reference():
    # documented domain: |s| <= 30 with Re s >= -0.5, or |Im s| <= 8
    def draw(rng):
        while True:
            if rng.random() < 0.5:
                s = complex(rng.uniform(-0.5, 30), rng.uniform(-30, 30))
            else:
                s = complex(rng.uniform(-30, 30), rng.uniform(-8, 8))
            if abs(s) > 30 or abs(s - 1.0) < 0.05:
                continue
            a = 10 ** rng.uniform(-1, 1.4)
            return s, a

    for s, a in sample(108, 60, draw):
        expect = complex(mp.zeta(mp.mpc(s), mp.mpf(a)))
        assert rel_err(hurwitz_zeta(s, a), expect) < 1e-11, (s, a)
    # the corner Re s < -0.5, |Im s| > 8 takes the route with the smaller
    # predicted loss; the last point is outside the 1e-11 contract
    for s, a, by_integral, bound in ((-3 + 12j, 0.7, False, 2e-12),
                                     (-20 + 9j, 1.1, True, 1e-14),
                                     (-10 - 15j, 2.3, False, 1e-6)):
        assert special_kernel._zeta_by_integral(s, a) == by_integral
        with mp.workdps(40):
            expect = complex(mp.zeta(mp.mpc(s), mp.mpf(a)))
        assert rel_err(hurwitz_zeta(s, a), expect) < bound, (s, a)


def test_hurwitz_zeta_far_left():
    # t_max = 138.55 on the integral route, past where e^(2 pi t) leaves
    # the double range
    expect = complex(mp.zeta(-120.5, 0.3))
    assert rel_err(hurwitz_zeta(-120.5, 0.3), expect) < 1e-13


def test_hurwitz_zeta_complex_second_argument():
    for s, a in [(2.5, 1 + 1j), (-3.5 + 2j, 0.4 - 0.2j), (0.75 + 9j, 2.3 + 0.7j)]:
        expect = complex(mp.zeta(mp.mpc(s), mp.mpc(a)))
        assert rel_err(hurwitz_zeta(s, a), expect) < 1e-11, (s, a)


def test_hurwitz_zeta_shifted_orders_match_reference():
    # zeta(s - n, a) for n up to 40, as the near-one engine asks for them:
    # real and complex a, some with Re a <= 0.5 (the a-step head), |Im s|
    # up to 8.  The first few n sit on the Euler-Maclaurin route, the
    # rest on the integral route.
    def draw(rng):
        re_a = (rng.uniform(0.05, 0.5) if rng.random() < 0.4
                else rng.uniform(0.5, 4.0))
        im_a = rng.uniform(-1.0, 1.0) if rng.random() < 0.5 else 0.0
        return (complex(rng.uniform(-3.0, 6.0), rng.uniform(-8.0, 8.0)),
                complex(re_a, im_a))

    for s, a in sample(110, 5, draw):
        for n in (0, 1, 2, 3, 5, 8, 13, 15, 16, 17, 24, 31, 32, 33, 40):
            # zeta(s, a) = a^-s + zeta(s, a + 1): mpmath takes seconds at
            # some of these points with Re a < 1, milliseconds past it
            sm, am = mp.mpc(s - n), mp.mpc(a)
            want = complex(am ** -sm + mp.zeta(sm, am + 1))
            assert rel_err(hurwitz_zeta(s - n, a), want) < 1e-11, (s, a, n)


def test_hurwitz_zeta_shift_identity():
    def draw(rng):
        while True:
            s = complex(rng.uniform(-20, 20), rng.uniform(-8, 8))
            if abs(s - 1.0) > 0.1:
                a = rng.uniform(0.05, 20)
                return s, a

    for s, a in sample(109, 50, draw):
        lhs = hurwitz_zeta(s, a)
        rhs = hurwitz_zeta(s, a + 1.0) + complex(a) ** (-complex(s))
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) / scale < 1e-10, (s, a)


# ---------------------------------------------------------------------------
# branch bookkeeping


def test_signed_pi_sides():
    assert signed_pi("above") == -math.pi
    assert signed_pi("below") == math.pi
    with pytest.raises(ValueError):
        signed_pi("sideways")


def test_log_neg_z_off_cut():
    got = log_neg_z(complex(10.0, 0.01))
    assert got.side == "off-cut"
    assert abs(got.value - LOG_NEG_TABLE_Z) < 1e-15 * abs(LOG_NEG_TABLE_Z)
    got = log_neg_z(-5.0)
    assert got.side == "off-cut"
    assert abs(got.value - math.log(5.0)) < 1e-15


def test_log_neg_z_on_cut_sides():
    up = log_neg_z(10.0, side="above")
    dn = log_neg_z(10.0, side="below")
    assert up.side == "above-cut" and dn.side == "below-cut"
    assert abs(up.value - complex(math.log(10.0), -math.pi)) < 1e-15
    assert abs(dn.value - complex(math.log(10.0), math.pi)) < 1e-15


def test_log_neg_z_matches_one_sided_limits():
    for x in (1.5, 10.0, 4000.0):
        up = log_neg_z(x, side="above").value
        dn = log_neg_z(x, side="below").value
        assert abs(up - log_neg_z(complex(x, 1e-12)).value) < 1e-11
        assert abs(dn - log_neg_z(complex(x, -1e-12)).value) < 1e-11


def test_log_neg_z_rejects_origin():
    with pytest.raises(DomainError):
        log_neg_z(0.0)


# ---------------------------------------------------------------------------
# upper incomplete gamma


def test_igamma_known_values():
    # negative real w sits on the branch cut; the kernel takes arg w = +pi
    got = upper_incomplete_gamma(0.75, -3.0)
    assert rel_err(got, IGAMMA_NEG_AXIS) < 1e-12
    w = complex(2.0, -3.0)
    assert rel_err(upper_incomplete_gamma(1.0, w), cmath.exp(-w)) < 1e-13
    for x in (0.3, 2.0, 9.0):
        expect = math.sqrt(math.pi) * math.erfc(math.sqrt(x))
        assert rel_err(upper_incomplete_gamma(0.5, x), expect) < 1e-12
    assert rel_err(upper_incomplete_gamma(3.5, 0.0), gamma(3.5)) < 1e-14
    with pytest.raises(DomainError):
        upper_incomplete_gamma(-0.5, 0.0)


def test_igamma_matches_reference_grid():
    svals = [0.75, -2.05, complex(2, -3), -5.1, 10.0, -17.9, complex(0.3, -4)]
    worst = 0.0
    for s in svals:
        for r in (0.4, 3.0, 12.0, 41.0, 160.0):
            for ang in (0.0, 1.0, 1.6, 2.4, 2.9, math.pi):
                w = r * cmath.exp(1j * ang)
                expect = complex(mp.gammainc(mp.mpc(s), mp.mpc(w)))
                err = rel_err(upper_incomplete_gamma(s, w), expect)
                worst = max(worst, err)
                assert err < 1e-11, (s, w)
    assert worst < 1e-11


def test_igamma_recurrence_identity():
    def draw(rng):
        while True:
            s = complex(rng.uniform(-18, 18), rng.uniform(-18, 18))
            if abs(s) > 19 or abs(s - round(s.real)) < 0.3:
                continue
            if abs(s + 1 - round(s.real + 1)) < 0.3:
                continue
            w = cmath.rect(10 ** rng.uniform(-0.5, 2.2),
                           rng.uniform(-math.pi, math.pi))
            return s, w

    for s, w in sample(110, 60, draw):
        lhs = upper_incomplete_gamma(s + 1.0, w)
        t1 = s * upper_incomplete_gamma(s, w)
        t2 = cmath.exp(s * cmath.log(w) - w)
        scale = max(abs(lhs), abs(t1), abs(t2))
        assert abs(lhs - t1 - t2) / scale < 1e-10, (s, w)


def test_igamma_conjugate_symmetry():
    def draw(rng):
        s = complex(rng.uniform(-15, 15), rng.uniform(0.2, 15))
        w = cmath.rect(10 ** rng.uniform(-0.5, 2.0), rng.uniform(0.1, 3.0))
        return s, w

    for s, w in sample(111, 50, draw):
        a = upper_incomplete_gamma(s, w)
        b = upper_incomplete_gamma(s.conjugate(), w.conjugate())
        assert abs(a - b.conjugate()) <= 1e-14 * abs(a), (s, w)


def test_igamma_series_cap_raises_accuracy_error(monkeypatch):
    monkeypatch.setattr(special_kernel, "_IGAMMA_SERIES_CAP", 3)
    with pytest.raises(AccuracyError) as info:
        upper_incomplete_gamma(0.75, 3.0)
    assert info.value.achieved > 0.0


def test_overflow_past_the_double_range_is_a_conditioning_error():
    # Re w below about -709 near the negative axis: Gamma(s, w) ~ e^(-w)
    # is past the double range, and both functions say so with the
    # package's own error type, which the CLI maps to an exit code
    s, w = 14.86 - 8.72j, -816.6 + 17.0j
    with pytest.raises(ConditioningError):
        upper_incomplete_gamma(s, w)
    with pytest.raises(ConditioningError):
        gamma_star(s, w)
    # Gamma(200.5) ~ 1e373 and 1/Gamma(-200.5) ~ 1e375; 1/Gamma(175.5)
    # ~ 1e-317 would keep 8 digits as a subnormal, 1/Gamma(200.5) none
    with pytest.raises(ConditioningError):
        gamma(200.5)
    for s in (-200.5, 175.5, 200.5):
        with pytest.raises(ConditioningError):
            reciprocal_gamma(s)
    # zeta(-300.5, 0.3) ~ e^865, its integral route's integrand with it
    with pytest.raises(ConditioningError):
        hurwitz_zeta(-300.5, 0.3)


def test_asymptotic_tail_matches_reference_far_out():
    # the scaled asymptotic tail by itself, far out in the right
    # half-plane (the kernel takes it only near the negative axis, below)
    def draw_right(rng):
        s = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
        return s, complex(rng.uniform(600, 4000), rng.uniform(-3000, 3000))

    for s, w in sample(121, 12, draw_right):
        ms, mw = mp.mpc(s), mp.mpc(w)
        expect = complex(mp.gammainc(ms, mw) * mp.exp(mw) * mw ** (1 - ms))
        got = special_kernel._scaled_igamma_asymptotic(s, w)[0]
        assert rel_err(got, expect) < 1e-14, (s, w)


def test_igamma_asymptotic_zone_near_the_negative_axis():
    # |arg w| > 2.65 and |w| > 45 + 2.5 max(0, -Re s) take the divergent
    # tail, where the subtracted series would cost O(|w|) terms, when the
    # tail can reach 1e-13
    def draw(rng):
        while True:
            s = cmath.rect(rng.uniform(0.0, 20.0), rng.uniform(-math.pi,
                                                                math.pi))
            floor = 45.0 + 2.5 * max(0.0, -s.real)
            arg = rng.choice((-1.0, 1.0)) * rng.uniform(2.65, math.pi)
            w = cmath.rect(rng.uniform(floor, 600.0), arg)
            # keep e^(-w) w^(s-1) inside the double range
            if abs(w) > floor and ((s - 1.0) * cmath.log(w) - w).real < 700:
                return s, w

    # just below the floor the subtracted series still serves
    below = [(0.75, -44.9 + 0.0j), (-4.0 + 1.5j, cmath.rect(54.5, 2.8))]
    # above it, but the tail's terms grow at first (s = 60) or the Stokes
    # term it leaves out is ~1e-5 of the value (|Im s| = 20): the series
    declined = [(60.0, -50.0), (20j, -46.0), (0.5 + 20j, -46.2)]
    # past Re s = -171, where 1/Gamma(1-s) of the Stokes term leaves the
    # double range while the term itself stays tiny: the tail serves
    far = [(-192.28 + 0j, -988.59 + 109.79j),
           (-179.61 - 2.46j, -1308.39 - 44.95j)]
    for s, w in (sample(122, 30, draw) + [(0.75, -550.0)] + below
                 + declined + far):
        expect = complex(mp.gammainc(mp.mpc(s), mp.mpc(w)))
        assert rel_err(upper_incomplete_gamma(s, w), expect) < 1e-12, (s, w)


def test_igamma_error_bound_is_honest_on_every_route(monkeypatch):
    # _upper_incomplete_gamma_and_err returns the value of
    # upper_incomplete_gamma, bit for bit, and a bound on its error taken
    # from the route it ran; checked against mpmath at 30 digits on
    # seeded draws that reach all five routes (one in five with s within
    # 0.25 of a gamma pole), and at pinned points: where the recurrence
    # gauge that the Abel-Plana engine used before fell 2% short
    # (pole-adjacent), the Abel-Plana band point (z, s, a) =
    # (-0.28867+0.95968i, 2.05279+0.21746i, 1.17260) as Gamma(1-s, -a ln z),
    # two points outside the stated domain (|Im s| ~ 50) where the
    # fraction settles before it takes in the Stokes term, 3.8e-9 and
    # 3.1e-11 relative off, and two where w^s alone leaves the normal
    # range (e^-1114.5 and e^-723.9) while the value, near 1e-304 and
    # 3e-300, does not: formed as w^s, the first came out -0 with a bound
    # of 0 and the second 7e-10 relative off against a bound of 1.7e-12;
    # and three with Re s > |w| > 30, where the continued fraction
    # settled 0.63, 1.0 and 2.5e-7 relative off against bounds under
    # 1e-12 of the value, and the ascending series now serves; and two
    # pole joins past m = 170, where 1/m! as a float left the range
    routes = set()
    for name in ("_igamma_kummer", "_igamma_gseries",
                 "_igamma_continued_fraction", "_igamma_tail"):
        def spy(*args, _route=getattr(special_kernel, name), _name=name):
            # the g-series with a pole index m is the pole join
            if _name == "_igamma_gseries" and args[2:] not in ((), (None,)):
                _name = "pole join"
            routes.add(_name)
            return _route(*args)
        monkeypatch.setattr(special_kernel, name, spy)

    def draw(rng):
        if rng.random() < 0.2:
            s = (-rng.randint(0, 8)
                 + cmath.rect(rng.uniform(0.0, 0.25), rng.uniform(-3.2, 3.2)))
        else:
            s = complex(rng.uniform(-12.0, 12.0), rng.uniform(-8.0, 8.0))
        return s, cmath.rect(10 ** rng.uniform(-1.0, 2.5),
                             rng.uniform(-math.pi, math.pi))

    z, s, a = -0.28867 + 0.95968j, 2.05279 + 0.21746j, 1.17260
    pinned = [(-1.0528 - 0.2175j, -0.00253 - 2.1845j),
              (1.0 - s, -a * cmath.log(z)),
              (-1.74 - 57.35j, -88.54 - 41.65j),
              (-22.93 + 50.39j, -103.23 + 46.18j),
              (-188.2463 + 7.2879j, -420.7289 - 2.8302j),
              (-194.19 - 3.28j, -39.39 - 2.70j),
              (90.49 + 14.82j, 46.09 + 17.76j),
              (160.08 + 6.93j, 29.69 - 53.15j),
              (70.13 - 23.81j, -25.80 - 37.95j),
              (-199.87 + 0.05j, -24.3 + 3.1j),
              (-171.8, -3.0 + 0.5j)]
    for s, w in sample(131, 150, draw) + pinned:
        value, bound = special_kernel._upper_incomplete_gamma_and_err(s, w)
        assert value == upper_incomplete_gamma(s, w)
        with mp.workdps(30):
            expect = complex(mp.gammainc(mp.mpc(s), mp.mpc(w)))
        assert abs(value - expect) <= bound, (s, w)
    assert routes == {"_igamma_kummer", "_igamma_gseries", "pole join",
                      "_igamma_continued_fraction", "_igamma_tail"}


# ---------------------------------------------------------------------------
# regularized-ratio form (entire in s)


def test_gamma_star_monomial_at_nonpositive_integers():
    def draw(rng):
        return cmath.rect(10 ** rng.uniform(-2, 1.5),
                          rng.uniform(-math.pi, math.pi))

    for m in range(6):
        for w in sample(112 + m, 10, draw):
            assert rel_err(gamma_star(float(-m), w), w ** m) < 5e-13, (m, w)
    # route seam: |w| > 8 goes through the subtraction form
    w = 25.0 * cmath.exp(2.8j)
    assert rel_err(gamma_star(-6.0, w), w ** 6) < 1e-12


def test_gamma_star_at_zero_argument():
    assert rel_err(gamma_star(2.5, 0.0), reciprocal_gamma(3.5)) < 1e-14
    assert gamma_star(-3.0, 0.0) == reciprocal_gamma(-2.0) == 0.0


def test_gamma_star_recurrence_identity():
    def draw(rng):
        s = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        w = cmath.rect(10 ** rng.uniform(-1, 1.5),
                       rng.uniform(-math.pi, math.pi))
        return s, w

    for s, w in sample(113, 50, draw):
        lhs = gamma_star(s, w)
        t1 = w * gamma_star(s + 1.0, w)
        t2 = cmath.exp(-w) * reciprocal_gamma(s + 1.0)
        scale = max(abs(lhs), abs(t1), abs(t2))
        assert abs(lhs - t1 - t2) / scale < 5e-11, (s, w)


def test_gamma_star_matches_reference():
    pts = [(0.75, 3.0), (complex(2, -3), complex(-6, 1)), (-1.5, -9.0),
           (5.5, -40.0), (complex(-0.25, 7), 2j), (0.75, 180.0),
           (-2.0000000001, 0.4)]
    for s, w in pts:
        ms, mw = mp.mpc(s), mp.mpc(w)
        expect = complex(mp.gammainc(ms, 0, mw) / (mp.gamma(ms) * mw ** ms))
        assert rel_err(gamma_star(s, w), expect) < 5e-12, (s, w)
    # far out in the right half-plane gamma_star is about w^(-s): its
    # exponent w - s ln w rounds like |w|, which the kernel takes back
    for s, w in ((0.75, 2000.0), (complex(2.5, 1), complex(1500, 300)),
                 (-3.0, 2000.0)):
        with mp.workdps(40):
            ms, mw = mp.mpc(s), mp.mpc(w)
            expect = complex((1 - mp.gammainc(ms, mw) * mp.rgamma(ms))
                             * mw ** -ms)
        assert rel_err(gamma_star(s, w), expect) < 4e-15, (s, w)


# ---------------------------------------------------------------------------
# Gauss 2F1 with unit numerator parameter


def test_gauss_2f1_reference_value():
    assert rel_err(gauss_2f1_unit_b(5.25, 6.0, -0.2), F21_5_25) < 1e-13


def test_gauss_2f1_elementary_rows():
    for x in (0.5, -0.7, 0.3j):
        got = gauss_2f1_unit_b(1.0, 2.0, x)
        assert rel_err(got, -cmath.log(1.0 - x) / x) < 1e-13, x
        got = gauss_2f1_unit_b(3.25, 3.25, x)
        assert rel_err(got, 1.0 / (1.0 - x)) < 1e-13, x
