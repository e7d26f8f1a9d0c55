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
    hurwitz_zeta_block,
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


def test_hurwitz_zeta_complex_second_argument():
    for s, a in [(2.5, 1 + 1j), (-3.5 + 2j, 0.4 - 0.2j), (0.75 + 9j, 2.3 + 0.7j)]:
        expect = complex(mp.zeta(mp.mpc(s), mp.mpc(a)))
        assert rel_err(hurwitz_zeta(s, a), expect) < 1e-11, (s, a)


def test_hurwitz_zeta_block_matches_reference_and_one_value_route():
    # zeta(s - n, a) for n = 0..40 from one block: real and complex a, some
    # with Re a <= 0.5 (the a-shift head), |Im s| up to 8.  The first few n
    # sit on the Euler-Maclaurin route, the rest share one quadrature pass.
    def draw(rng):
        re_a = (rng.uniform(0.05, 0.5) if rng.random() < 0.4
                else rng.uniform(0.5, 4.0))
        im_a = rng.uniform(-1.0, 1.0) if rng.random() < 0.5 else 0.0
        return (complex(rng.uniform(-3.0, 6.0), rng.uniform(-8.0, 8.0)),
                complex(re_a, im_a))

    for s, a in sample(110, 5, draw):
        block = hurwitz_zeta_block(s, a, 41)
        assert len(block) == 41
        # the near-one engine asks for blocks of 16; n = 15/16/17 straddle
        # the edge, and the split block must agree with the long one
        split = hurwitz_zeta_block(s - 16, a, 16)
        for n in (0, 1, 2, 3, 5, 8, 13, 15, 16, 17, 24, 31, 32, 33, 40):
            got = block[n]
            # zeta(s, a) = a^-s + zeta(s, a + 1): mpmath takes seconds at
            # some of these points with Re a < 1, milliseconds past it
            sm, am = mp.mpc(s - n), mp.mpc(a)
            want = complex(am ** -sm + mp.zeta(sm, am + 1))
            assert rel_err(got, want) < 1e-11, (s, a, n)
            one = hurwitz_zeta(s - n, a)
            assert (rel_err(got, one) < 1e-13
                    or rel_err(got, want) <= rel_err(one, want)), (s, a, n)
            if 16 <= n < 32:
                assert rel_err(split[n - 16], got) < 1e-13, (s, a, n)


def test_hurwitz_zeta_block_pole_and_routes():
    # s - n = 1 for n = 2 lies inside a block of 4, not inside one of 2
    with pytest.raises(PoleError):
        hurwitz_zeta_block(3.0, 0.4, 4)
    assert len(hurwitz_zeta_block(3.0, 0.4, 2)) == 2
    # |Im s| > 8: the block keeps hurwitz_zeta's route choice for each n
    s, a = complex(-0.2, 12.0), 0.7
    for n, got in enumerate(hurwitz_zeta_block(s, a, 12)):
        assert rel_err(got, hurwitz_zeta(s - n, a)) < 1e-13, n


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


def test_asymptotic_tail_matches_reference_far_out():
    # One divergent tail serves the large-z engines' log-space terms
    # (scaled, at |Re w| > 600) and the kernel's last route (|w| > 500
    # near the negative axis, where the fraction and the series lose).
    def draw_right(rng):
        s = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
        return s, complex(rng.uniform(600, 4000), rng.uniform(-3000, 3000))

    for s, w in sample(121, 12, draw_right):
        ms, mw = mp.mpc(s), mp.mpc(w)
        expect = complex(mp.gammainc(ms, mw) * mp.exp(mw) * mw ** (1 - ms))
        got = special_kernel._scaled_igamma_asymptotic(s, w)
        assert rel_err(got, expect) < 1e-14, (s, w)

    def draw_axis(rng):
        # |w| < 600 and |Im s| <= 5 keep Gamma(s, w) ~ e^(-w) w^(s-1) finite
        s = complex(rng.uniform(-15, 5), rng.uniform(-5, 5))
        arg = rng.choice((-1.0, 1.0)) * rng.uniform(2.9, math.pi)
        return s, cmath.rect(rng.uniform(500, 600), arg)

    for s, w in sample(122, 12, draw_axis) + [(0.75, -550.0)]:
        expect = complex(mp.gammainc(mp.mpc(s), mp.mpc(w)))
        assert rel_err(upper_incomplete_gamma(s, w), expect) < 1e-12, (s, w)


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
