"""Coefficient families: recurrence, contour cross-check, subtraction."""

import cmath
import math

import mpmath as mp
import pytest

from lerchphi.coefficients import (
    CoefficientTable,
    _alternating_power_sums,
    csc_coefficients,
    csc_coefficients_contour,
    csc_coefficients_subtracted,
    nearest_pole_distance,
)
from lerchphi.errors import ConditioningError

from helpers import rel_err, sample

# 2i * b_0(0.3) = 1/sin(0.3 pi) = golden ratio; frozen from mpmath dps 25
B0_AT_03 = complex(0.0, -0.6180339887498948482)
# (s-1) A_2(a), the comparison expansion's weight of order 1, at s=3/4, a=0.3
LOGPOW_B1 = complex(-2.6624093380331364246, 0.0)


def test_b0_frozen_value():
    t = csc_coefficients(0.3, 1)
    assert abs(t.values[0] - B0_AT_03) <= 1e-15


def test_table_fields():
    t = csc_coefficients(0.3, 4)
    assert t.a == complex(0.3)
    assert t.N == -1
    assert t.method == "recurrence"
    assert isinstance(t.values, tuple) and len(t.values) == 4
    with pytest.raises(Exception):
        t.values = ()


def test_tables_cached_and_deterministic():
    t1 = csc_coefficients(0.37 + 0.11j, 12)
    t2 = csc_coefficients(0.37 + 0.11j, 12)
    assert t1.values is t2.values
    s1 = csc_coefficients_subtracted(0.37, 3, 9)
    s2 = csc_coefficients_subtracted(0.37, 3, 9)
    assert s1.values is s2.values


def test_recurrence_vs_contour_random_a():
    # independent routes; compare per index at the running scale so the
    # check stays meaningful when a symmetry zeroes an entry
    def draw(rng):
        return complex(rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4))

    for a in sample(91, 10, draw):
        rec = csc_coefficients(a, 21).values
        con = csc_coefficients_contour(a, 21)
        for n in range(21):
            scale = max(abs(rec[n]), abs(rec[n - 1]) if n else 0.0, 1e-30)
            assert abs(rec[n] - con[n]) / scale <= 1e-8, (a, n)


def test_contour_small_radius_row():
    # tiny contour still resolves the first few orders
    rec = csc_coefficients(0.3, 9).values
    con = csc_coefficients_contour(0.3, 9, radius=0.05)
    for n in range(2, 9):
        assert abs(rec[n] - con[n]) / abs(rec[n]) <= 1e-9


def test_half_integer_a_kills_odd_orders():
    # at a = 1/2 the generating function is even in t
    vals = csc_coefficients(0.5, 21).values
    for k in range(10):
        scale = max(abs(vals[2 * k]), abs(vals[2 * k + 2]))
        assert abs(vals[2 * k + 1]) <= 1e-13 * scale


def test_shift_symmetries():
    a = 0.3 + 0.2j
    base = csc_coefficients(a, 15).values
    per = csc_coefficients(a + 2.0, 15).values
    anti = csc_coefficients(a + 1.0, 15).values
    for n in range(15):
        s = max(abs(base[n]), 1.0)
        assert abs(per[n] - base[n]) <= 1e-12 * s
        assert abs(anti[n] + base[n]) <= 1e-12 * s


def test_subtracted_dual_path():
    # the direct path reconstructs a value ~ (dist/(N+1-a))^(n+1) times
    # smaller than its inputs, so its noise floor is ulp(|b_n|); the two
    # methods can only be expected to agree at the unsubtracted scale
    base = csc_coefficients(0.3, 31).values
    for N in (1, 5, 10):
        st = csc_coefficients_subtracted(0.3, N, 31, "stable-zeta").values
        di = csc_coefficients_subtracted(0.3, N, 31, "direct-sum").values
        for n in range(31):
            assert abs(st[n] - di[n]) <= 1e-10 * max(abs(base[n]), 1.0)


def test_subtracted_small_orders_strict():
    # where the collapse is mild the two paths agree in their own terms
    st = csc_coefficients_subtracted(0.3, 1, 4, "stable-zeta").values
    di = csc_coefficients_subtracted(0.3, 1, 4, "direct-sum").values
    for n in range(4):
        assert abs(st[n] - di[n]) / abs(st[n]) <= 1e-12


def test_subtraction_consistency():
    # stable tail minus the unsubtracted coefficient must reproduce the
    # finite alternating pole sum; every piece here is O(|b_n|) so the
    # comparison carries full precision
    a, N = 0.3, 5
    base = csc_coefficients(a, 11).values
    st = csc_coefficients_subtracted(a, N, 11, "stable-zeta").values
    c = 0.5j / math.pi
    for n in range(11):
        re, im = [], []
        for m in range(-N, N + 1):
            t = c * (-1.0 if m % 2 else 1.0) * complex(a + m) ** (-(n + 1))
            re.append(t.real)
            im.append(t.imag)
        finite = complex(math.fsum(re), math.fsum(im))
        lhs = st[n] - base[n]
        assert abs(lhs - finite) <= 1e-11 * max(abs(base[n]), 1.0)


def test_subtracted_table_at_zero_holds_the_polylog_constants():
    # at a = 0, N = 0 the table is (pi t / sin(pi t) - 1) / (-2 pi i t):
    # -2 pi i b_(j-1,0)(0) is 2 eta(j) at even j and 0 at odd j, the
    # constants of the polylogarithm's branch part in the integer-s closed
    # form (eval_integer_s_large_z).  Within 2 ulps on every Python
    # version: math.fsum adds the alternating sums' ~220 direct terms
    b = csc_coefficients_subtracted(0.0, 0, 200).values
    for j in range(1, 201):
        h = -2j * math.pi * b[j - 1]
        if j % 2:
            assert h == 0.0, j
        else:
            with mp.workdps(30):
                want = float(2 * mp.altzeta(j))
            assert abs(h - want) <= 2.0 * math.ulp(want), j


def test_stable_path_against_mpmath():
    # recompute the zeta/digamma blocks in 40-digit arithmetic
    mp.mp.dps = 40
    a = mp.mpf("0.3")
    for N, n in ((1, 0), (5, 7), (5, 30), (10, 15)):
        got = csc_coefficients_subtracted(0.3, N, n + 1).values[n]
        p = n + 1
        if p == 1:
            blk = lambda x: (mp.digamma((x + 1) / 2) - mp.digamma(x / 2)) / 2
            blocks = blk(a + N + 1) - blk(N + 1 - a)
        else:
            blk = lambda x: mp.mpf(2) ** -p * (mp.zeta(p, x / 2)
                                               - mp.zeta(p, (x + 1) / 2))
            blocks = blk(a + N + 1) + (-1) ** p * blk(N + 1 - a)
        want = complex(mp.mpc(0, 0.5) / mp.pi * (-1) ** N * blocks)
        assert abs(got - want) / abs(want) <= 1e-12, (N, n)
    mp.mp.dps = 30


def _alternating_power_sum_mp(x, p):
    # sum_k (-1)^k (x + k)^(-p), split into even and odd k
    x = mp.mpc(x)
    if p == 1:
        return (mp.digamma((x + 1) / 2) - mp.digamma(x / 2)) / 2
    return mp.mpf(2) ** -p * (mp.zeta(p, x / 2) - mp.zeta(p, (x + 1) / 2))


def test_alternating_power_sums_against_mpmath():
    # both anchors N+1 +/- a of the subtracted tables, seeded real and
    # complex a, depths 1..40, table sizes up to the cap of 200
    def draw(rng):
        im = rng.uniform(-1.0, 1.0) if rng.random() < 0.5 else 0.0
        a = complex(rng.uniform(0.05, 4.0), im)
        N = rng.randint(max(1, math.floor(a.real)), 40)
        count = rng.choice((1, 8, 30, 90, 200))
        return a, N, count, rng.randint(1, count)

    cases = sample(47, 14, draw) + [(1.619, 24, 20, 20), (0.113, 6, 40, 17),
                                    (0.7 + 0.4j, 40, 200, 200)]
    for a, N, count, extra in cases:
        orders = {1, 2, 3, (count + 1) // 2, count, extra}
        for x in (N + 1.0 + a, N + 1.0 - a):
            got = _alternating_power_sums(complex(x), count)
            assert len(got) == count
            for p in sorted(o for o in orders if o <= count):
                want = complex(_alternating_power_sum_mp(x, p))
                if abs(want) < 1e-290:
                    continue  # the double result is subnormal or zero
                assert rel_err(got[p - 1], want) <= 1e-13, (a, N, count, p)


def test_subtracted_tail_law():
    # after stripping N pole pairs the nearest survivor at a - N - 1
    # controls the decay; its residue fixes the scaled limit
    for N in (1, 5):
        vals = csc_coefficients_subtracted(0.3, N, 61).values
        target = complex(0.0, (-1.0 if N % 2 else 1.0) / (2.0 * math.pi))
        for n in range(40, 61):
            scaled = vals[n] * complex(0.3 - N - 1.0) ** (n + 1)
            assert abs(scaled - target) / abs(target) <= 0.02, (N, n)


def test_nearest_pole_distance():
    assert nearest_pole_distance(0.3) == pytest.approx(0.3)
    assert nearest_pole_distance(2.7) == pytest.approx(0.3)
    assert nearest_pole_distance(-1.6 + 0.3j) == pytest.approx(abs(0.4 + 0.3j))
    with pytest.raises(ConditioningError):
        nearest_pole_distance(4.0)


def test_conditioning_guards():
    with pytest.raises(ConditioningError):
        csc_coefficients(1e-9, 40)  # growth ~ 1e9 per order blows the cap
    with pytest.raises(ConditioningError):
        csc_coefficients(1.0, 3)
    with pytest.raises(ConditioningError):
        csc_coefficients_subtracted(2.5, 1, 5)  # removed poles miss origin


def test_argument_validation():
    with pytest.raises(ValueError):
        csc_coefficients(0.3, 0)
    with pytest.raises(ValueError):
        csc_coefficients(0.3, 201)
    with pytest.raises(ValueError):
        csc_coefficients_subtracted(0.3, -1, 5)
    with pytest.raises(ValueError):
        csc_coefficients_subtracted(0.3, 2, 5, method="other")


def test_log_power_first_weights():
    # the comparison expansion's weights (s-1)...(s-m) A_(m+1)(a)
    got = (0.75 - 1.0) * _alternating_power_sums(0.3 + 0.0j, 2)[1]
    assert abs(got - LOGPOW_B1) <= 1e-13 * abs(LOGPOW_B1)
    # at a = 1 the alternating sum is 1 - 1/2 + 1/3 - ... = log 2
    lead = _alternating_power_sums(1.0 + 0.0j, 1)[0]
    assert abs(lead - math.log(2.0)) <= 1e-14
