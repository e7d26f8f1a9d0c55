"""Reference oracle: quadrature route, high-precision routes, routing."""

import ast
import cmath
import math
from fractions import Fraction

import mpmath as mp
import pytest

import lerchphi.oracle

from lerchphi._types import LerchPoint
from lerchphi.engines import eval_abel_plana, eval_symmetric_igamma
from lerchphi.errors import DomainError
from lerchphi.oracle import (
    ReferenceValue,
    hp_continuation,
    hp_series,
    quad_integral,
    reference_value,
)

from helpers import lerch_transformation, sample

# frozen from mpmath at 25 digits before the module was written
PHI_HALF_2_1 = 1.1644810529300250118
TABLE_Z_10I = complex(0.981252490003, 0.548641162899)
# one-sided continuation values at z = 10 + 1e-6j (above) and conjugate
CUT_ABOVE_EPS6 = complex(0.524840789287, 1.04306685763)


def test_quad_at_z_zero():
    r = quad_integral(0.0, 0.75, 0.3)
    assert r.method == "quadrature"
    assert abs(r.value - 0.3 ** -0.75) <= 1e-11
    assert r.accepted


def test_quad_alternating_basel():
    r = quad_integral(-1.0, 2.0, 1.0)
    assert abs(r.value - math.pi ** 2 / 12.0) <= 1e-12


def test_quad_matches_series_point():
    q = quad_integral(0.5, 2.5, 1.7)
    h = hp_series(0.5, 2.5, 1.7)
    assert abs(q.value - h.value) <= 1e-11


def test_quad_domain_guards():
    with pytest.raises(DomainError):
        quad_integral(2.0, 0.75, 0.3)  # pole on the path
    with pytest.raises(DomainError):
        quad_integral(1.0, 0.75, 0.3)
    with pytest.raises(DomainError):
        quad_integral(-5.0, -0.5, 0.3)
    with pytest.raises(DomainError):
        quad_integral(-5.0, 0.75, -0.3)


def test_quad_meets_its_bar_at_small_re_s():
    # small Re s, where most of the integral sits in the x^(s-1) peak at
    # 0, and large |Im s|, where x^(s-1) turns without end there: both
    # quad_integral and reference_value (which routes these points to
    # it) must lie within their bars of mpmath's lerchphi at 40 digits
    points = ((-5.0, 0.3, 0.3), (-1.5 + 0.5j, 0.2, 0.3), (0.97j, 0.1, 0.3),
              (-1.2211 - 0.0552j, 0.3033 - 7.4971j, 3.6152),
              (-0.9196 + 0.2875j, 0.2956 + 1.9303j, 3.0624 + 0.4478j))
    for z, s, a in points:
        with mp.workdps(40):
            want = complex(mp.lerchphi(z, s, a))
        for ref in (quad_integral(z, s, a),
                    reference_value(LerchPoint(z, s, a))):
            assert ref.method == "quadrature" and ref.accepted, (z, s, a)
            assert abs(ref.value - want) <= ref.err_bar, (z, s, a)


def test_oracle_shares_no_module_with_the_engines():
    # of the package the oracle may import the point type and the errors
    # only: its arithmetic is its own and mpmath's
    with open(lerchphi.oracle.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                imported.add(node.module)
            elif node.module.split(".")[0] == "lerchphi":
                imported.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[2]
                            for alias in node.names
                            if alias.name.split(".")[0] == "lerchphi")
    assert imported <= {"_types", "errors"}


def test_quad_vs_series_random_cloud():
    def draw(rng):
        r = 0.9 * rng.random()
        return (r * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(0.5, 3.0), rng.uniform(-1, 1)),
                rng.uniform(0.5, 3.0))

    for z, s, a in sample(17, 25, draw):
        q = quad_integral(z, s, a)
        h = hp_series(z, s, a)
        assert abs(q.value - h.value) <= 1e-10, (z, s, a)


def test_series_frozen_value():
    r = hp_series(0.5, 2.0, 1.0)
    assert r.method == "hp_series"
    assert abs(r.value - PHI_HALF_2_1) <= 1e-13
    assert r.accepted
    assert abs(hp_series(0.0, 1.3, 0.7).value - 0.7 ** -1.3) <= 1e-14


def _series_120_digits(z, s, a):
    # the defining series at 120 digits, until a term is 1e-110 of the
    # largest one
    with mp.workdps(120):
        zm, sm, am = mp.mpc(z), mp.mpc(s), mp.mpc(a)
        total, big, zp, n = mp.mpc(0), mp.mpf(0), mp.mpc(1), 0
        while True:
            term = zp / (am + n) ** sm
            total += term
            big = max(big, abs(term))
            if n > 10 and abs(term) < mp.mpf(10) ** -110 * big:
                return complex(total)
            zp *= zm
            n += 1


def test_series_bar_holds_where_the_terms_cancel():
    # at Re s < 0 the terms grow before they fall and cancel by many
    # digits; the sum adds them, and the bar counts the largest term
    def draw(rng):
        z = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(-math.pi, math.pi))
        s = complex(rng.uniform(-30.0, 2.0),
                    rng.uniform(-6.0, 6.0) if rng.random() < 0.3 else 0.0)
        return z, s, complex(rng.uniform(0.05, 4.0), 0.0)

    for z, s, a in [(0.9j, -30.0, 0.5), (-0.9, -20.0, 0.3)] + sample(
            1717, 10, draw):
        r = hp_series(z, s, a)
        want = _series_120_digits(z, s, a)
        assert abs(r.value - want) <= r.err_bar, (z, s, a)
        assert r.err_bar <= 1e-15 * abs(want), (z, s, a)


def test_series_radius_guard():
    with pytest.raises(DomainError):
        hp_series(0.96, 2.0, 1.0)


def test_continuation_known_rows():
    r = hp_continuation(-10.0, 0.75, 0.3)
    assert r.method == "hp_continuation"
    assert abs(r.value - 1.0889334) <= 5e-8  # printed-digit check
    assert r.accepted
    r = reference_value(LerchPoint(10j, 0.75, 0.3))
    assert abs(r.value - TABLE_Z_10I) <= 1e-10


def test_reference_routing():
    assert reference_value(LerchPoint(0.5, 2.5, 1.7)).method == "hp_series"
    assert reference_value(LerchPoint(-10, 0.75, 0.3)).method == "quadrature"
    assert reference_value(
        LerchPoint(-10, -0.5, 0.3)).method == "hp_continuation"
    assert reference_value(
        LerchPoint(10, 0.75, 0.3)).method == "hp_continuation"


def test_reference_refuses_mpmath_for_complex_a_past_e():
    # z hugs the cut, so the routing falls through to mpmath's
    # continuation; there mpmath is off by O(100) with its two precisions
    # agreeing, while quadrature and the symmetric engine agree
    z, s, a = 5.0 + 0.2j, 1.5 + 1.0j, 0.7 - 0.4j
    quad = quad_integral(z, s, a)
    cont = hp_continuation(z, s, a)
    assert quad.accepted and cont.accepted
    assert abs(cont.value - quad.value) > 100.0
    sym = eval_symmetric_igamma(LerchPoint(z, s, a), tol=1e-12)
    assert abs(sym.value - quad.value) <= 1e-10
    with pytest.raises(DomainError):
        reference_value(LerchPoint(z, s, a))
    with pytest.raises(DomainError):  # on the cut, the one-sided limits
        reference_value(LerchPoint(5.0, s, a))
    # real a keeps the continuation route
    assert reference_value(LerchPoint(z, s, 0.7)).method == "hp_continuation"


def test_reference_refuses_mpmath_for_turned_complex_a_in_the_band():
    # inside the band, mpmath's continuation is O(1) wrong for complex a
    # where arg a + arg(-ln z) leaves (-pi, pi]; Re s <= 0.05 sends the
    # point past quadrature to it.  The Abel-Plana engine continues its
    # Gamma term there and is the check
    z, s = 2.0 * cmath.exp(0.3j), -0.5 + 1.0j
    turned, kept = LerchPoint(z, s, 1.0 - 0.8j), LerchPoint(z, s, 1.0 + 0.8j)
    engine = eval_abel_plana(turned).value
    assert abs(hp_continuation(z, s, turned.a).value - engine) > 1e-2
    with pytest.raises(DomainError):
        reference_value(turned)
    ref = reference_value(kept)
    assert ref.method == "hp_continuation"
    assert abs(ref.value - eval_abel_plana(kept).value) <= 1e-12
    # on the cut the side sets arg(-ln z) = -/+ pi: above refuses
    # Im a < 0, below refuses Im a > 0
    with pytest.raises(DomainError):
        reference_value(LerchPoint(1.5, 0.7, 1.0 - 0.8j, "above"))
    with pytest.raises(DomainError):
        reference_value(LerchPoint(1.5, 0.7, 1.0 + 0.8j, "below"))
    cut = LerchPoint(1.5, 0.7, 1.0 + 0.8j, "above")
    assert abs(reference_value(cut).value
               - eval_abel_plana(cut).value) <= 1e-10


def test_reference_refuses_mpmath_at_re_s_far_below_0_past_e():
    # at (1e6 e^(2i), s, 0.6) mpmath's continuation returns the same
    # wrong value at 30 and 40 digits, so its spread bar is tiny (1.5e-25
    # and 8.7, 3e-16 of the value): at s = -20.5 it gives 5.13325e-10 for
    # 5.14384e-10 (100 and 200 digits agree on the latter), at s = -40.5
    # about -2.86e16 for about -0.0037
    z = 1e6 * cmath.exp(2j)
    for s, wrong, right in ((-20.5, 5.1332512e-10, 5.1438356e-10),
                            (-40.5, -2.8648050e16, -0.0036837731)):
        cont = hp_continuation(z, s, 0.6)
        assert cont.err_bar <= 1e-15 * abs(cont.value)
        assert abs(cont.value.real / wrong - 1.0) < 1e-7
        with mp.workdps(100):
            high = complex(mp.lerchphi(z, s, 0.6))
        assert abs(high.real / right - 1.0) < 1e-7
        with pytest.raises(DomainError):
            reference_value(LerchPoint(z, s, 0.6))
    # nearer e, and at Re s >= -20, the continuation stays
    assert reference_value(
        LerchPoint(1e3 * cmath.exp(3j), -12.5, 0.6)).accepted


def test_lerch_judge_against_the_exact_rational_at_negative_integer_s():
    # at s = -m, Phi(z, -m, a) = sum_k C(m, k) a^(m-k) sum_n n^k z^n with
    # sum_n n^k z^n = sum_j S(k, j) j! z^j / (1 - z)^(j+1) (S the Stirling
    # numbers of the second kind): a rational function of the binary64
    # z and a, summed here exactly, at census draw 1866's z.  The judge's
    # 60-digit value lies within its bar (the spread to 40 digits) of it
    # and rounds to the same double
    z = complex(12142.301122656485, 7412.415279640824)
    zr, zi = Fraction(z.real), Fraction(z.imag)

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def div(x, y):
        d = y[0] * y[0] + y[1] * y[1]
        return ((x[0] * y[0] + x[1] * y[1]) / d,
                (x[1] * y[0] - x[0] * y[1]) / d)

    one_minus_z = (1 - zr, -zi)
    u = div((zr, zi), one_minus_z)  # z / (1 - z)
    stirling = [[1]]  # stirling[k][j] = S(k, j)
    for k in range(1, 184):
        row = stirling[-1] + [0]
        stirling.append([0] + [j * row[j] + row[j - 1]
                               for j in range(1, k + 1)])
    for m, a in ((3, 0.4717389020521727), (40, 5.034942913988844),
                 (120, 5.034942913988844), (183, 5.034942913988844)):
        fa = Fraction(a)
        coef = [sum(math.comb(m, k) * fa ** (m - k) * stirling[k][j]
                    for k in range(j, m + 1)) * math.factorial(j)
                for j in range(m + 1)]
        total = (Fraction(0), Fraction(0))
        for c in reversed(coef):
            total = mul(total, u)
            total = (total[0] + c, total[1])
        exact = div(total, one_minus_z)
        with mp.workdps(60):
            want = lerch_transformation(z, complex(-m), a, 60)
            spread = abs(want - lerch_transformation(z, complex(-m), a, 40))
            exact_mp = mp.mpc(mp.mpf(exact[0].numerator) / exact[0].denominator,
                              mp.mpf(exact[1].numerator) / exact[1].denominator)
            assert abs(want - exact_mp) <= spread <= 1e-30 * abs(want), m
        assert complex(want) == complex(float(exact[0]), float(exact[1])), m


def test_reference_contiguity():
    # a^(-s) + z * ref(a+1) reproduces ref(a) through every route
    pts = (LerchPoint(0.5, 2.5, 1.7), LerchPoint(-10, 0.75, 0.3),
           LerchPoint(-10, -0.5, 0.3), LerchPoint(12j, 1.5, 0.7))
    for p in pts:
        r0 = reference_value(p)
        r1 = reference_value(LerchPoint(p.z, p.s, p.a + 1))
        rhs = p.a ** -p.s + p.z * r1.value
        tol = r0.err_bar + abs(p.z) * r1.err_bar \
            + 1e-13 * max(abs(r0.value), 1.0)
        assert abs(r0.value - rhs) <= tol, p


def test_cut_side_limits():
    pa = LerchPoint(10, 0.75, 0.3, "above")
    pb = LerchPoint(10, 0.75, 0.3, "below")
    ra, rb = reference_value(pa), reference_value(pb)
    # sides are genuine conjugates for real s, a and they straddle a jump
    assert abs(ra.value - rb.value.conjugate()) <= 1e-12
    assert abs(ra.value - rb.value) > 2.0
    # each side sits within O(eps) of its one-sided neighbor
    assert abs(ra.value - CUT_ABOVE_EPS6) <= 5e-6
    assert abs(rb.value - CUT_ABOVE_EPS6.conjugate()) <= 5e-6
    # jump magnitude is stable to 3 digits across eps refinement
    jumps = []
    for eps in (1e-6, 1e-7):
        va = hp_continuation(complex(10, eps), 0.75, 0.3).value
        vb = hp_continuation(complex(10, -eps), 0.75, 0.3).value
        jumps.append(va - vb)
    assert abs(jumps[0] - jumps[1]) / abs(jumps[1]) <= 1e-3
    assert abs((ra.value - rb.value) - jumps[1]) / abs(jumps[1]) <= 1e-3


def test_accepted_property():
    assert ReferenceValue(1.0 + 0j, 1e-11, "quadrature").accepted
    assert not ReferenceValue(1.0 + 0j, 1e-9, "quadrature").accepted
