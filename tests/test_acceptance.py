"""Acceptance gate: eight criteria, one visible pass/fail line each.

Each criterion collects every violated sub-check into `failures` and
reports once through _finish, which prints the verdict line through a
briefly-suspended capture (so it reaches the terminal whatever capture
mode pytest runs under) and then asserts.  Tolerances here are
contractual; do not relax them to make a run pass.
"""

import cmath
import math

import pytest

from helpers import rel_err, sample
from lerchphi._types import LerchPoint
from lerchphi._quadrature import tanh_sinh
from lerchphi.coefficients import (csc_coefficients, csc_coefficients_contour,
                                   csc_coefficients_subtracted)
from lerchphi.engines import (_branch_log, _log_series_terms, choose_optimal_M,
                              eval_fl_expansion, eval_integer_s_large_z,
                              eval_main_theorem, eval_near_one,
                              eval_series_direct, eval_symmetric_igamma,
                              residue_series)
from lerchphi.factorial_series import eval_factorial, p_n_direct, p_n_stable
from lerchphi.oracle import hp_series, quad_integral, reference_value
from lerchphi.special_kernel import (digamma, gamma, hurwitz_zeta,
                                     upper_incomplete_gamma)

A = 0.3
S = 0.75
N_PAIRS = 5

SHOWCASE = (
    (-5 + 0j, 1.3421782 + 0j, 1.3421692 + 0j, 9, 0.140),
    (-10 + 0j, 1.0889334 + 0j, 1.0889332 + 0j, 13, 0.158),
    (10j, 0.98125249 + 0.54864116j, 0.98125270 + 0.54864133j, 16, 0.269),
    (10 + 0.01j, 0.52526675 + 1.04285831j, 0.52526654 + 1.04285810j, 22,
     0.297),
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _finish(label, failures):
    verdict = "FAIL" if failures else "PASS"
    with _CAPTURE.disabled():
        print(f"[{verdict}] {label}", flush=True)
    assert not failures, f"{label}: " + "; ".join(failures)


def _gap(got, want):
    return max(abs(got.real - want.real), abs(got.imag - want.imag))


def test_criterion_1_showcase_rows():
    failures = []
    for z, ref_want, approx_want, m_want, rem_want in SHOWCASE:
        p = LerchPoint(z, S, A)
        ref = reference_value(p).value
        rep = eval_main_theorem(p, N_PAIRS)
        pick = choose_optimal_M(p, N_PAIRS)
        scaled = abs(z) ** (N_PAIRS + 1) * abs(ref - rep.value)
        if _gap(ref, ref_want) > 5e-8:
            failures.append(f"reference digits off at z={z}")
        if _gap(rep.value, approx_want) > 5e-8:
            failures.append(f"combined approximation off at z={z}")
        if pick != m_want:
            failures.append(f"M pick {pick} != {m_want} at z={z}")
        if abs(scaled - rem_want) > 0.01:
            failures.append(f"scaled remainder {scaled:.3f} vs {rem_want} "
                            f"at z={z}")
    _finish("criterion 1: showcase rows (reference digits, combined "
            "approximation, M picks, scaled remainders)", failures)


def test_criterion_2_error_scaling_up_the_ray():
    failures = []
    for k in range(4):
        z = -5.0 * 2.0 ** k
        p = LerchPoint(z, S, A)
        ref = reference_value(p).value
        rep = eval_main_theorem(p, N_PAIRS)
        scaled = abs(z) ** (N_PAIRS + 1) * abs(ref - rep.value)
        if not scaled < 1.0:
            failures.append(f"scaled remainder {scaled:.3f} at z={z}")
    _finish("criterion 2: scaled remainder stays below 1 along z = -5*2^k",
            failures)


def test_criterion_3_integer_exponent_exactness():
    failures = []
    for s_int in (-2, -1, 0, 1, 2, 3):
        for z in (-5.0 + 0j, -10.0 + 0j, 10.0j):
            p = LerchPoint(z, float(s_int), A)
            rep = eval_integer_s_large_z(p)
            ref = reference_value(p).value
            if abs(rep.value - ref) > 1e-9 * max(1.0, abs(ref)):
                failures.append(f"S={s_int}, z={z} misses reference")
            if s_int == 0 and abs(rep.value - 1.0 / (1.0 - z)) > 1e-13:
                failures.append(f"S=0 closed form off at z={z}")
    _finish("criterion 3: closed forms for integer exponents match the "
            "reference", failures)


def test_criterion_4_oracle_coherence():
    failures = []

    def draw_interior(rng):
        return (cmath.rect(rng.uniform(0.1, 0.9),
                           rng.uniform(-math.pi, math.pi)),
                complex(rng.uniform(0.3, 2.5), rng.uniform(-1.0, 1.0)),
                complex(rng.uniform(0.4, 2.0), rng.uniform(-0.5, 0.5)))

    for z, s, a in sample(41, 25, draw_interior):
        hp = hp_series(z, s, a).value
        qd = quad_integral(z, s, a).value
        if rel_err(qd, hp) > 1e-10:
            failures.append(f"series vs quadrature at z={z:.3f}")

    def shift_gap(run, z, s, a):
        va = run(LerchPoint(z, s, a)).value
        va1 = run(LerchPoint(z, s, a + 1.0)).value
        return abs(va - (a ** -s + z * va1)) / max(1.0, abs(va))

    def eng_direct(p):
        return eval_series_direct(p, tol=1e-12)

    def eng_near_one(p):
        return eval_near_one(p, n_max=60)

    def eng_integer_s(p):
        return eval_integer_s_large_z(p)

    def eng_main(p):
        return eval_main_theorem(p, 8)

    def eng_symmetric(p):
        return eval_symmetric_igamma(p, tol=1e-12)

    zones = (
        (eng_direct, 45, lambda rng: (
            cmath.rect(rng.uniform(0.05, 0.8), rng.uniform(-math.pi, math.pi)),
            complex(rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 2.0)),
            complex(rng.uniform(0.3, 2.5), rng.uniform(-1.0, 1.0)))),
        (eng_near_one, 47, lambda rng: (
            cmath.rect(rng.uniform(1.05, 2.0),
                       rng.choice((-1, 1)) * rng.uniform(0.2, 2.4)),
            complex(rng.uniform(0.1, 0.9), rng.uniform(0.2, 1.5)),
            complex(rng.uniform(0.3, 2.0), 0.0))),
        (eng_integer_s, 53, lambda rng: (
            cmath.rect(rng.uniform(4.0, 25.0),
                       rng.choice((-1, 1)) * rng.uniform(0.2, 2.9)),
            float(rng.randint(-2, 3)),
            complex(rng.uniform(0.3, 1.5), 0.0))),
        (eng_main, 59, lambda rng: (
            cmath.rect(rng.uniform(30.0, 60.0),
                       rng.choice((-1, 1)) * rng.uniform(0.3, 2.8)),
            complex(rng.uniform(0.2, 1.8), rng.uniform(-0.8, 0.8)),
            complex(rng.uniform(0.3, 1.5), 0.0))),
        (eng_symmetric, 61, lambda rng: (
            cmath.rect(rng.uniform(4.0, 12.0),
                       math.pi + rng.uniform(-0.6, 0.6)),
            complex(rng.uniform(0.2, 1.8), rng.uniform(-0.5, 0.5)),
            complex(rng.uniform(0.3, 1.5), 0.0))),
    )
    for run, seed, draw in zones:
        for z, s, a in sample(seed, 6, draw):
            if shift_gap(run, z, s, a) > 1e-8:
                failures.append(f"{run.__name__} shift defect at z={z:.3f}")
    _finish("criterion 4: oracle routes agree and the a-shift identity "
            "holds across engines", failures)


def test_criterion_5_coefficient_integrity():
    failures = []

    def draw_a(rng):
        return complex(rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4))

    for a in sample(91, 10, draw_a):
        rec = csc_coefficients(a, 21).values
        con = csc_coefficients_contour(a, 21)
        for n in range(21):
            scale = max(abs(rec[n]), abs(rec[n - 1]) if n else 0.0, 1e-30)
            if abs(rec[n] - con[n]) / scale > 1e-8:
                failures.append(f"contour mismatch at a={a:.3f}, n={n}")

    base = csc_coefficients(A, 31).values
    for depth in (1, 5, 10):
        st = csc_coefficients_subtracted(A, depth, 31, "stable-zeta").values
        di = csc_coefficients_subtracted(A, depth, 31, "direct-sum").values
        for n in range(31):
            if abs(st[n] - di[n]) > 1e-10 * max(abs(base[n]), 1.0):
                failures.append(f"dual-path gap at N={depth}, n={n}")

    for depth in (1, 5):
        vals = csc_coefficients_subtracted(A, depth, 61).values
        target = complex(0.0, (-1.0 if depth % 2 else 1.0) / (2.0 * math.pi))
        for n in range(40, 61):
            scaled = vals[n] * complex(A - depth - 1.0) ** (n + 1)
            if abs(scaled - target) / abs(target) > 0.02:
                failures.append(f"tail law off at N={depth}, n={n}")
    _finish("criterion 5: coefficient recurrence, dual subtraction paths "
            "and tail law", failures)


def test_criterion_6_factorial_series():
    failures = []
    p = LerchPoint(-5.0, S, A)
    rep = eval_factorial(p)
    ref = reference_value(p).value
    if rep.n_terms > 500:
        failures.append("factorial run exceeded 500 terms")
    if abs(rep.value - ref) > 1e-7:
        failures.append(f"factorial value off by {abs(rep.value - ref):.2e}")

    x = 12.0 + 3.0j
    for n in range(1, 7):
        d = p_n_direct(x, S, n)
        if abs(p_n_stable(x, S, n) - d) > 1e-10 * abs(d):
            failures.append(f"moment routes disagree at n={n}")

    def drift(r):
        xx = r * cmath.exp(0.4j)
        ratio = (p_n_stable(xx, 0.6, 3) * xx ** (3 + 1.0 - 0.6)
                 / ((cmath.exp(-2j * math.pi * 0.6) - 1.0) * gamma(3 - 0.6 + 1.0)))
        return abs(ratio - 1.0)

    if not drift(200.0) < drift(50.0):
        failures.append("asymptotic drift does not shrink with |x|")

    xb, nb = 3.7, 4
    val, _, _ = tanh_sinh(
        lambda t: math.exp(-xb * t) * (1.0 - math.exp(-t)) ** nb)
    closed = math.factorial(nb) / math.prod(xb + k for k in range(nb + 1))
    if abs(val - closed) > 1e-10:
        failures.append("factorial-decay integral identity off")
    _finish("criterion 6: factorial series value, dual moment routes, "
            "asymptotic law and decay identity", failures)


def test_criterion_7_divergence_demonstrations():
    failures = []

    p5 = LerchPoint(-5.0, S, A)
    terms = _log_series_terms(p5, _branch_log(p5),
                              csc_coefficients(A, 31).values)
    mags = [abs(t) for t in terms if t is not None]
    low = min(range(len(mags)), key=mags.__getitem__)
    if not 0 < low < 30:
        failures.append(f"unsubtracted minimum at edge index {low}")
    if not mags[30] > 1e6 * mags[low]:
        failures.append("unsubtracted terms fail to grow by index 30")

    fl_mags = [eval_fl_expansion(p5, 4, k).abs_err_estimate
               for k in range(12)]
    fl_low = min(range(12), key=fl_mags.__getitem__)
    if not 0 < fl_low < 11:
        failures.append(f"comparison log-series minimum at edge {fl_low}")

    p10 = LerchPoint(-10.0, S, A)
    ref = reference_value(p10).value
    tail = residue_series(p10, N_PAIRS)
    pick = choose_optimal_M(p10, N_PAIRS)
    errs = {m: abs(eval_main_theorem(p10, N_PAIRS, m_override=m).value
                   + tail - ref) for m in range(1, 27)}
    best = min(errs, key=errs.get)
    if abs(best - pick) > 2:
        failures.append(f"landscape minimum {best} far from pick {pick}")
    _finish("criterion 7: divergence of the unsubtracted expansions and "
            "the optimal-depth landscape", failures)


def test_criterion_8_kernel_identities():
    failures = []

    def draw_s(rng):
        while True:
            s = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(s.real - round(s.real)) > 0.05 or abs(s.imag) > 0.05:
                return s

    for s in sample(102, 50, draw_s):
        prod = gamma(s) * gamma(1.0 - s) * cmath.sin(cmath.pi * s) / cmath.pi
        if rel_err(prod, 1.0) > 5e-13:
            failures.append(f"gamma reflection at s={s:.3f}")

    def draw_sw(rng):
        while True:
            s = complex(rng.uniform(-18, 18), rng.uniform(-18, 18))
            if abs(s) > 19 or abs(s - round(s.real)) < 0.3:
                continue
            if abs(s + 1 - round(s.real + 1)) < 0.3:
                continue
            return s, cmath.rect(10 ** rng.uniform(-0.5, 2.2),
                                 rng.uniform(-math.pi, math.pi))

    for s, w in sample(110, 50, draw_sw):
        lhs = upper_incomplete_gamma(s + 1.0, w)
        t1 = s * upper_incomplete_gamma(s, w)
        t2 = cmath.exp(s * cmath.log(w) - w)
        if abs(lhs - t1 - t2) / max(abs(lhs), abs(t1), abs(t2)) > 1e-10:
            failures.append(f"incomplete-gamma recurrence at s={s:.3f}")

    def draw_sa(rng):
        while True:
            s = complex(rng.uniform(-20, 20), rng.uniform(-8, 8))
            if abs(s - 1.0) > 0.1:
                return s, rng.uniform(0.05, 20)

    for s, a in sample(109, 50, draw_sa):
        lhs = hurwitz_zeta(s, a)
        rhs = hurwitz_zeta(s, a + 1.0) + complex(a) ** (-complex(s))
        if abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30) > 1e-10:
            failures.append(f"hurwitz recurrence at s={s:.3f}, a={a:.3f}")

    for a in sample(106, 50, lambda rng: complex(rng.uniform(0.1, 30),
                                                 rng.uniform(-30, 30))):
        gap = abs(digamma(a + 1.0) - digamma(a) - 1.0 / a)
        if gap > 1e-12 * max(1.0, abs(digamma(a))):
            failures.append(f"digamma recurrence at a={a:.3f}")
    _finish("criterion 8: kernel recurrence and reflection identities on "
            "random batches", failures)
