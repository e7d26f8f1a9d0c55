"""Tests for the factorial-series engine.

The binomial moments get checked three independent ways: closed forms
at small n, a contour-style quadrature oracle, and the asymptotic law
they must approach for large |x|.  The assembled engine is then held
against the incomplete-gamma engines, which share no code path beyond
the residue series.
"""

import cmath
import math

import mpmath as mp
import pytest

from lerchphi import factorial_series
from lerchphi._types import LerchPoint
from lerchphi._quadrature import tanh_sinh
from lerchphi.engines import (eval_integer_s_large_z, eval_symmetric_igamma,
                              residue_series)
from lerchphi.errors import ConditioningError, DomainError
from lerchphi.factorial_series import (eval_factorial, p_n_direct, p_n_stable,
                                       series_states)
from lerchphi.oracle import reference_value
from lerchphi.special_kernel import gamma, log_neg_z, reciprocal_gamma

S34 = 0.75
A03 = 0.3

# one-sided limit onto the cut at z = 10 (same anchor as the other
# engine tests; accurate to the 5e-6 offset it was frozen at)
CUT_ABOVE_Z10 = complex(0.524840789287, 1.04306685763)


def P(z, s=S34, a=A03, side="above"):
    return LerchPoint(z, s, a, side)


# ---------------------------------------------------------------- moments

def test_moment_zero_closed_form():
    x, s = 2.5, 0.4
    want = (-2j * math.pi * cmath.exp(-1j * math.pi * s)
            * complex(x) ** (s - 1.0) * reciprocal_gamma(s))
    assert p_n_direct(x, s, 0) == pytest.approx(want, rel=1e-14)


def test_moment_matches_quadrature_oracle():
    # independent representation: for Re s < 1 the n-th moment equals
    # (e^(-2 pi i s) - 1) * int_0^inf e^(-x t) t^(-s) (1 - e^(-t))^n dt
    x, s, n = 2.5, 0.4, 3

    def integrand(t):
        return math.exp(-x * t) * t ** -s * (1.0 - math.exp(-t)) ** n

    val, err, _ = tanh_sinh(integrand)
    assert err < 1e-12
    oracle = (cmath.exp(-2j * math.pi * s) - 1.0) * val
    assert abs(oracle - p_n_direct(x, s, n)) <= 1e-9


def test_moment_vanishes_at_zero_exponent():
    assert abs(p_n_direct(2.5, 0.0, 4)) <= 1e-14
    assert abs(p_n_stable(12.0 + 3.0j, 0.0, 3)) <= 1e-14


def test_moment_routes_agree():
    x = 12.0 + 3.0j
    for n in range(1, 7):
        d = p_n_direct(x, S34, n)
        st = p_n_stable(x, S34, n)
        assert abs(st - d) <= 1e-10 * abs(d)


def test_stable_route_reduces_to_direct_at_order_zero():
    x = 12.0 + 3.0j
    assert p_n_stable(x, S34, 0) == pytest.approx(p_n_direct(x, S34, 0),
                                                  rel=1e-13)


def test_moment_asymptotic_law():
    # p_n(x, s) ~ (e^(-2 pi i s) - 1) Gamma(n - s + 1) x^(s - n - 1),
    # with the relative drift shrinking like 1/|x|
    s, n = 0.6, 3

    def drift(r):
        x = r * cmath.exp(0.4j)
        ratio = (p_n_stable(x, s, n) * x ** (n + 1.0 - s)
                 / ((cmath.exp(-2j * math.pi * s) - 1.0)
                    * gamma(n - s + 1.0)))
        return abs(ratio - 1.0)

    d50, d200 = drift(50.0), drift(200.0)
    assert d50 < 0.15
    assert d200 < 0.05
    assert d200 < 0.5 * d50


def test_moment_preconditions():
    with pytest.raises(DomainError):
        p_n_direct(-3.0, S34, 2)          # node on the cut of the power
    with pytest.raises(DomainError):
        p_n_direct(-0.5 + 0.0j, S34, 0)
    with pytest.raises(DomainError):
        p_n_stable(2.0 + 0.0j, 0.5, 3)    # |x| <= n


def test_beta_identity_against_quadrature():
    # int_0^inf e^(-x t)(1 - e^(-t))^n dt = n! / (x (x+1) ... (x+n)),
    # the mechanism behind the factorial-like decay of the terms
    x, n = 3.7, 4

    def integrand(t):
        return math.exp(-x * t) * (1.0 - math.exp(-t)) ** n

    val, err, _ = tanh_sinh(integrand)
    closed = math.factorial(n) / math.prod(x + k for k in range(n + 1))
    assert err < 1e-12
    assert abs(val - closed) <= 1e-10


# ----------------------------------------------------------------- engine

def test_engine_matches_reference_value():
    rep = eval_factorial(P(-5.0))
    assert rep.engine == "factorial"
    assert rep.n_terms <= 500
    assert abs(rep.value - 1.3421782) <= 1e-7


def test_engine_matches_symmetric_engine():
    p = P(-5.0)
    rep = eval_factorial(p)
    sym = eval_symmetric_igamma(p, tol=1e-12)
    assert abs(rep.value - sym.value) <= 1e-7
    # the rearranged parts alone must agree too, not just the totals
    res = residue_series(p, 0, half_turns=1)
    assert abs((rep.value - res) - (sym.value - res)) <= 1e-7


def test_engine_terminates_at_unit_exponent():
    # s = 1 kills every moment past n = 0, so the series is finite
    p = P(-10.0, s=1.0)
    rep = eval_factorial(p)
    ref = eval_integer_s_large_z(p)
    assert rep.n_terms <= 8
    assert abs(rep.value - ref.value) <= 1e-8




def test_engine_quiet_window_triggers():
    rep = eval_factorial(P(-5.0))
    assert rep.n_terms < 500
    assert "stopped-on-quiet-window" in rep.warnings
    assert 0.0 < rep.abs_err_estimate < 1e-8


def test_engine_off_axis_and_lower_half_plane():
    for z in (10.0j, -10.0j, 10.0 - 0.01j):
        p = P(z)
        rep = eval_factorial(p)
        sym = eval_symmetric_igamma(p, tol=1e-12)
        assert abs(rep.value - sym.value) <= 1e-9, z


def test_engine_cut_sides():
    above = eval_factorial(P(10.0), tol=1e-8)
    below = eval_factorial(P(10.0, side="below"), tol=1e-8)
    assert abs(above.value - CUT_ABOVE_Z10) <= 5e-6
    assert abs(below.value - CUT_ABOVE_Z10.conjugate()) <= 5e-6
    # the two limits straddle the cut; their gap is the branch jump
    assert abs(above.value - below.value) > 1.0
    assert abs(below.value - above.value.conjugate()) <= 2e-7


def test_engine_noise_floor_rollback():
    # below the cut Re x = 0, so the moments decay only logarithmically
    # and a tolerance under the cancellation floor is unreachable; the
    # engine must return its best state, not integrate noise
    rep = eval_factorial(P(10.0, side="below"), tol=1e-13)
    assert "noise-floor-rollback" in rep.warnings
    assert abs(rep.value - CUT_ABOVE_Z10.conjugate()) <= 5e-6


def test_engine_max_terms_cap():
    rep = eval_factorial(P(-5.0), max_terms=10)
    assert rep.n_terms == 10
    assert "max-terms-reached" in rep.warnings
    assert abs(rep.value - 1.3421782) > 1e-7   # honestly unconverged


def test_residue_series_near_the_unit_circle():
    # a 4,000-term cap once left the sum 4.0e-7 and 1.3e-4 relative off
    # at these points, where it now comes from the Abel-Plana engine
    for z, N in ((1.002 * cmath.exp(2j), 0), (-1.001, 5)):
        with mp.workdps(30):
            zm, sm, am = mp.mpc(z), mp.mpf(S34), mp.mpf(A03)
            tail = mp.nsum(lambda n: zm ** -n * (n - am) ** -sm,
                           [N + 1, mp.inf])
            want = complex(-mp.exp(-1j * mp.pi * sm) * tail)
        got = residue_series(P(z), N, half_turns=1)
        assert abs(got - want) <= 1e-12 * abs(want), z


def test_engine_far_out_takes_the_stable_moment_route(monkeypatch):
    # |x| = |0.5 + i L / 2 pi| > n + 2 from |z| ~ 3e5 on, where the
    # moments come from the hypergeometric (stable) route
    calls = []
    stable = factorial_series.p_n_stable
    monkeypatch.setattr(factorial_series, "p_n_stable",
                        lambda x, s, n: calls.append(n) or stable(x, s, n))
    for z in (-1e6, -3e5 + 1e5j, -1e8):
        calls.clear()
        rep = eval_factorial(P(z))
        assert calls, z
        ref = reference_value(P(z))
        assert abs(rep.value - ref.value) <= (rep.abs_err_estimate
                                              + ref.err_bar), z


def test_engine_near_the_unit_circle():
    # the residue series once stopped 1.8e-5, 1.3e-4 and 4.7e-7 short at
    # the first three points, under an estimate of 1.6e-10; at the last
    # two its defining series at 1/z hit the term cap, which the
    # Abel-Plana engine at 1/z, taken inside |z| = 1/0.9, does not have
    for z in (-1.001, -1.0005, 1.002j, -1.00001, 1.00001j):
        p = P(z)
        rep = eval_factorial(p)
        ref = reference_value(p)
        assert abs(rep.value - ref.value) <= (rep.abs_err_estimate
                                              + ref.err_bar), z


def test_engine_preconditions():
    with pytest.raises(DomainError):
        eval_factorial(P(0.5))
    with pytest.raises(DomainError):
        residue_series(P(0.5), 0)
    with pytest.raises(DomainError):
        eval_factorial(P(-5.0, a=-0.2))
    with pytest.raises(ConditioningError):
        eval_factorial(P(-5.0, a=2.0000001))
    with pytest.raises(ConditioningError):
        eval_factorial(P(-5.0, a=1.0))
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError):
            eval_factorial(P(-5.0), tol=tol)


# ------------------------------------------------------------------ trace

def test_trace_states_recompute_mapping():
    p = P(-5.0)
    states = series_states(p, 12)
    want_x = 0.5 + 1j * log_neg_z(p.z, p.cut_side).value / (2.0 * math.pi)
    assert [st.n_terms for st in states] == list(range(1, 13))
    for st in states:
        assert st.x == want_x
        assert st.s == p.s and st.a == p.a
        assert st.last_term_mag >= 0.0
        assert cmath.isfinite(st.partial)


def test_trace_envelope_decays_in_windows():
    # individual magnitudes oscillate, but the envelope taken over
    # blocks of ten must fall monotonically through the clean regime
    states = series_states(P(-5.0), 60)
    mags = [st.last_term_mag for st in states]
    blocks = [max(mags[i:i + 10]) for i in range(0, 60, 10)]
    assert all(b2 < b1 for b1, b2 in zip(blocks, blocks[1:]))
    assert blocks[-1] < 1e-11


def test_trace_partials_converge_to_engine_value():
    p = P(-5.0)
    states = series_states(p, 60)
    res = residue_series(p, 0, half_turns=1)
    rep = eval_factorial(p, tol=1e-11)
    assert abs((states[-1].partial + res) - rep.value) <= 1e-10
