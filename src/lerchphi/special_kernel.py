"""Complex special-function primitives shared by every evaluation engine.

Everything here works on Python complex numbers in double precision.
Branch policy, once and for all:

* ``log_neg_z`` is the only place a cut side is chosen.  The cut of
  log(-z) in the z-plane is [1, oo); off the cut the principal value is
  used, on the cut the ``side`` flag selects the limit ("above" = limit
  from Im z > 0, which gives arg(-z) -> -pi).
* Every other power and log in this module is principal.  The incomplete
  gamma functions are single-valued in s and use the principal branch of
  w**s; callers that need a continued branch in w build it themselves from
  these pieces.
* ``gamma_star`` (the scaled lower incomplete gamma) is entire in both
  arguments and is the preferred building block: assemblies that use it
  need no branch tracking at all.

Scale policy: Gamma(s, w) (``_upper_incomplete_gamma``) and gamma*
(``_scaled_gamma_star``) come as e^(x-w) m, never forming Gamma(s), w^s
or e^(-w) on their own (the pole join near s = -m takes ln m! in its
exponent too); the value is formed once, with ln m folded into the
exponent where e^(x-w) alone would leave the normal range.

Accuracy targets (validated in the test suite): gamma/log_gamma rel 1e-13
for |s| <= 50 away from poles; digamma rel 1e-12 for |a| <= 100; Hurwitz
zeta rel 1e-11 for |s| <= 30; incomplete gamma rel 1e-11 for |s| <= 20,
|w| <= 200 away from the anti-Stokes hump where the result itself is
exponentially small against its terms.
"""

import cmath
import math
import sys
from collections import namedtuple
from functools import lru_cache

from ._quadrature import _HALF_LINE_REACH, tanh_sinh
from .errors import (AccuracyError, ConditioningError, DomainError,
                     PoleError, overflow_is_conditioning)

__all__ = [
    "BranchedLog",
    "log_neg_z",
    "signed_pi",
    "gamma",
    "log_gamma",
    "reciprocal_gamma",
    "digamma",
    "hurwitz_zeta",
    "upper_incomplete_gamma",
    "gamma_star",
    "gauss_2f1_unit_b",
]

_EULER = 0.5772156649015328606
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi

# B_2 .. B_24 as exact (numerator, denominator) pairs.  The float
# constants below divide one int by another, which Python rounds
# correctly, so each is the double nearest its rational value.
_BERNOULLI = [
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730),
]

# Stirling series for log gamma: sum_k c_k / s^(2k-1), c_k = B_2k/((2k-1)(2k))
_STIRLING = [n / (d * (2 * k + 1) * (2 * k + 2))
             for k, (n, d) in enumerate(_BERNOULLI)]

# Euler-Maclaurin factors B_2k/(2k)! for the Hurwitz zeta correction sum
_EM_FACT = [n / (d * math.factorial(2 * k + 2))
            for k, (n, d) in enumerate(_BERNOULLI)]

# digamma asymptotic factors B_2k/(2k), truncated at k = 8
_DIGAMMA_FACT = [n / (d * (2 * k + 2))
                 for k, (n, d) in enumerate(_BERNOULLI[:8])]


# Tolerances and iteration caps, tuned so the documented accuracy targets
# hold across the stated domains
_IGAMMA_REL_TOL = 5e-16
_IGAMMA_MAX_ITER = 500
_IGAMMA_SERIES_CAP = 1400
# the asymptotic tail near the negative w-axis serves where both its
# truncation error and the Stokes term it leaves out are under this
_IGAMMA_TAIL_TOL = 1e-13
# rounding of an incomplete gamma route, in ulps of what it sums and
# subtracts, each piece weighted by the rounding of its exponential or
# of Gamma(s).  On 9,500 seeded (s, w) pairs that the Abel-Plana engine
# asks for (|z| from 0.9 to 1e4), against mpmath at 30 digits, the
# worst error was 0.23 of the bound.
_IGAMMA_ULPS = 8.0 * 2.0 ** -52
# past this |Re y|, e^y m is formed as e^(y + ln m): headroom under e^709
# for |m| (_exp_scaled)
_FOLD_EXPONENT = 600.0
_ABEL_PLANA_REL_TOL = 1e-15
# the Abel-Plana integral's tail past its reach is under e^-40 |a^(-s)|
_AP_TAIL_EXPONENT = 40.0
# past this bound on the log of the Abel-Plana integrand over a^(-s),
# a^(-s) is folded into each node's exponent (headroom under e^709 for
# the sum over the nodes)
_AP_FOLD_PEAK = 600.0
# the Abel-Plana integrand is bounded at t = 0, so its half-line rule
# starts at u = -4 (see _quadrature._U_MIN)
_AP_U_MIN = -4.0
# the Abel-Plana integral's node tables (_abel_plana_entry): at most this
# many (s, a, |Im L|) keys, the least recently used evicted, and at most
# this many nodes a key, levels 0-4 of the rule from _AP_U_MIN
_AP_TABLE_KEYS = 8
_AP_TABLE_NODES = 257
_ULP = 2.0 ** -52
_F21_REL_TOL = 1e-14
_F21_MAX_TERMS = 10000


class BranchedLog(namedtuple("BranchedLog", "value side")):
    """A log value plus which side of the cut produced it; side is
    "above-cut", "below-cut" or "off-cut"."""

    __slots__ = ()


def signed_pi(side):
    """Imaginary part assigned to arg(-z) on the cut for the given side."""
    if side == "above":
        return -math.pi
    if side == "below":
        return math.pi
    raise ValueError(f"side must be 'above' or 'below', got {side!r}")


def log_neg_z(z, side="above"):
    """log(-z) with the cut along z in [1, oo), continuous elsewhere.

    For z off the positive real axis this is the principal log of -z
    (so Im log_neg_z in (-pi, pi)).  For real z > 0 the ``side`` flag
    selects the limit: "above" means z approached from Im z > 0, giving
    arg(-z) = -pi; "below" gives +pi.
    """
    zc = complex(z)
    value = _log_neg(zc, side)
    if zc.imag == 0.0 and zc.real > 0.0:
        tag = "above-cut" if side == "above" else "below-cut"
        return BranchedLog(value, tag)
    return BranchedLog(value, "off-cut")


def _log_neg(zc, side):
    """log_neg_z(zc, side).value for complex zc, without the record."""
    sp = signed_pi(side)  # validates side even when unused
    if zc == 0:
        raise DomainError("log_neg_z undefined at z = 0")
    if zc.imag == 0.0 and zc.real > 0.0:
        return complex(math.log(zc.real), sp)
    return cmath.log(-zc)


def _nonpositive_integer(v):
    """Return the integer if v is exactly a non-positive integer, else None."""
    vc = complex(v)
    if vc.imag == 0.0:
        r = vc.real
        if r <= 0.0 and r == int(r):
            return int(r)
    return None


def log_gamma(s):
    """Principal-style log gamma via Stirling after shifting Re s >= 12.

    Exact identity log Gamma(s) = Stirling(s + k) - sum_j log(s + j) with
    principal logs; on the negative real axis the returned imaginary part
    is one of the two limit values (the function itself is cut there), but
    exp(log_gamma(s)) is the correct gamma everywhere off the poles.
    """
    sc = complex(s)
    p = _nonpositive_integer(sc)
    if p is not None:
        raise PoleError(f"gamma pole at s = {p}", pole=p)
    if sc.imag == 0.0 and sc.real > 0.0:
        return complex(math.lgamma(sc.real), 0.0)
    shift = 0.0j
    while sc.real < 12.0:
        shift += cmath.log(sc)
        sc += 1.0
    r = 1.0 / sc
    r2 = r * r
    series = 0.0j
    for c in reversed(_STIRLING):
        series = (series + c) * r2
    series /= r  # sum c_k / s^(2k-1)
    return (sc - 0.5) * cmath.log(sc) - sc + _HALF_LN_2PI + series - shift


@overflow_is_conditioning
def gamma(s):
    """Gamma function; raises PoleError at non-positive integers and
    ConditioningError where |Gamma(s)| is past the double range."""
    sc = complex(s)
    p = _nonpositive_integer(sc)
    if p is not None:
        raise PoleError(f"gamma pole at s = {p}", pole=p)
    if sc.imag == 0.0:
        return complex(math.gamma(sc.real), 0.0)
    return cmath.exp(log_gamma(sc))


# 1/Gamma is memoized: _scaled_gamma_star asks for it at s + 1 for every
# pair term of the large-z expansions, and _log_series_terms at s for
# each main-theorem call; a hit never enters the overflow conversion.
@lru_cache(maxsize=64)
@overflow_is_conditioning
def reciprocal_gamma(s):
    """1/Gamma(s), entire: returns 0 at the poles of gamma.  Raises
    ConditioningError where |1/Gamma(s)| is past the double range, above
    it or under its normal numbers (real s past about 171)."""
    sc = complex(s)
    if _nonpositive_integer(sc) is not None:
        return 0.0j
    # past s = 171.6 math.gamma overflows while 1/Gamma is tiny, and below
    # s = -171 it is subnormal while 1/Gamma leaves the range
    if sc.imag == 0.0 and abs(sc.real) < 170.0:
        return complex(1.0 / math.gamma(sc.real), 0.0)
    value = cmath.exp(-log_gamma(sc))
    if abs(value) < sys.float_info.min:
        raise ConditioningError(f"1/Gamma(s) is under the normal doubles "
                                f"at s = {s}")
    return value


@lru_cache(maxsize=64)
def _signed_log_gamma(s):
    """(lg, sign) with Gamma(s) = sign e^lg, memoized like 1/Gamma (the
    large-z engines ask for it at s for every mirror term): at real s
    lg = ln |Gamma(s)| (so the pieces built on it stay exactly real) and
    sign = +/-1, elsewhere log_gamma(s) and 1.  Never forms Gamma(s)."""
    p = _nonpositive_integer(s)
    if p is not None:
        raise PoleError(f"gamma pole at s = {p}", pole=p)
    if s.imag == 0.0:
        sign = -1.0 if s.real < 0.0 and math.floor(s.real) % 2 else 1.0
        return complex(math.lgamma(s.real), 0.0), sign
    return log_gamma(s), 1.0


def digamma(a):
    """psi(a) by upward recurrence into the asymptotic regime."""
    ac = complex(a)
    p = _nonpositive_integer(ac)
    if p is not None:
        raise PoleError(f"digamma pole at a = {p}", pole=p)
    acc = 0.0j
    while ac.real < 10.0 or abs(ac) < 10.0:
        acc -= 1.0 / ac
        ac += 1.0
    inv2 = 1.0 / (ac * ac)
    series = 0.0j
    for c in reversed(_DIGAMMA_FACT):
        series = (series + c) * inv2
    return acc + cmath.log(ac) - 0.5 / ac - series


# ---------------------------------------------------------------------------
# Hurwitz zeta


def _zeta_euler_maclaurin(s, a):
    # Shift a until the 12-term correction sum is past 1e-13 relative.  The
    # 0.53*(|s|+12) slope keeps |(s+23)(s+24)/A^2| comfortably below 1.
    a_target = max(12.0, 0.53 * (abs(s) + 12.0))
    k_shift = max(0, math.ceil(a_target - a.real))
    head = 0.0j
    for k in range(k_shift):
        head += cmath.exp(-s * cmath.log(a + k))
    big_a = a + k_shift
    base = cmath.exp(-s * cmath.log(big_a))  # A^{-s}
    value = head + base * (0.5 + big_a / (s - 1.0))
    poch = s
    apow = base / big_a
    inv_a2 = 1.0 / (big_a * big_a)
    for k, c in enumerate(_EM_FACT):
        value += c * poch * apow
        kk = 2 * k + 2
        poch *= (s + kk - 1.0) * (s + kk)
        apow *= inv_a2
    return value


def _zeta_hermite(s, a):
    # Hermite's formula, the Abel-Plana summation of sum_n (a+n)^(-s):
    #   zeta(s,a) = a^{-s}/2 + a^{1-s}/(s-1) + _abel_plana_integral at L = 0,
    # that integral being 2 int_0^oo sin(s atan(t/a)) / ((a^2+t^2)^{s/2}
    # (e^{2 pi t}-1)) dt at real a.
    # Valid for Re a > 0; used for Re s < -0.5 where the Euler-Maclaurin
    # route cancels catastrophically in doubles.  Its own conditioning is
    # e^{pi |Im s| / 2} (the sin factor outgrows the result), independent
    # of Re s.  a is first stepped into 0.5 < Re a <= 1.5 with
    # zeta(s, a) = a^{-s} + zeta(s, a+1): for Re s << 0 and Re a below
    # about |Re s| the integral and a^{-s} (1/2 + a/(s-1)) cancel like
    # |a|^{-Re s} / |zeta|, while the step terms carry the size of zeta
    # without that loss (past |Re s| there is little to gain, and the
    # steps would cost one exp each).
    head = 0.0j
    while a.real <= 0.5:
        head += cmath.exp(-s * cmath.log(a))
        a += 1.0
    while 1.5 < a.real <= 1.0 + abs(s.real):
        a -= 1.0
        head -= cmath.exp(-s * cmath.log(a))
    integral = _abel_plana_integral(s, a, 0.0j)[0]
    return (head + cmath.exp(-s * cmath.log(a)) * (0.5 + a / (s - 1.0))
            + integral)


def _abel_plana_reach(s, a, im_l):
    """T past which the tail of _abel_plana_integral is provably under
    e^-_AP_TAIL_EXPONENT |a^(-s)|, im_l = |Im L|.

    For t >= T each of the two terms of the integrand is at most
    e^(pi |Im s| / 2) R^(-Re s) e^(-kappa t) / (1 - e^(-2 pi T)), with
    kappa = 2 pi - |Im L| >= pi and R the larger of |a +/- it| where
    Re s < 0, the smaller where Re s >= 0.  Its log falls at a rate of at
    least kappa' = kappa - max(0, -Re s) / R(T) past T, so the tail is
    under twice that bound at T over kappa'.  From the T of the
    exponential factor alone, T doubles or halves until the bar is
    bracketed, and two bisections in log T then take it to within 19%
    of the least such T.
    """
    kappa = _TWO_PI - im_l
    p = -s.real
    alpha, beta = a.real, abs(a.imag)
    # log of 2 e^(pi |Im s| / 2) / |a^(-s)| e^_AP_TAIL_EXPONENT
    excess = (math.log(2.0) + 0.5 * math.pi * abs(s.imag)
              - p * math.log(abs(a)) - s.imag * cmath.phase(a)
              + _AP_TAIL_EXPONENT)

    def above_bar(t):
        if p > 0.0:
            r = math.hypot(alpha, t + beta)
            slope = kappa - p / r
            if slope <= 0.0:
                return True
        else:
            r = math.hypot(alpha, max(0.0, t - beta))
            slope = kappa
        return (excess + p * math.log(r) - kappa * t
                - math.log(-math.expm1(-_TWO_PI * t) * slope)) > 0.0

    # start from the least T of the exponential factor alone
    hi = max(excess / kappa, 1e-3)
    if above_bar(hi):
        lo = 2.0 * hi
        while above_bar(lo):
            lo *= 2.0
        lo, hi = 0.5 * lo, lo
    else:
        lo = 0.5 * hi
        while not above_bar(lo):
            lo *= 0.5
        hi = 2.0 * lo
    for _ in range(2):
        mid = math.sqrt(lo * hi)
        if above_bar(mid):
            lo = mid
        else:
            hi = mid
    return hi


@lru_cache(maxsize=_AP_TABLE_KEYS)
def _abel_plana_entry(s, a, im_l):
    """[sigma, fold, c0, nodes] of _abel_plana_integral at (s, a) and
    |Im L| = im_l, which fix them; nodes is None until the key's second
    call, a tuple from then on (see there)."""
    sigma = _abel_plana_reach(s, a, im_l) / _HALF_LINE_REACH
    # the log of a bound on |integrand| / |a^(-s)|: e^(pi |Im s|) for the
    # arguments, and the peak of (|a| + t)^(-Re s) e^(-kappa t) / |a|^(-Re s)
    p = -s.real
    kappa = _TWO_PI - im_l
    peak = math.pi * abs(s.imag)
    if p > kappa * abs(a):
        peak += p * (math.log(p / (kappa * abs(a))) - 1.0) + kappa * abs(a)
    fold = peak > _AP_FOLD_PEAK
    return [sigma, fold, -s * cmath.log(a) if fold else 0.0, None]


def _abel_plana_integral(s, a, L):
    """i int_0^oo [f(it) - f(-it)] / (e^(2 pi t) - 1) dt with
    f(x) = e^(xL) (a+x)^(-s), Re a > 0: the integral of the Abel-Plana
    summation of sum_n z^n (a+n)^(-s), L = ln z, and at L = 0 that of
    Hermite's formula for zeta(s, a).

    One tanh_sinh call on the half line, from u = _AP_U_MIN of its map
    (the integrand is bounded at t = 0), in the variable t / sigma with
    sigma = T / _HALF_LINE_REACH: the rule's last node falls on the T of
    _abel_plana_reach, past which the tail is provably under its bar, so
    the scale of the map follows the integrand's decay.

    With tau = t/a, c = -(s/2) ln(1 + tau^2) - 2 pi t and
    d = i (tL - s atan(tau)), the integrand is
    a^(-s) 2i e^c sinh(d) / (1 - e^(-2 pi t)).  Near t = 0 the difference
    of the two terms comes out of sinh(d) without cancellation; where
    |d| >= 1 it is e^(c+d) - e^(c-d), so sinh does not overflow where e^c
    is small.  a^(-s) is rounded once, by pow: as exp(-s ln a) inside
    every node it carried the rounding of -s ln a, ~200 ulps at
    s = 200.5, a = 0.3, into every node alike.  Where Re s << 0 and
    |a| < 1 the integrand over a^(-s) can pass e^709 while the integrand
    does not; there -s ln a (c0) is folded into c instead, and the
    estimate carries the rounding of that exponent.  OverflowError where
    a^(-s) or a node's exponential is past the double range;
    ConditioningError where the value or the integral of |integrand|
    reaches inf without raising (at z = 1, where zeta is).  Returns the
    value, the quadrature's error estimate, the integral of |integrand|
    (for the caller's rounding bound) and the number of integrand
    evaluations.

    Along a ray in z only tL and what follows from it change: sigma, c0
    and each node's t, c, s atan(tau) and 1 - e^(-2 pi t) depend on s, a
    and |Im L| alone.  _abel_plana_entry keeps them for the last
    _AP_TABLE_KEYS such keys, evicting the least recently used.  A key's
    first call records nothing, so points that each have their own
    (s, a) pay only two index checks a node for the table; its second
    call records each node as (t, c, s atan(tau), 1 - e^(-2 pi t)), in
    tanh_sinh's call order, and later calls read them and append the
    nodes they go on to, up to _AP_TABLE_NODES (about 50 kB a key).  A
    node read from the table takes the same operations on the same
    operands as one computed afresh, so every value comes out bit for
    bit the same.  Keys compare as numbers, so s or a with a -0.0 part
    shares the table of +0.0: the sign reaches only parts that are
    zero, which the rule's sums, started at +0.0, drop.  A call extends
    a table in a list of its own and publishes the longer tuple when its
    rule returns, so concurrent callers read only whole tables; two
    calls that race may publish over each other, which costs
    recomputation, never a value.
    """
    evals = 0
    entry = _abel_plana_entry(s, a, abs(L.imag))
    sigma, fold, c0, table = entry
    first = table is None
    if first:
        entry[3] = table = ()
    known = len(table)
    limit = 0 if first else _AP_TABLE_NODES
    added = []
    half_s = 0.5 * s
    real_a = a.imag == 0.0
    re_a = a.real

    def integrand(x):
        # from the table's node factors where it has them; the others are
        # computed, and recorded unless this is the key's first call
        nonlocal evals
        i = evals
        evals += 1
        if i < known:
            t, c, s_theta, one_minus = table[i]
        else:
            t = sigma * x
            two_pi_t = _TWO_PI * t
            if real_a:
                tau = t / re_a
                c = c0 - half_s * math.log1p(tau * tau) - two_pi_t
                s_theta = s * math.atan2(t, re_a)
            else:
                tau = t / a
                c = c0 - half_s * cmath.log(1.0 + tau * tau) - two_pi_t
                s_theta = s * cmath.atan(tau)
            one_minus = -math.expm1(-two_pi_t)
            if i < limit:
                added.append((t, c, s_theta, one_minus))
        d = 1j * (t * L - s_theta)
        if abs(d) < 1.0:
            diff = 2.0 * cmath.exp(c) * cmath.sinh(d)
        else:
            diff = cmath.exp(c + d) - cmath.exp(c - d)
        return diff / one_minus

    front = 1.0 if fold else a ** -s
    value, err, mass = tanh_sinh(integrand, _ABEL_PLANA_REL_TOL, _AP_U_MIN)
    if added:
        entry[3] = table + tuple(added)
    scale = abs(front) * sigma
    value *= 1j * sigma * front
    mass *= scale
    if not (cmath.isfinite(value) and math.isfinite(mass)):
        raise ConditioningError(f"the Abel-Plana integrand at s = {s} is "
                                "past the double range")
    err = scale * err + 2.0 * _ULP * abs(c0) * mass
    return value, err, mass, evals


def _em_cancellation_exponent(s, a):
    # Predicted ln(largest partial / result) for the Euler-Maclaurin route.
    # The result size comes from the reflection-type growth of zeta in the
    # left half-plane; crude is fine, this only picks a route.
    big_a = max(12.0, 0.53 * (abs(s) + 12.0))
    one_minus_s = 1.0 - s
    ln_zeta = ((0.5 - s) * cmath.log(one_minus_s)).real - one_minus_s.real \
        - one_minus_s.real * math.log(2.0 * math.pi) \
        + 0.5 * math.pi * abs(s.imag) + 1.0
    return max(0.0, (1.0 - s.real) * math.log(big_a) - ln_zeta)


def _zeta_by_integral(s, a):
    # Route choice for one zeta(s, a); see hurwitz_zeta.
    if s.real >= -0.5:
        return False
    if abs(s.imag) <= 8.0:
        return True
    return _em_cancellation_exponent(s, a) >= 0.5 * math.pi * abs(s.imag)


@overflow_is_conditioning
def hurwitz_zeta(s, a):
    """Hurwitz zeta, analytic continuation in s, for a off {0, -1, -2, ...}.

    Euler-Maclaurin for Re s >= -0.5; Hermite's integral (the Abel-Plana
    integral at z = 1) for Re s < -0.5, after stepping a by integers into
    0.5 < Re a <= 1.5, or only past Re a > 1/2 once Re a exceeds
    1 + |Re s|.  In the corner Re s < -0.5 with |Im s| > ~8 both routes
    lose digits in doubles (integral route like e^{pi |Im s|/2},
    Euler-Maclaurin like A^{1-Re s}/|zeta|); the one with the smaller
    predicted loss is used and the documented 1e-11 relative contract
    holds for |s| <= 30 with Re s >= -0.5 or |Im s| <= 8.
    ConditioningError where a piece is past the double range.
    """
    sc = complex(s)
    ac = complex(a)
    if sc == 1.0:
        raise PoleError("hurwitz_zeta pole at s = 1", pole=1)
    if _nonpositive_integer(ac) is not None:
        raise DomainError(f"hurwitz_zeta needs a off the non-positive "
                          f"integers, got a = {a}")
    if _zeta_by_integral(sc, ac):
        return _zeta_hermite(sc, ac)
    return _zeta_euler_maclaurin(sc, ac)


# ---------------------------------------------------------------------------
# Incomplete gamma


def _h_ratio_minus_one_over_u(s, m, u):
    # (H(s) - 1)/u where H(s) = m! * (pi u / sin(pi u)) / Gamma(1 + m - u)
    # smoothly interpolates (s+m) Gamma(s) * (-1)^m m! near u = s + m = 0;
    # and a bound on its error: the first Taylor term left out, or the
    # rounding of ln H, which the division by u magnifies.
    if abs(u) < 1e-5:
        psi0 = -_EULER + sum(1.0 / j for j in range(1, m + 1))
        psi1 = math.pi * math.pi / 6.0 - sum(1.0 / (j * j)
                                             for j in range(1, m + 1))
        slope = psi0 * psi0 - psi1 + math.pi * math.pi / 3.0
        return (psi0 + 0.5 * u * slope,
                abs(u) * abs(0.5 * u * slope)
                + _IGAMMA_ULPS * (m + 1.0) * (abs(psi0) + abs(u * slope)))
    piu = math.pi * u
    lg_m = math.lgamma(m + 1.0)
    lg_s = log_gamma(1.0 - s)
    h = cmath.exp(lg_m - lg_s - cmath.log(cmath.sin(piu) / piu))
    return ((h - 1.0) / u,
            _IGAMMA_ULPS * (abs(h) * (1.0 + lg_m + abs(lg_s)
                                      + _gamma_rounding(1.0 - s)) + 1.0)
            / abs(u))


def _expm1_over(v):
    # (e^v - 1)/v for complex v
    if abs(v) < 1e-4:
        return 1.0 + v * (0.5 + v / 6.0)
    return (cmath.exp(v) - 1.0) / v


def _gamma_rounding(s):
    # the rounding of ln Gamma(s), in units of _IGAMMA_ULPS: 1 at real s
    # (math.lgamma; e^lg rounds with its exponent); off the real axis that
    # of log_gamma(s), Stirling's series after the shift to Re s >= 12,
    # whose pieces are about |s + 12| ln |s + 12|
    if s.imag == 0.0:
        return 1.0
    r = abs(s) + 12.0
    return r * math.log(r)


def _scaled_difference(gx, g, g_err, lx, total, size):
    # e^gx g - e^lx total, a series route's subtraction, as (x, m, err):
    # e^x m, x the larger piece's exponent (ln |g| goes into gx first, so
    # no factor overflows where g is far from 1); err in units of |e^x|:
    # g_err (in units of |e^gx|), and _IGAMMA_ULPS of size (of the terms)
    # and of the smaller piece times both exponents, which its factor
    # e^(gx - lx) or e^(lx - gx) rounds with.  x rounds where e^x is
    # formed.
    if g:
        ln_g = math.log(abs(g))
        gx, g, g_err = gx + ln_g, g / abs(g), g_err / abs(g)
    if total and lx.real + math.log(abs(total)) > gx.real:
        x, gf, lf = lx, cmath.exp(gx - lx), 1.0
        smaller = abs(gf * g)
    else:
        x, gf, lf = gx, 1.0, cmath.exp(lx - gx)
        smaller = abs(lf * total)
    return x, gf * g - lf * total, abs(gf) * g_err + _IGAMMA_ULPS * (
        abs(lf) * size + (abs(gx) + abs(lx)) * smaller)


def _exp_scaled(y, m, err):
    """e^y m and err |e^y|, ln m folded into y past |Re y| = _FOLD_EXPONENT;
    an OverflowError where the value itself is past the double range."""
    if abs(y.real) > _FOLD_EXPONENT and m:
        ln_m = cmath.log(m)
        y += ln_m
        err = err / abs(m) + _IGAMMA_ULPS * abs(ln_m)
        m = 1.0
    scale = cmath.exp(y)
    return scale * m, abs(scale) * err


def _igamma_kummer(s, w):
    # Gamma(s) - lower(s, w) with lower from the e^{-w}-rescaled ascending
    # series.  Terms carry positive powers of w only, so unlike the
    # alternating form there is no e^{|w|(1+cos arg w)} hump; the region
    # guard |w| <= |s|+4 caps the partial-sum growth at a couple digits
    # for any arg w short of the negative axis.
    t = 1.0 / s
    total = t
    size = abs(t)
    k = 1
    k_settle = abs(w) + max(0.0, -s.real)
    while True:
        t *= w / (s + k)
        total += t
        at = abs(t)
        size += at
        if k > k_settle and at < _IGAMMA_REL_TOL * abs(total):
            break
        if k > _IGAMMA_SERIES_CAP:
            raise AccuracyError("incomplete gamma series did not settle",
                                achieved=at)
        k += 1
    # Gamma(s) = sign e^((lg + w) - w), and the lead e^(s ln w - w)
    lg, sign = _signed_log_gamma(s)
    return _scaled_difference(lg + w, sign, _IGAMMA_ULPS * _gamma_rounding(s),
                              s * cmath.log(w), total, size)


def _igamma_gseries(s, w, m=None):
    # Gamma(s) - w^s sum_k (-w)^k / (k! (s+k)).  The sum has no leading
    # cancellation for Re w <= 0; its hump costs ~e^{|w| + Re w} in ulps,
    # so the dispatcher only sends it near the negative w-axis once |w| is
    # large (where that factor stays ~1).  With m, s is within 0.25 of -m,
    # where the k = m term resonates with the Gamma(s) pole: the analytic
    # join g replaces both.
    lw = cmath.log(w)
    if m is None:
        total = 1.0 / s
    else:
        u = s + m
        dh, dh_err = _h_ratio_minus_one_over_u(s, m, u)
        v = u * lw
        e = _expm1_over(v)
        # (e^v - 1)/v: its Taylor form's first omitted term, or the
        # rounding of e^v over |v|
        e_err = (abs(v) ** 3 / 24.0 if abs(v) < 1e-4
                 else _IGAMMA_ULPS * (1.0 + math.exp(v.real)) / abs(v))
        sign = -1.0 if m % 2 else 1.0
        g = sign * (dh - lw * e)
        # the join is e^((w - ln m!) - w) g: 1/m! only in the exponent
        gx, g_err = w - math.lgamma(m + 1.0), (
            _IGAMMA_ULPS * abs(g) + (dh_err + abs(lw) * e_err))
        total = 0.0j if m == 0 else 1.0 / s
    # the power series of w^(-s) lower(s, w) past its k = 0 term 1/s (in
    # total unless it is the resonant one), and the sizes of its terms
    size = abs(total)
    t = 1.0 + 0.0j
    k = 1
    while True:
        t *= -w / k
        if k != m:
            r = t / (s + k)
            total += r
            ar = abs(r)
            size += ar
            if k > abs(w) and ar < _IGAMMA_REL_TOL * (abs(total) + 1.0):
                break
        if k > _IGAMMA_SERIES_CAP:
            raise AccuracyError("incomplete gamma series did not settle",
                                achieved=abs(t))
        k += 1
    if m is None:
        lg, g = _signed_log_gamma(s)
        gx, g_err = lg + w, _IGAMMA_ULPS * _gamma_rounding(s)
    # the lead w^s = e^((s ln w + w) - w)
    return _scaled_difference(gx, g, g_err, s * lw + w, total, size)


def _igamma_continued_fraction(s, w):
    # Modified Lentz on the even contraction of the classical continued
    # fraction; solid for |arg w| away from the negative axis.  Gamma(s, w)
    # = e^(x - w) / f, x = s ln w; the rounding of 1/f grows with the steps
    # taken, and its truncation is about the last step's change.
    tiny = 1e-300
    b = w + 1.0 - s
    f = b if b != 0 else complex(tiny)
    c = f
    d = 0.0j
    delta = 0.0j
    for k in range(1, _IGAMMA_MAX_ITER + 1):
        an = k * (s - k)
        b += 2.0
        d = b + an * d
        if d == 0:
            d = complex(tiny)
        c = b + an / c
        if c == 0:
            c = complex(tiny)
        d = 1.0 / d
        delta = c * d
        f *= delta
        step = abs(delta - 1.0)
        if step < _IGAMMA_REL_TOL:
            return s * cmath.log(w), 1.0 / f, (_IGAMMA_ULPS * k
                                               + step) / abs(f)
    raise AccuracyError(
        "incomplete gamma continued fraction hit the iteration cap",
        achieved=abs(delta - 1.0))


def _scaled_igamma_asymptotic(s, w):
    # Gamma(s, w) e^w w^(1-s) for large |w|: the divergent tail
    # sum_k (s-1)...(s-k) / w^k, summed until a term drops under 1e-17 of
    # the sum or the next one would grow (optimal truncation).  Returns
    # the sum, the last term taken, whose size is the truncation error,
    # and the sum of the sizes of the terms.
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    size = 1.0
    for k in range(1, 401):
        step = term * ((s - k) / w)
        at = abs(step)
        if at >= abs(term):
            break
        term = step
        total += term
        size += at
        if at <= 1e-17 * abs(total):
            break
    return total, term, size


def _igamma_tail(s, w, tail, last, size, log_stokes):
    # Gamma(s, w) = e^(x - w) T, x = (s-1) ln w, from the scaled tail T;
    # its error: the last term taken, the Stokes term left out and the
    # rounding of the sum
    return ((s - 1.0) * cmath.log(w), tail,
            abs(last) + math.exp(min(log_stokes, 700.0)) + _IGAMMA_ULPS * size)


def _log_stokes_term(s, aw):
    # Across the negative w-axis the divergent tail leaves out a Stokes
    # term, pi |w|^(1 - Re s) e^(-|w|) / |Gamma(1 - s)| relative to
    # w^(s-1) e^(-w) there (less off the axis); this is its log.  It
    # vanishes at positive integer s and grows like e^(pi |Im s| / 2).
    if _nonpositive_integer(1.0 - s) is not None:
        return -math.inf
    return (math.log(math.pi) - _signed_log_gamma(1.0 - s)[0].real
            + (1.0 - s.real) * math.log(aw) - aw)


def _near_gamma_pole(s):
    mr = round(s.real)
    if mr <= 0 and abs(s - mr) <= 0.25:
        return -mr
    return None


@overflow_is_conditioning
def upper_incomplete_gamma(s, w):
    """Gamma(s, w), principal branch of w**s, any complex s.

    Region map: power series around w = 0 and at Re s > |w| (with an
    analytic join of the resonant term when s sits near a non-positive
    integer), Lentz continued fraction for large |w| off the negative axis,
    and near the axis (|arg w| > 2.65) the optimally truncated asymptotic
    tail (DLMF 8.11(i)) beyond |w| = 45 + 2.5 max(0, -Re s) where its
    truncation error and the Stokes term it leaves out are both under
    1e-13 (at |s| <= 20 nearly always), the subtracted series or the
    fraction elsewhere.  Every route returns the value as e^(x - w) m (see
    _upper_incomplete_gamma); it is formed once.  Raises ConditioningError
    when the value is past the double range.
    """
    return _upper_incomplete_gamma_and_err(s, w)[0]


def _upper_incomplete_gamma_and_err(s, w):
    """upper_incomplete_gamma(s, w) and a bound on its error, from the
    route taken: _IGAMMA_ULPS of what a series sums and subtracts (the
    sizes of its terms, Gamma(s) and their exponents) or of the continued
    fraction's value per step, plus what the route truncates, and of the
    exponent x - w of the value e^(x - w) m (_exp_scaled)."""
    sc, wc = complex(s), complex(w)
    x, m, err = _upper_incomplete_gamma(sc, wc)
    return _exp_scaled(x - wc, m, err + _IGAMMA_ULPS * (abs(x) + abs(wc))
                       * abs(m))


def _upper_incomplete_gamma(sc, wc):
    """Gamma(s, w) = e^(x - w) m as (x, m, err), err a bound on the error
    of m (in units of |e^(x - w)|), from the route the region map picks:
    x = s ln w on the continued fraction, (s - 1) ln w on the scaled tail,
    and on the series routes the log of the larger of their two pieces,
    Gamma(s) (or the pole join) and the lead e^(s ln w - w) or w^s, plus w.
    e^(-w), w^s and Gamma(s) are never formed on their own, so a caller
    that multiplies by e^w (as e^(-aL) is at w = -aL) takes e^x whole."""
    if wc == 0:
        if sc.real > 0:
            lg, sign = _signed_log_gamma(sc)
            return lg, sign, _IGAMMA_ULPS * _gamma_rounding(sc)
        raise DomainError("Gamma(s, 0) diverges for Re s <= 0")
    m = _near_gamma_pole(sc)
    aw = abs(wc)
    theta = abs(cmath.phase(wc))
    if aw <= min(abs(sc) + 4.0, 30.0) or aw < sc.real:
        # Ascending series country (at Re s > |w| the fraction can settle
        # on a wrong value, while the series' terms fall from the start),
        # except where the result is
        # exponentially smaller than Gamma(s) (anti-Stokes corner for
        # Re s << 0 with |w| ~ |s|): there every subtraction-based series
        # cancels to noise while the fraction stays clean.  The fraction's
        # own weak zone (arg w near 2.4 with |Im s| large and |w| small)
        # predicts low cancellation, so the two regimes split cleanly;
        # if the fraction still stalls, fall back to the series.
        if sc.real < -0.5 and aw >= 2.5 and theta <= 2.65:
            if m is not None:
                ln_gamma_mag = -math.lgamma(1.0 - sc.real)
            else:
                ln_gamma_mag = _signed_log_gamma(sc)[0].real
            ln_result_mag = ((sc - 1.0) * cmath.log(wc)).real - wc.real
            if ln_gamma_mag - ln_result_mag > 5.0:
                try:
                    return _igamma_continued_fraction(sc, wc)
                except AccuracyError:
                    pass
        if m is not None:
            # Near a gamma pole the ascending series needs the analytic
            # join, but its alternating hump costs e^{|w| + Re w} in ulps;
            # hand the right half-plane to the fraction once |w| allows.
            if wc.real >= 0.0 and aw >= 2.5:
                return _igamma_continued_fraction(sc, wc)
            return _igamma_gseries(sc, wc, m)
        if sc.real < -0.5 and aw > abs(sc.imag):
            # The rescaled ascending series divides by s+1, ..., s+k, and
            # those factors dip near k = -Re s.  Each factor below |w|
            # inflates the running peak by |w|/|s+k|; total the e-folds
            # over the dip window and reroute when they would eat more
            # than ~4 digits.
            half = math.sqrt(aw * aw - sc.imag * sc.imag)
            dip = 0.0
            for j in range(max(0, math.ceil(-sc.real - half)),
                           math.floor(-sc.real + half) + 1):
                dip += math.log(aw / abs(sc + j))
            if dip > 10.0:
                if theta <= 2.0 or aw >= 12.0:
                    try:
                        return _igamma_continued_fraction(sc, wc)
                    except AccuracyError:
                        pass
                if aw * (1.0 + math.cos(theta)) < dip:
                    return _igamma_gseries(sc, wc)
        if theta <= 2.65:
            return _igamma_kummer(sc, wc)
        return _igamma_gseries(sc, wc)
    if theta <= 2.65:
        return _igamma_continued_fraction(sc, wc)
    # Near the negative axis the divergent tail serves once
    # |w| > 45 + 2.5 max(0, -Re s), unless its terms grow before they
    # fall (|s| past |w|) or the Stokes term it leaves out is not small
    # (|Im s| large against |w|).  Elsewhere pick by predicted ulp loss:
    # the subtracted series loses e^{|w|(1 + cos arg w)} and the fraction
    # is clean through arg 2.9; past that the tail is the last resort.
    log_stokes = _log_stokes_term(sc, aw)
    if (aw > 45.0 + 2.5 * max(0.0, -sc.real)
            and log_stokes < math.log(_IGAMMA_TAIL_TOL)):
        tail = _scaled_igamma_asymptotic(sc, wc)
        if abs(tail[1]) <= _IGAMMA_TAIL_TOL * abs(tail[0]):
            return _igamma_tail(sc, wc, *tail, log_stokes)
    if aw * (1.0 + math.cos(theta)) <= 9.0:
        return _igamma_gseries(sc, wc, m)
    if theta <= 2.9:
        # this close to the axis the fraction can settle on the sum of
        # the divergent tail before it takes in the Stokes term
        x, m, err = _igamma_continued_fraction(sc, wc)
        return x, m, err + abs(m) * math.exp(min(log_stokes, 700.0))
    return _igamma_tail(sc, wc, *_scaled_igamma_asymptotic(sc, wc),
                        log_stokes)


@overflow_is_conditioning
def gamma_star(s, w):
    """Scaled lower incomplete gamma: lower(s, w) / (Gamma(s) * w**s).

    Entire in s and in w, which makes it the branch-free building block
    for the subtracted large-z pair terms.  At s = -m it equals w**m.
    The value is formed once from _scaled_gamma_star's e^(x - w) m;
    raises ConditioningError when it is past the double range.
    """
    sc, wc = complex(s), complex(w)
    x, m = _scaled_gamma_star(sc, wc)
    return _exp_scaled(x - wc, m, 0.0)[0]


def _scaled_gamma_star(sc, wc):
    """gamma_star(s, w) = e^(x - w) m as (x, m): x = 0 on the series
    route, else the larger exponent of w^(-s) and Gamma(s, w) w^(-s) /
    Gamma(s), plus w.  Real at real s and w, as gamma_star is there."""
    if wc == 0:
        return 0.0, reciprocal_gamma(sc + 1.0)  # series value at w = 0
    if abs(wc) <= min(max(8.0, abs(sc) - 2.0), 30.0):
        # e^{-w}-rescaled ascending series.  Every coefficient is an
        # entire 1/Gamma value, so gamma poles in s need no special
        # casing: at s = -m the first m terms vanish and the series
        # restarts at exactly w^m.  The zone widens with |s| because the
        # upper-function route below cancels precisely when |w| << |s|;
        # the series partial sums still hump when |Im s| is large and
        # |w| is not small, so track the realized peak and reroute if
        # it cost digits.
        t = reciprocal_gamma(sc + 1.0)
        total = t
        peak = abs(t)
        k = 1
        k_settle = abs(wc) + max(0.0, -sc.real)
        while True:
            if t == 0.0:
                t = wc ** k * reciprocal_gamma(sc + k + 1.0)
            else:
                t *= wc / (sc + k)
            total += t
            at = abs(t)
            peak = max(peak, at)
            if k > k_settle and at < _IGAMMA_REL_TOL * max(
                    abs(total), 1e-6 * peak):
                break
            if k > _IGAMMA_SERIES_CAP:
                raise AccuracyError("gamma_star series did not settle",
                                    achieved=at)
            k += 1
        if peak <= 1e3 * abs(total):
            return 0.0, total
    # Route through the upper function, w^(-s) (1 - Gamma(s, w) / Gamma(s))
    # (w^m at s = -m); clean whenever |lower| is not small next to
    # |Gamma(s)|: all |w| > 8 and the humped leftovers from the series.
    s_lw = sc * cmath.log(wc)
    x = lead = wc - s_lw
    m = 1.0
    if _nonpositive_integer(sc) is None:
        xu, mu, _ = _upper_incomplete_gamma(sc, wc)
        lg, sign = _signed_log_gamma(sc)
        x, m, _ = _scaled_difference(lead, 1.0, 0.0, xu - lg - s_lw,
                                     sign * mu, 0.0)
    if x == lead:
        # x rounds like |w|, which x - w keeps: m takes that rounding back
        m *= cmath.exp(-s_lw - (x - wc))
    if sc.imag == 0.0 and wc.imag == 0.0:
        return x.real, (m * cmath.exp(1j * x.imag)).real
    return x, m


def gauss_2f1_unit_b(alpha, gamma_param, x):
    """2F1(alpha, 1; gamma_param; x) by direct term recurrence, |x| < 1."""
    xc = complex(x)
    gc = complex(gamma_param)
    if abs(xc) >= 1.0:
        raise DomainError(f"gauss_2f1_unit_b needs |x| < 1, got |x| = {abs(xc)}")
    if _nonpositive_integer(gc) is not None:
        raise DomainError("lower parameter at a non-positive integer")
    ac = complex(alpha)
    t = 1.0 + 0.0j
    total = t
    for k in range(_F21_MAX_TERMS):
        t *= (ac + k) / (gc + k) * xc
        total += t
        if abs(t) <= _F21_REL_TOL * abs(total):
            return total
    raise AccuracyError("2F1 series hit the term cap", achieved=abs(t))
