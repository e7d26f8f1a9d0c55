"""Evaluation strategies for the Lerch transcendent across the z-plane.

Small |z| is the defining series.  Past |z| = 0.9, and where the series
misses the target, eval_auto uses the Abel-Plana summation of the
defining series (one incomplete gamma and one quadrature, any z != 0
and any s), whose Gamma term is one exponential of the kernel's scaled
incomplete gamma, so it leaves the double range only with the term
itself, and which past |z| = 1 takes one step
a -> a - 1 where that moves the value, about -(a-1)^(-s)/z at huge |z|,
into its head; integer s past |z| = e has an exact
closed form (the polylogarithm's inversion formula at integer a), its
residue series summed by the small-|z| series' loop at 1/z.  The other
engines: the branch-point expansion in powers of ln z around z = 1;
past |z| = e the resummed large-z theorem with optimally truncated
logarithmic series and a slowly convergent symmetric incomplete-gamma
expansion accelerated by repeated averaging; and a comparison expansion
kept mainly to demonstrate its accuracy floor.  eval_auto needs no
mpmath, and this module does not import the oracle.

Branch bookkeeping: every large-z piece is written against
L = log_neg_z(z, side), and the mirrored (-n) terms are folded with
their residue corrections into an entire "pair" form built on the
scaled lower incomplete gamma, so no continued branches appear
anywhere; each mirror term is one exponential of the kernel's e^(x-w) m
(no power of z is formed).  On the cut the side flag decides
arg(-z) = -/+ pi and, in the near-one and Abel-Plana engines, arg(-ln z).
"""

import cmath
import itertools
import math
import sys
from functools import lru_cache

from ._types import EngineReport, LerchPoint
from .coefficients import (_COUNT_CAP, _TWO_PI_I, _alternating_power_sums,
                           csc_coefficients_subtracted)
from .errors import (AccuracyError, ConditioningError, DomainError,
                     overflow_is_conditioning)
from .special_kernel import (_IGAMMA_ULPS, _abel_plana_integral,
                             _exp_scaled, _gamma_rounding, _log_neg,
                             _nonpositive_integer, _scaled_difference,
                             _scaled_gamma_star, _signed_log_gamma,
                             _upper_incomplete_gamma, gamma, hurwitz_zeta,
                             log_gamma, reciprocal_gamma)

_TWO_PI = 2.0 * math.pi
_DIRECT_CAP = 10 ** 6
# rounding of a sum, in ulps of the sizes of what it adds and cancels:
# the direct series' terms (on 700 seeded points with Re s down to -30
# the error reached 23); the Abel-Plana form's integral of |integrand|
# and its explicit terms; the floor of the main theorem's and the
# symmetric expansion's estimates, where the kernel's incomplete gamma
# values round too (at the two points of the Abel-Plana gap in the tests
# the error was 3.7 and 3.2 ulps of it); and the integer-s closed form's
# logarithmic series
_SUM_ULPS = 64.0 * 2.0 ** -52
# rounding of the near-one sum relative to its largest piece (the
# singular part or a zeta term): the kernel's zeta values and the
# cancellation between the pieces.  On the 96 near-one points of the
# benchmark's ring pool the worst needed 9.6e-15; this keeps 4x room.
_NEAR_ONE_ROUNDING = 4e-14


def _near_integer(s, tol=1e-12):
    return abs(s - round(s.real)) <= tol


def _branch_log(p):
    return _log_neg(p.z, p.cut_side)


def _first_sum_term(p, n, L):
    # z^n Gamma(s, w) / ((a+n)^s Gamma(s)), w = (a+n)L, Gamma(s, w) =
    # e^(x-w) m; e^L = -z, so z^n e^(-w) = (-1)^n e^(-aL) exactly
    s, a = p.s, p.a
    if _nonpositive_integer(s) is not None:
        return 0.0j
    x, m, _ = _upper_incomplete_gamma(s, (a + n) * L)
    lg, sign = _signed_log_gamma(s)
    return _exp_scaled(x - a * L - s * cmath.log(a + n) - lg,
                       -sign * m if n % 2 else sign * m, 0.0)[0]


def _pair_term(p, n, L):
    # the n-th mirror term with its residue folded in, entire in a:
    # -z^(-n) L^s gammastar(s, w), w = (a-n)L, gammastar = e^(x-w) m
    s, a = p.s, p.a
    x, m = _scaled_gamma_star(s, (a - n) * L)
    return _exp_scaled(x - a * L + s * cmath.log(L), m if n % 2 else -m,
                       0.0)[0]


def _log_series_terms(p, L, coeffs):
    """Terms of the resummed logarithmic series for the given coefficient
    run: 2 pi i e^(-aL) b_m L^(s-1-m) / Gamma(s-m).  The factor after b_m
    starts at 2 pi i e^(-aL) L^(s-1) / Gamma(s) and each next one is the
    one before times (s-m)/L, so the terms stay exactly real where s, a
    and L are real.  A term whose factor underflows to 0 is reported as
    None; OverflowError, for the public caller to convert, when the first
    factor is past the double range."""
    s = p.s
    expo = -p.a * L + (s - 1.0) * cmath.log(L)
    factor = math.inf
    if abs(expo.real) < 700.0 and abs(s) < 100.0:
        # 1/Gamma(s) and e^expo are both normal doubles: their product
        factor = 2j * math.pi * reciprocal_gamma(s) * cmath.exp(expo)
    if not cmath.isfinite(factor):
        # one exponential with Gamma(s) in it, past the double range only
        # with the factor itself; log |Gamma| and its sign at real s
        lg, sign = _signed_log_gamma(s)
        factor = 2j * math.pi * sign * cmath.exp(expo - lg)
    out = []
    for m, b in enumerate(coeffs):
        if m:
            factor *= (s - m) / L
        out.append(factor * b if factor else None)
    return out


def _series_sum(z, s, a, tol):
    """The defining series sum_{n>=0} z^n (a+n)^(-s) at |z| < 1: its
    value, an error estimate and the number of terms summed.

    Stops once the tail bound, the next term over 1 - r, drops under tol;
    r bounds the ratio of each later term to the one before, |z| times
    (1 + 1/|a+n|)^(-Re s) at Re s < 0, where the terms grow before they
    fall.  While Re(a+n) <= 0, |a+n| still falls, so the next term bounds
    no later one: at Re s >= 0 each is at most d^(-Re s) e^(pi |Im s|)
    times |z|^n, d = |a - round(Re a)| the distance of a from the
    integers, and at Re s < 0 the bound is infinite.  The estimate adds
    _SUM_ULPS of the sum of their sizes.
    """
    az = abs(z)
    total = 0.0j
    zp = 1.0 + 0.0j
    geo = 1.0 / (1.0 - az)  # |z|^n / (1 - |z|)
    mass = 0.0  # of the terms, over 1 - |z|
    # at real a + n > 0, |(a+n)^(-s)| is the float power (a+n)^(-Re s),
    # and at real s too that power is the term's factor itself; where
    # every term is real and z is too, the sum is a float sum (the real
    # parts of the complex one)
    real_a = a.imag == 0.0
    real_s = s.imag == 0.0
    if real_a and real_s and a.real > 0.0 and z.imag == 0.0:
        z, zp, total = z.real, 1.0, 0.0
    ar, minus_sr, minus_s = a.real, -s.real, -s
    # each term while Re(a+n) <= 0 is at most far |z|^n
    d = abs(a - round(ar)) if ar <= 0.0 and minus_sr <= 0.0 else 0.0
    far = d ** minus_sr * math.exp(math.pi * abs(s.imag)) if d else math.inf
    n = 0
    while not (real_a and ar + n > 0.0 and minus_sr <= 0.0):
        positive = real_a and ar + n > 0.0
        if positive:
            size = (ar + n) ** minus_sr
            bound = geo * size
        else:  # e^|Im s arg(a+n)| bounds that factor of later terms
            size = (abs(a + n) ** minus_sr
                    * math.exp(abs(s.imag * cmath.phase(a + n))))
            bound = geo * (size if ar + n > 0.0 else far)
        if minus_sr > 0.0 and ar + n > 0.0:
            ratio = az * (1.0 + 1.0 / abs(a + n)) ** minus_sr
            bound = (bound * (1.0 - az) / (1.0 - ratio)
                     if ratio < 1.0 else math.inf)
        if bound < tol and n or n >= _DIRECT_CAP:
            break
        total += zp * (size if positive and real_s else (a + n) ** minus_s)
        mass += geo * size
        zp *= z
        geo *= az
        n += 1
    else:
        # real a + n > 0 and Re s >= 0 from here on, the common case: the
        # same operations, less the tests whose outcome no longer changes
        while True:
            size = (ar + n) ** minus_sr
            bound = geo * size
            if bound < tol and n or n >= _DIRECT_CAP:
                break
            total += zp * (size if real_s else (a + n) ** minus_s)
            mass += bound
            zp *= z
            geo *= az
            n += 1
    if not bound < tol:  # the loop stopped at the term cap
        raise AccuracyError("defining series hit the term cap",
                            achieved=bound)
    return complex(total), bound + _SUM_ULPS * (1.0 - az) * mass, n


def eval_series_direct(p, tol=1e-12):
    """Defining power series, valid inside the unit disk (_series_sum);
    ConditioningError where a term is past the double range."""
    if abs(p.z) >= 1.0:
        raise DomainError("direct series needs |z| < 1")
    try:
        value, est, n = _series_sum(p.z, p.s, p.a, tol)
    except (OverflowError, ZeroDivisionError):
        raise ConditioningError("a term of the direct series is past the "
                                f"double range at a = {p.a}, s = {p.s}"
                                ) from None
    return EngineReport(value, est, n, 0, "direct")


@overflow_is_conditioning
def eval_near_one(p, n_max=60):
    """Branch-point expansion in powers of ln z around z = 1.

    The singular piece carries (-ln z)^(s-1); on the cut its argument
    is set by the point's side, matching the sign used for arg(-z).
    The estimate is the last term kept plus the rounding of the sum,
    _NEAR_ONE_ROUNDING times its largest piece.  ConditioningError where
    a piece is past the double range.
    """
    z, s, a = p.z, p.s, p.a
    ln_z = cmath.log(z)
    if abs(ln_z) >= _TWO_PI:
        raise DomainError("near-one expansion needs |ln z| < 2 pi")
    if ln_z == 0.0:
        # z = 1: the sum is zeta(s, a), where the singular piece and the
        # terms past n = 0 vanish (the first of which is on zeta's pole
        # at s = 2)
        value = hurwitz_zeta(s, a)
        est = _NEAR_ONE_ROUNDING * abs(value) + 1e-15 * abs(value)
        return EngineReport(value, est, 0, 0, "near_one")
    if s.imag == 0.0 and s.real >= 1.0 and s.real == round(s.real):
        raise DomainError("positive integer s hits a gamma pole here; "
                          "use eval_abel_plana")
    sing = (gamma(1.0 - s)
            * cmath.exp((s - 1.0) * _log_neg(ln_z, p.cut_side)))
    warnings = ()
    acc = 0.0j
    lp = 1.0 + 0.0j  # (ln z)^n / n!
    n = 0
    largest = abs(sing)
    while True:
        term = hurwitz_zeta(s - n, a) * lp
        acc += term
        largest = max(largest, abs(term))
        if n and abs(term) <= 1e-16 * abs(acc):
            break
        if n >= n_max:
            warnings = ("n-cap-reached",)
            break
        n += 1
        lp *= ln_z / n
    za = cmath.exp(-a * ln_z)
    value = za * (sing + acc)
    est = (abs(za) * (abs(term) + _NEAR_ONE_ROUNDING * largest)
           + 1e-15 * abs(value))
    return EngineReport(value, est, n, 0, "near_one", warnings)


def _abel_plana_gamma_term(p, s, a, L):
    """e^(-aL) (-L)^(s-1) Gamma(1-s, -aL) of the Abel-Plana form, and a
    bound on its rounding.

    The kernel returns Gamma(1-s, w) = e^(x-w) m (w = -aL), and
    e^(-aL) = e^w, so the term is e^((s-1) ln(-L) + x) m, formed once
    with ln m folded into the exponent where that alone would leave the
    normal range (_exp_scaled): no factor of it is formed on its own.
    Gamma(1-s, w) is continued to the argument arg a + arg(-L) that w
    reaches along the integral path, k turns from the principal one the
    kernel takes (|k| <= 1):
      Gamma(1-s, w e^(2 pi i k)) = e^(2 pi i k (1-s)) Gamma(1-s, w)
          + (1 - e^(2 pi i k (1-s))) Gamma(1-s),
    whose last term is -2 pi i k e^(i pi k (1-s)) / Gamma(s) by
    reflection, entire in s, so positive integer s takes the same route.
    That jump is taken against e^(x-w), with -ln Gamma(s) in its exponent
    and the rounding of 1/Gamma(s) and of e^(i pi k (1-s)) in its error.
    """
    log_neg_l = _log_neg(L, p.cut_side)
    w = -a * L
    if w.imag == 0.0:
        w = complex(w.real, 0.0)  # the kernel reads arg w = +pi
    ln_w = cmath.log(w)
    x, m, err = _upper_incomplete_gamma(1.0 - s, w)
    # the rounding of the arguments 1 - s and w, which the kernel does
    # not see: _IGAMMA_ULPS of |Gamma(1-s, w)| and |w^(1-s) e^(-w)|, in
    # units of |e^(x-w)|.  On 7,500 seeded band draws and 2,000 at
    # e < |z| <= 1e4, against mpmath at the exact arguments, the kernel's
    # bound alone was never under the error (worst err/bound 0.32), while
    # 128 ulps of the sizes alone, without it, missed at 53 draws by up to
    # 15.7x
    err += _IGAMMA_ULPS * (abs(m) + abs(cmath.exp((1.0 - s) * ln_w - x)))
    k = round((cmath.phase(a) + log_neg_l.imag - ln_w.imag) / _TWO_PI)
    if k and _nonpositive_integer(s) is None:
        turn = 1j * math.pi * k * (1.0 - s)
        lg, sign = _signed_log_gamma(s)
        x, m, err = _scaled_difference(
            x + 2.0 * turn, m, err, w + turn - lg, _TWO_PI * 1j * k * sign,
            _TWO_PI * abs(k) * _gamma_rounding(s))
    front = (s - 1.0) * log_neg_l
    value, err = _exp_scaled(front + x, m, err + _IGAMMA_ULPS * (
        abs(front) + abs(x)) * abs(m))
    return value, err + _SUM_ULPS * abs(value)


def _head_size(term, s, a):
    # |term| weighted for _SUM_ULPS: its a^(-s) rounds like |s ln a| ulps
    return abs(term) * (1.0 + abs(s * cmath.log(a)) / 64.0)


def _shift_ready(a):
    # Re a > 0, and Re a >= 1 at complex a: one of (a +/- it)^(-s) has its
    # branch point Re a from the Abel-Plana integral's path
    return a.real > 0.0 and (not a.imag or a.real >= 1.0)


def eval_abel_plana(p):
    """Abel-Plana summation of the defining series, for any z != 0.

    With f(x) = z^x (a+x)^(-s) and L = ln z,
      Phi = a^(-s)/2 + e^(-aL) (-L)^(s-1) Gamma(1-s, -aL)
            + i int_0^oo [f(it) - f(-it)] / (e^(2 pi t) - 1) dt,
    the integral by the kernel's _abel_plana_integral, which at L = 0 is
    Hermite's for zeta(s, a).  The Gamma term is continued along the
    integral path, in log space past the double range
    (_abel_plana_gamma_term); on the cut arg(-L) is set by the point's
    side, as in log_neg_z.  Phi(z,s,a) = a^(-s) + z Phi(z,s,a+1) shifts a
    up out of Re a <= 0, and a complex a to Re a >= 1 (_shift_ready).
    Past |z| = 1 it takes one step down, to a - 1, where that point is
    ready too and twice the head term z^(-1) (a-1)^(-s) it adds (once in
    the head, once as the scale of the pieces at a - 1) is below the
    a^(-s)-sized pieces it replaces: at huge |z| the value, about
    -(a-1)^(-s)/z, then sits in the head, not in a cancellation.  The
    estimate covers the quadrature's change and the rounding of the
    integral of |integrand|, the head, a^(-s)/2 and the Gamma term, so
    their cancellation against the result.  n_terms counts integrand
    evaluations.  The value is exactly real on the real axis left of the
    cut at real s and a > 0.  ConditioningError where a piece or the
    value is past the double range (z^k of the Re a <= 0 shift, and Phi
    with it; EngineReport refuses the latter).
    """
    z, s, a = p.z, p.s, p.a
    if z == 0.0:
        raise DomainError("Abel-Plana form needs z != 0")
    L = cmath.log(z)
    head, head_size, zk = 0.0j, 0.0, 1.0 + 0.0j
    try:
        while not _shift_ready(a):
            term = zk * a ** -s
            head += term
            head_size += _head_size(term, s, a)
            zk *= z
            a += 1.0
        if (L.real > 0.0 and _shift_ready(a - 1.0) and
                (s * cmath.log(a / (a - 1.0))).real < L.real - math.log(2.0)):
            zk /= z
            a -= 1.0
            term = zk * a ** -s
            head -= term
            head_size += _head_size(term, s, a)
        half = 0.5 * a ** -s
        if L == 0.0:
            # z = 1 (so Re s > 1): the Gamma term tends to a^(1-s)/(s-1)
            gterm = a ** (1.0 - s) / (s - 1.0)
            gterm_err = _SUM_ULPS * abs(gterm)
        else:
            gterm, gterm_err = _abel_plana_gamma_term(p, s, a, L)
        integral, quad_err, mass, evals = _abel_plana_integral(s, a, L)
    except (OverflowError, ZeroDivisionError):
        raise ConditioningError("a piece of the Abel-Plana form is past the "
                                f"double range at a = {a}, s = {s}") from None
    value = head + zk * (half + gterm + integral)
    if (z.imag == 0.0 and not p.on_cut and s.imag == 0.0
            and p.a.imag == 0.0 and p.a.real > 0.0):
        # Phi is real on the real axis left of the cut at real s and
        # a > 0; the imaginary parts of the pieces cancel to rounding
        value = complex(value.real, 0.0)
    est = (abs(zk) * (quad_err + _SUM_ULPS * mass + gterm_err
                      + _SUM_ULPS * abs(half))
           + _SUM_ULPS * head_size)
    return EngineReport(value, est, evals, 0, "abel_plana")


@lru_cache(maxsize=64)
def _closed_form_coefficients(d, S):
    # c_j of the branch part at a = k + d, |Re d| <= 1/2, with the summed
    # sizes of its two pieces: (-1)^k b_(S-1-j)(a) = b_(S-1-j,0)(d) +
    # d^(j-S) / (2 pi i), for j < S.  At d = 0 that pole pairs with the
    # residue n = k into c_S = -1/(2 pi i).  The powers of d are built by
    # division: complex ** past exponent 100 goes through exp and log
    table = csc_coefficients_subtracted(d, 0, S).values
    if not d:
        return tuple((b, abs(b)) for b in reversed(table)) + (
            (0.5j / math.pi, 0.5 / math.pi),)
    out, q = [], 1.0
    for b in table:
        q /= d  # d^(-(n+1)) for b = b_(n,0)
        out.append((b + q / _TWO_PI_I, abs(b) + abs(q) / _TWO_PI))
    return tuple(reversed(out))


def eval_integer_s_large_z(p, tol=1e-10):
    """Closed large-z form at an exact integer s = S (a zero imaginary
    part and an integer real part; DomainError at any other s).

    Phi is a branch part, front * sum_(j<=S) c_j L^j / j! (L = ln(-z);
    empty when S <= 0), and the residue series sum_{n>=1} z^(-n)
    (n-a)^(-S) = z^(-1) Phi(1/z, S, 1-a), the defining series at 1/z
    (_series_sum) summed to tol.  The branch part is the main theorem's
    logarithmic series, which 1/Gamma(S - m) ends at m = S: with
    a = k + d, k = round(Re a), front = (-1)^k 2 pi i e^(-aL), and c_j
    from _closed_form_coefficients.  At integer a (d = 0; LerchPoint
    refuses k <= 0) the residue series leaves out its singular term
    n = k and is summed to double precision.  L^j / j! is built by ratio
    from j = 0, so only terms too small to count underflow.  The
    estimate adds _SUM_ULPS of the branch part's term sizes, each
    weighted by S - j + |aL|, about the ulps by which the powers d^(j-S)
    and the front's exponent round; near an integer a those powers
    cancel against the residue term n ~ a (d and n - a are exact).
    ConditioningError where a term, the value or the estimate is past
    the double range, or where S is past the tables' _COUNT_CAP.
    """
    if not _near_integer(p.s, 0.0):
        raise DomainError(f"integer-s closed form needs integer s: {p.s}")
    z, a = p.z, p.a
    S = round(p.s.real)
    az = abs(z)
    if az <= 1.0:
        raise DomainError("integer-s closed form needs |z| > 1")
    if S > _COUNT_CAP:
        raise ConditioningError(f"the logarithmic series at S = {S} is past "
                                f"the {_COUNT_CAP} coefficients the tables "
                                "hold")
    L = _branch_log(p)
    k = round(a.real)
    integer_a = S >= 1 and a == k
    zinv = 1.0 / z
    try:
        front, coeffs = 0.0, ()
        if S >= 1:
            front = (-_TWO_PI_I if k % 2 else _TWO_PI_I) * cmath.exp(-a * L)
            coeffs = _closed_form_coefficients(a - k, S)
        branch = 0.0j
        size = weighted = 0.0  # sum |t_j|; its running sums: sum (S-j)|t_j|
        power = 1.0 + 0.0j  # L^j / j!
        for j, (c, c_size) in enumerate(coeffs):
            if j:
                power *= L / j
            branch += c * power
            size += c_size * abs(power)
            weighted += size
        branch *= front
        if integer_a:
            head = [zinv ** n * float(n - k) ** -S for n in range(1, k)]
            scale = az ** -(k + 1)  # 0 once it underflows
            # Li_S(1/z) to double precision, or to tol where that is
            # tighter
            sub_tol = min(tol / scale, 2.0 ** -53) if scale else 2.0 ** -53
            tail, est, n_terms = _series_sum(zinv, complex(S), 1.0, sub_tol)
            tail = sum(head, z ** -k * zinv * tail)
            n_terms += k - 1
            est = est * scale + _SUM_ULPS * sum(map(abs, head))
        else:
            tail, est, n_terms = _series_sum(zinv, complex(S), 1.0 - a,
                                             tol * az)
            tail *= zinv
            est /= az
        est += _SUM_ULPS * (weighted + abs(a * L) * size) * abs(front)
    except (OverflowError, ZeroDivisionError):
        raise ConditioningError("a term of the integer-s closed form is past "
                                f"the double range at S = {S}") from None
    sign = -1.0 if S % 2 else 1.0
    value = branch - sign * tail
    return EngineReport(value, est, n_terms, max(S, 0), "integer_s")


def choose_optimal_M(p, N):
    """Truncation of the logarithmic series that balances its remainder
    against the |z|^(-N-1) scale: round |(N+1-a) ln(-z)| + Re s - 1."""
    if abs(p.z) <= math.e:
        raise DomainError("optimal truncation defined for |z| > e")
    if N <= p.a.real:
        raise DomainError("needs N > Re a")
    L = _branch_log(p)
    return max(1, round(abs((N + 1.0 - p.a) * L) + p.s.real - 1.0))


def remainder_estimate(p, N, M):
    """Order-of-magnitude estimate of the resummed theorem's remainder at
    depth (N, M): |(-z)^(-a)| Gamma(M+1-s) sqrt|M+1-s| / |(N+1-a)L|^Re(M+1-s),
    implied constant 1 (an estimate, never a certified bound)."""
    L = _branch_log(p)
    x = M + 1.0 - p.s
    expo = (-(p.a * L).real + log_gamma(x).real
            - x.real * math.log(abs((N + 1.0 - p.a) * L)))
    return math.sqrt(abs(x)) * math.exp(min(expo, 700.0))


def _mirror_terms(p):
    """The mirror-term stream of the large-z expansions: for n = 0, 1, ...
    the pair (direct incomplete-gamma term over a + n, pair term over
    a - n), with pair term 0 equal to 0.  The first N + 1 of them are the
    two explicit sums of the resummed theorem at depth N; what is left
    after removing both from the function is the branch-part remainder
    that the logarithmic series approximates."""
    L = _branch_log(p)
    yield _first_sum_term(p, 0, L), 0
    for n in itertools.count(1):
        yield _first_sum_term(p, n, L), _pair_term(p, n, L)


@overflow_is_conditioning
def eval_main_theorem(p, N, m_override=None):
    """Resummed large-z theorem at depth N with the optimally truncated
    logarithmic series.

    Assembles the direct incomplete-gamma sum over a + n, the entire
    pair terms over a - n, and the subtracted-coefficient logarithmic
    series truncated at choose_optimal_M (or m_override).  The estimate
    is remainder_estimate at the depth used, floored at _SUM_ULPS of the
    sizes of the terms summed.  ConditioningError where a term, the value
    or the estimate is past the double range.
    """
    z, s, a = p.z, p.s, p.a
    if abs(z) <= 1.0:
        raise DomainError("large-z theorem needs |z| > 1")
    if a.real <= 0.0:
        raise DomainError("large-z theorem needs Re a > 0")
    if N <= a.real:
        raise DomainError("needs N > Re a")
    if _near_integer(s):
        raise DomainError("s within 1e-12 of an integer: use "
                          "eval_integer_s_large_z at an integer, "
                          "eval_abel_plana near one")
    terms = list(itertools.islice(_mirror_terms(p), N + 1))
    first = sum(t for t, _ in terms)
    pairs = sum(u for _, u in terms)
    size = sum(abs(t) + abs(u) for t, u in terms)
    L = _branch_log(p)
    M = choose_optimal_M(p, N) if m_override is None else int(m_override)
    warnings = []
    m_eff = min(M, _COUNT_CAP)
    if m_eff < M:
        warnings.append("m-count-capped")
    coeffs = csc_coefficients_subtracted(a, N, m_eff).values
    second = 0.0j
    for t in _log_series_terms(p, L, coeffs):
        if t is None:
            if "m-term-underflow" not in warnings:
                warnings.append("m-term-underflow")
        else:
            second += t
            size += abs(t)
    value = first + second + pairs
    est = max(remainder_estimate(p, N, m_eff), _SUM_ULPS * size)
    return EngineReport(value, est, N, m_eff, "main_theorem",
                        tuple(warnings))


@overflow_is_conditioning
def residue_series(p, N, half_turns=None):
    """Residue series content beyond the first N mirror pairs:
    -e^(-i pi s sigma) sum_{n>N} z^(-n) (n-a)^(-s).  Subtracting this
    (and the two explicit sums) from the function leaves exactly the
    branch-part remainder that the logarithmic series targets.

    sigma = half_turns defaults to (ln z - L) / (i pi), the signed
    half-turn count of the point's branch log L.  Callers
    whose companion series is anchored to one fixed orientation (the
    factorial rearrangement) pass half_turns explicitly.  The sum is
    z^(-N-1) Phi(1/z, s, N+1-a): the defining series at 1/z
    (_series_sum), to 1e-18 of its first term, while |1/z| <= 0.9, and
    the Abel-Plana engine nearer |z| = 1, as in eval_auto.
    ConditioningError where a term or the sum is past the double range.
    """
    z, s, a = p.z, p.s, p.a
    if abs(z) <= 1.0:
        raise DomainError("residue series needs |z| > 1")
    if half_turns is None:
        half_turns = round((cmath.log(z) - _branch_log(p)).imag / math.pi)
    front = -cmath.exp(-1j * math.pi * s * half_turns)
    b = N + 1.0 - a
    if abs(z) >= 1.0 / 0.9:
        # floored where it underflows: |z|^(-N-1) < 1 scales the sum
        tol = max(1e-18 * abs(b ** -s), sys.float_info.min)
        total = _series_sum(1.0 / z, s, b, tol)[0]
    else:
        total = eval_abel_plana(LerchPoint(1.0 / z, s, b)).value
    return front * z ** -(N + 1) * total


@overflow_is_conditioning
def eval_symmetric_igamma(p, N_max=400, tol=1e-10):
    """Convergent symmetric incomplete-gamma expansion.

    The mirror pairs decay like (-1)^n / n^2, so the raw series is slow;
    six levels of pairwise averaging of the partial sums squeeze out the
    alternating part.  Stops when the averaged increment drops under tol
    (relative past magnitude 1), else flags the cap.  The estimate is the
    last increment, floored at _SUM_ULPS of the sizes of the terms
    summed.  ConditioningError where a term is past the double range.
    """
    z, a = p.z, p.a
    if abs(z) <= 1.0:
        raise DomainError("symmetric expansion needs |z| > 1")
    if a.real <= 0.0:
        raise DomainError("symmetric expansion needs Re a > 0")
    levels = 6
    terms = _mirror_terms(p)
    value = next(terms)[0]
    size = abs(value)
    # rows[k] is the latest value at averaging level k (level 0 holds the
    # partial sums); a new partial sum moves each level on by one average
    # of its two latest values, and the increment is the step at the top
    rows = [value]
    warnings = ()
    n = 0
    inc = abs(value)
    while True:
        if n >= N_max:
            warnings = ("n-cap-reached",)
            break
        n += 1
        first, pair = next(terms)
        size += abs(first) + abs(pair)
        avg = rows[0] + first + pair
        for k in range(min(len(rows), levels)):
            rows[k], avg = avg, 0.5 * (rows[k] + avg)
        if len(rows) <= levels:
            rows.append(avg)
            continue
        inc = abs(avg - rows[-1])
        value = rows[-1] = avg
        if inc <= tol * max(1.0, abs(value)):
            break
    return EngineReport(value, max(inc, _SUM_ULPS * size), n, 0,
                        "symmetric_igamma", warnings)


@overflow_is_conditioning
def eval_fl_expansion(p, n_z_terms, n_log_terms):
    """Comparison large-z expansion: entire pair terms plus the plain
    (unresummed) logarithmic series.

    The logarithmic series is the main theorem's (_log_series_terms) with
    the weights b_m = A_(m+1)(a) / (2 pi i), A_p the one-sided alternating
    power sums sum_k (-1)^k (a + k)^(-p) of the coefficient kernel, so its
    terms are e^(-aL) (s-1)...(s-m) A_(m+1)(a) L^(s-1-m) / Gamma(s).  It
    is asymptotic with an accuracy floor; the first omitted term is the
    reported estimate, and a term that underflows counts as 0.  Terms
    past the double range (n_log_terms from about 160 at |z| = 10) raise
    ConditioningError.
    """
    z, s, a = p.z, p.s, p.a
    if abs(z) <= 1.0:
        raise DomainError("comparison expansion needs |z| > 1")
    if a.real <= 0.0:
        raise DomainError("comparison expansion needs Re a > 0")
    if s.imag == 0.0 and s.real <= 0.0 and s.real == round(s.real):
        raise DomainError("non-positive integer s zeroes the front factor; "
                          "use the integer-s engine")
    if not 0 <= n_log_terms < _COUNT_CAP:
        raise ValueError(f"n_log_terms must be in [0, {_COUNT_CAP - 1}], "
                         f"got {n_log_terms}")
    L = _branch_log(p)
    weights = [w / (2j * math.pi)
               for w in _alternating_power_sums(a, n_log_terms + 1)]
    *kept, last = (0.0 if t is None else t
                   for t in _log_series_terms(p, L, weights))
    pair_part = sum(_pair_term(p, n, L) for n in range(1, n_z_terms + 1))
    value = sum(kept, 0.0j) + pair_part
    return EngineReport(value, abs(last), n_z_terms, n_log_terms,
                        "fl_expansion")


def _meets_target(rep, target_tol):
    """Whether a report's estimate meets target_tol, relative past
    magnitude 1 (the criterion the symmetric expansion stops on)."""
    return rep.abs_err_estimate <= target_tol * max(1.0, abs(rep.value))


def eval_auto(p, target_tol=1e-10):
    """Dispatcher.

    The direct series inside |z| <= 0.9, and the closed form at an exact
    integer s past |z| = e (at integer a, the polylogarithm's), answer
    where their estimates, rounding included, meet target_tol (relative
    past magnitude 1).  A refusal misses it too: the closed form's
    ConditioningError, and the series' ConditioningError or AccuracyError
    (its term cap, as at a target <= 0) except at z = 0.  Every other
    point goes to the Abel-Plana engine, which answers to about double
    precision or raises ConditioningError; its report carries
    "target-tol-unmet" where it misses the target.
    """
    z, s = p.z, p.s
    az = abs(z)
    if az <= 0.9:
        try:
            rep = eval_series_direct(p, tol=target_tol)
            if _meets_target(rep, target_tol) or z == 0.0:
                return rep
        except (ConditioningError, AccuracyError):
            if z == 0.0:  # the Abel-Plana engine needs z != 0
                raise
    elif az >= math.e and _near_integer(s, 0.0):
        # near an integer a the branch part and residue series cancel; a
        # ConditioningError is a miss too
        try:
            rep = eval_integer_s_large_z(p, target_tol)
            if _meets_target(rep, target_tol):
                return rep
        except ConditioningError:
            pass
    rep = eval_abel_plana(p)
    return rep if _meets_target(rep, target_tol) else rep._replace(
        warnings=rep.warnings + ("target-tol-unmet",))
