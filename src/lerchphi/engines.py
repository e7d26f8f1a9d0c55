"""Evaluation strategies for the Lerch transcendent across the z-plane.

Small |z| is the defining series.  The band around |z| = 1 has two
engines: the Abel-Plana summation of the defining series (one incomplete
gamma and one quadrature, any s), which eval_auto uses, and the
branch-point expansion in powers of ln z.  Past |z| = e the work splits
into an exact closed form for integer s (the polylogarithm's inversion
formula at integer a), the resummed large-z theorem with optimally
truncated logarithmic series, a slowly convergent symmetric
incomplete-gamma expansion accelerated by repeated averaging, and a
comparison expansion kept mainly to demonstrate its accuracy floor.
eval_auto routes between them; it needs no mpmath, and this module
does not import the oracle.

Branch bookkeeping: every large-z piece is written against
L = log_neg_z(z, side), and the mirrored (-n) terms are folded with
their residue corrections into an entire "pair" form built on the
scaled lower incomplete gamma, so no continued branches appear
anywhere.  On the cut the side flag decides arg(-z) = -/+ pi and, in
the near-one and Abel-Plana engines, arg(-ln z).
"""

import cmath
import itertools
import math

from ._quadrature import _tanh_sinh_chunked
from ._types import EngineReport
from .coefficients import (csc_coefficients, csc_coefficients_subtracted,
                           log_power_coefficients)
from .errors import AccuracyError, ConditioningError, DomainError
from .special_kernel import (_BERNOULLI, _near_gamma_pole,
                             _scaled_igamma_asymptotic, gamma, gamma_star,
                             hurwitz_zeta_block, log_gamma, log_neg_z,
                             reciprocal_gamma, signed_pi,
                             upper_incomplete_gamma)

_TWO_PI = 2.0 * math.pi
# past this |Re w| the incomplete-gamma factors are carried in log space
_LOG_SPACE_W = 600.0
_DIRECT_CAP = 10 ** 6
# rounding of the near-one sum relative to its largest piece (the
# singular part or a zeta term): the kernel's zeta values and the
# cancellation between the pieces.  On the 96 near-one points of the
# benchmark's ring pool the worst needed 1.05e-14; this keeps 4x room.
_NEAR_ONE_ROUNDING = 4e-14
# zeta(s - n, a) values the near-one sum asks the kernel for at once: the
# ones on the integral route share a quadrature pass, and a sum that
# stops mid-block wastes at most the rest of that block
_ZETA_BLOCK = 16
_M_TABLE_CAP = 200
# Abel-Plana quadrature: relative target, and the rounding allowed for
# on the integral of |integrand| and on the explicit terms
_AP_REL_TOL = 1e-15
_AP_ULPS = 64.0 * 2.0 ** -52
# rounding of the integer-a polylogarithm form, in ulps of its terms
_POLYLOG_ULPS = 16.0 * 2.0 ** -52
# rounding of the kernel's Gamma(1-s, w), in ulps of the sizes its
# subtraction routes cancel from.  On 7,500 seeded band points with
# |Im s| <= 8, checked against mpmath, 4 times the recurrence gauge plus
# 64 ulps of those sizes was never under the kernel's error by more than
# 1.03x; the engine doubles both.
_AP_GAMMA_ULPS = 128.0 * 2.0 ** -52


def _near_integer(s, tol=1e-12):
    return abs(s - round(s.real)) <= tol


def _branch_log(p):
    return log_neg_z(p.z, p.cut_side).value


def _half_turns(p, L):
    # ln z - L is +/- i pi; the sign feeds the log-space forms of z^n e^(-nL)
    return round((cmath.log(p.z) - L).imag / math.pi)


def _first_sum_term(p, n, L, rg_s, sigma):
    # z^n Gamma(s, (a+n)L) / ((a+n)^s Gamma(s))
    s, a = p.s, p.a
    w = (a + n) * L
    if w.real <= _LOG_SPACE_W:
        u = upper_incomplete_gamma(s, w)
        return p.z ** n * rg_s * u * (a + n) ** -s
    # z^n e^(-w) = e^(-aL) (-1)^(n sigma) exactly; keep it that way
    expo = (-a * L + 1j * math.pi * sigma * n
            + (s - 1.0) * cmath.log(w) - s * cmath.log(a + n))
    return rg_s * _scaled_igamma_asymptotic(s, w) * cmath.exp(expo)


def _pair_term(p, n, L, rg_s, sigma):
    # the n-th mirror term with its residue folded in:
    # -z^(-n) L^s gammastar(s, (a-n)L), entire in a, no branch to track
    s, a = p.s, p.a
    w = (a - n) * L
    if w.real >= -_LOG_SPACE_W:
        return -(p.z ** -n) * cmath.exp(s * cmath.log(L)) * gamma_star(s, w)
    lead = -(p.z ** -n) * cmath.exp(s * (cmath.log(L) - cmath.log(w)))
    expo = (-a * L - 1j * math.pi * sigma * n
            + s * cmath.log(L) - cmath.log(w))
    return lead + rg_s * _scaled_igamma_asymptotic(s, w) * cmath.exp(expo)


def _log_series_terms(p, L, coeffs):
    """Terms of the resummed logarithmic series for the given coefficient
    run: 2 pi i e^(-aL) b_m L^(s-1-m) / Gamma(s-m).  The reciprocal gamma
    goes through the reflection formula so each term is one exponential;
    a term whose exponent underflows is reported as None."""
    s = p.s
    sin_ratio = cmath.sin(cmath.pi * s) / math.pi
    ln_l = cmath.log(L)
    front = 2j * math.pi * cmath.exp(-p.a * L) * sin_ratio
    out = []
    sign = 1.0
    for m, b in enumerate(coeffs):
        expo = log_gamma(1.0 + m - s) + (s - 1.0 - m) * ln_l
        if expo.real < -745.0:
            out.append(None)
        else:
            out.append(front * sign * b * cmath.exp(expo))
        sign = -sign
    return out


def eval_series_direct(p, tol=1e-12):
    """Defining power series, valid inside the unit disk.

    Stops once the geometric tail bound drops under tol; that bound is
    the reported estimate.
    """
    z, s, a = p.z, p.s, p.a
    az = abs(z)
    if az >= 1.0:
        raise DomainError("direct series needs |z| < 1")
    inv_gap = 1.0 / (1.0 - az)
    total = 0.0j
    zp = 1.0 + 0.0j
    n = 0
    while True:
        bound = az ** n * abs(a + n) ** -s.real * inv_gap
        if n and bound < tol:
            break
        if n >= _DIRECT_CAP:
            raise AccuracyError("direct series hit the term cap",
                                achieved=bound)
        total += zp * (a + n) ** -s
        zp *= z
        n += 1
    return EngineReport(total, bound, n, 0, "direct")


def eval_near_one(p, n_max=60):
    """Branch-point expansion in powers of ln z around z = 1.

    The singular piece carries (-ln z)^(s-1); on the cut its argument
    is set by the point's side, matching the sign used for arg(-z).
    The estimate is the last term kept plus the rounding of the sum,
    _NEAR_ONE_ROUNDING times its largest piece.
    """
    z, s, a = p.z, p.s, p.a
    ln_z = cmath.log(z)
    if abs(ln_z) >= _TWO_PI:
        raise DomainError("near-one expansion needs |ln z| < 2 pi")
    if s.imag == 0.0 and s.real >= 1.0 and s.real == round(s.real):
        raise DomainError("positive integer s hits a gamma pole here; "
                          "use eval_abel_plana")
    if p.on_cut:
        neg_ln = complex(math.log(abs(ln_z)), signed_pi(p.cut_side))
        sing = gamma(1.0 - s) * cmath.exp((s - 1.0) * neg_ln)
    elif ln_z == 0.0:
        sing = 0.0j  # only reachable for Re s > 1 where the power vanishes
    else:
        sing = gamma(1.0 - s) * cmath.exp((s - 1.0) * cmath.log(-ln_z))
    warnings = ()
    acc = 0.0j
    lp = 1.0 + 0.0j  # (ln z)^n / n!
    n = 0
    largest = abs(sing)
    zetas = []
    while True:
        if n == len(zetas):
            zetas += hurwitz_zeta_block(s - n, a, min(_ZETA_BLOCK,
                                                      n_max + 1 - n))
        term = zetas[n] * lp
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

    Gamma(1-s, w) is continued to the argument arg a + arg(-L) that
    w = -aL reaches along the integral path, k turns from the principal
    one the kernel takes (|k| <= 1):
      Gamma(1-s, w e^(2 pi i k)) = e^(2 pi i k (1-s)) Gamma(1-s, w)
          + (1 - e^(2 pi i k (1-s))) Gamma(1-s),
    whose last term is -2 pi i k e^(i pi k (1-s)) / Gamma(s) by
    reflection, entire in s, so positive integer s takes the same route.
    The kernel's rounding is gauged by the recurrence
    Gamma(1-s, w) = -s Gamma(-s, w) + w^(-s) e^(-w), whose sides it
    computes apart, and by _AP_GAMMA_ULPS of the sizes a subtraction
    route cancels from.
    """
    if p.on_cut:
        log_neg_l = complex(math.log(abs(L)), signed_pi(p.cut_side))
    else:
        log_neg_l = cmath.log(-L)
    w = -a * L
    if w.imag == 0.0:
        w = complex(w.real, 0.0)  # the kernel reads arg w = +pi
    upper = upper_incomplete_gamma(1.0 - s, w)
    ln_w = cmath.log(w)
    edge = cmath.exp(-s * ln_w - w)  # w^(-s) e^(-w)
    gauge = abs(upper + s * upper_incomplete_gamma(-s, w) - edge)
    sizes = abs(upper) + abs(edge * w)
    if _near_gamma_pole(1.0 - s) is None:
        sizes += abs(gamma(1.0 - s))
    err = 8.0 * gauge + _AP_GAMMA_ULPS * sizes
    k = round((cmath.phase(a) + log_neg_l.imag - ln_w.imag) / _TWO_PI)
    if k:
        turn = cmath.exp(1j * math.pi * k * (1.0 - s))
        jump = _TWO_PI * 1j * k * turn * reciprocal_gamma(s)
        upper = turn * turn * upper - jump
        err = abs(turn) ** 2 * err + _AP_ULPS * abs(jump)
    front = cmath.exp(-a * L + (s - 1.0) * log_neg_l)
    value = front * upper
    return value, abs(front) * err + _AP_ULPS * abs(value)


def eval_abel_plana(p):
    """Abel-Plana summation of the defining series, for any z != 0.

    With f(x) = z^x (a+x)^(-s) and L = ln z,
      Phi = a^(-s)/2 + e^(-aL) (-L)^(s-1) Gamma(1-s, -aL)
            + i int_0^oo [f(it) - f(-it)] / (e^(2 pi t) - 1) dt,
    the integral by chunked tanh-sinh over [0, 2, 8, ...] out to
    max(14, 6 + 1.1 |Re s|): with |Im L| <= pi the integrand decays like
    e^(-pi t) at least, and the range grows with |Re s| for the power
    |a + it|^(-Re s).  The Gamma term is continued along the
    integral path (_abel_plana_gamma_term); on the cut arg(-L) is set by
    the point's side, as in log_neg_z.  Re a <= 0 is first shifted by
    Phi(z,s,a) = a^(-s) + z Phi(z,s,a+1).  The estimate covers the
    quadrature's change, the rounding of the integral of |integrand|,
    and that of a^(-s)/2 and the Gamma term, so their cancellation
    against the result.  n_terms counts integrand evaluations.
    """
    z, s, a = p.z, p.s, p.a
    if z == 0.0:
        raise DomainError("Abel-Plana form needs z != 0")
    head = 0.0j
    head_size = 0.0
    zk = 1.0 + 0.0j
    while a.real <= 0.0:
        term = zk * a ** -s
        head += term
        head_size += abs(term)
        zk *= z
        a += 1.0
    L = cmath.log(z)
    half = 0.5 * a ** -s
    if L == 0.0:
        # z = 1 (so Re s > 1): the Gamma term tends to a^(1-s)/(s-1)
        gterm = a ** (1.0 - s) / (s - 1.0)
        gterm_err = _AP_ULPS * abs(gterm)
    else:
        gterm, gterm_err = _abel_plana_gamma_term(p, s, a, L)
    evals = 0

    def integrand(t):
        nonlocal evals
        evals += 1
        it_l = 1j * t * L
        up = cmath.exp(it_l - s * cmath.log(a + 1j * t))
        down = cmath.exp(-it_l - s * cmath.log(a - 1j * t))
        return 1j * (up - down) / math.expm1(_TWO_PI * t)

    t_max = max(14.0, 6.0 + 1.1 * abs(s.real))
    edges = [0.0, 2.0]
    while edges[-1] < t_max:
        edges.append(min(4.0 * edges[-1], t_max))
    integral, quad_err, mass = _tanh_sinh_chunked(integrand, edges,
                                                  _AP_REL_TOL)
    value = head + zk * (half + gterm + integral)
    est = (abs(zk) * (quad_err + _AP_ULPS * mass + gterm_err
                      + _AP_ULPS * abs(half))
           + _AP_ULPS * head_size)
    return EngineReport(value, est, evals, 0, "abel_plana")


def _polylog_branch(S, L):
    """-(2 pi i)^S / S! B_S(1/2 + L/(2 pi i)), the branch part of the
    polylogarithm's inversion formula
      Li_S(z) = -(-1)^S Li_S(1/z) - (2 pi i)^S / S! B_S(1/2 + L/(2 pi i)),
    L = ln(-z), S >= 1, and the sum of the sizes of its terms.

    With x = 1/2 + L/(2 pi i), (2 pi i)^S / S! B_S(x) is
    sum_j c_j y^(S-j) / (S-j)!, y = 2 pi i x, c_j = B_j (2 pi i)^j / j!
    (1, -i pi, then -2 zeta(j) at even j and 0 at odd j, none larger
    than 2 zeta(2)).  B_S(x) = (-1)^S B_S(1-x) lets y be L + i pi or i pi - L,
    whichever has |Im y| <= pi, so the terms stay near the result's size.
    """
    sign = -1.0
    if L.imag > 0.0:
        L = -L
        sign = 1.0 if S % 2 else -1.0
    y = L + 1j * math.pi
    total = 0.0j
    size = 0.0
    for j in range(S + 1):
        if j == 0:
            c = 1.0
        elif j == 1:
            c = -1j * math.pi
        elif j % 2:
            continue
        elif j <= 2 * len(_BERNOULLI):
            c = (float(_BERNOULLI[j // 2 - 1]) * (-1) ** (j // 2)
                 * _TWO_PI ** j / math.factorial(j))
        else:  # -2 zeta(j), j >= 26: five terms reach 1e-18
            c = -2.0 * sum(n ** -j for n in range(1, 6))
        term = c * y ** (S - j) / math.factorial(S - j)
        total += term
        size += abs(term)
    return sign * total, size


def eval_integer_s_large_z(p, S, N_tail):
    """Exact large-z form for integer s = S.

    The branch part is a finite logarithmic polynomial (empty when
    S <= 0) and the rest is a geometric-type tail over the residues,
    truncated at N_tail with an explicit bound.  At S >= 1 and integer
    a = k (k >= 1; LerchPoint refuses k <= 0) the residue poles collide
    and the polylogarithm takes over:
    Phi = z^(-k) (Li_S(z) - sum_{n<k} z^n / n^S), with Li_S(z) by
    inversion (_polylog_branch).  Its Li_S(1/z) series and the finite
    sum are the same tail with the term n = k left out, so N_tail must
    reach k.
    """
    S = int(S)
    if abs(p.s - S) > 1e-12:
        raise ValueError(f"engine called with s = {p.s} but S = {S}")
    a = p.a
    az = abs(p.z)
    if az <= 1.0:
        raise DomainError("integer-s closed form needs |z| > 1")
    L = _branch_log(p)
    branch = 0.0j
    skip = 0  # the colliding tail term, at integer a
    size = 0.0  # of the terms, for their rounding
    if S >= 1 and _near_integer(a, 0.0):
        skip = round(a.real)
        if N_tail < skip:
            raise ValueError(f"at integer a = {skip} the tail must reach "
                             f"n = {skip}, got N_tail = {N_tail}")
        z_k = p.z ** -skip
        branch, size = _polylog_branch(S, L)
        branch *= z_k
        size *= abs(z_k)
    elif S >= 1:
        b = csc_coefficients(a, S).values
        poly = 0.0j
        for n in range(S):
            poly += b[n] * L ** (S - 1 - n) / math.factorial(S - 1 - n)
        branch = 2j * math.pi * cmath.exp(-a * L) * poly
    zinv = 1.0 / p.z
    zp = 1.0 + 0.0j
    tail = 0.0j
    for n in range(1, N_tail + 1):
        zp *= zinv
        if n != skip:
            term = zp * (n - a) ** -S
            tail += term
            size += abs(term)
    sign = -1.0 if S % 2 else 1.0
    value = branch - sign * tail
    est = az ** (-N_tail - 1) * abs(N_tail + 1.0 - a) ** -S / (1.0 - 1.0 / az)
    if skip:
        # summed to double precision (_integer_tail_size), where the
        # rounding of the terms is no longer below the tail bound
        est += _POLYLOG_ULPS * size
    return EngineReport(value, est, N_tail, max(S, 0), "integer_s")


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
    sigma = _half_turns(p, L)
    rg_s = reciprocal_gamma(p.s)
    yield _first_sum_term(p, 0, L, rg_s, sigma), 0
    for n in itertools.count(1):
        yield (_first_sum_term(p, n, L, rg_s, sigma),
               _pair_term(p, n, L, rg_s, sigma))


def _main_theorem_estimate(p, N):
    """The estimate eval_main_theorem(p, N) reports, without building it:
    remainder_estimate depends on the depth and the capped truncation,
    never on the value."""
    return remainder_estimate(p, N, min(choose_optimal_M(p, N),
                                        _M_TABLE_CAP))


def eval_main_theorem(p, N, m_override=None):
    """Resummed large-z theorem at depth N with the optimally truncated
    logarithmic series.

    Assembles the direct incomplete-gamma sum over a + n, the entire
    pair terms over a - n, and the subtracted-coefficient logarithmic
    series truncated at choose_optimal_M (or m_override).  The estimate
    is remainder_estimate at the depth used.
    """
    z, s, a = p.z, p.s, p.a
    if abs(z) <= 1.0:
        raise DomainError("large-z theorem needs |z| > 1")
    if a.real <= 0.0:
        raise DomainError("large-z theorem needs Re a > 0")
    if N <= a.real:
        raise DomainError("needs N > Re a")
    if _near_integer(s):
        raise DomainError("integer s has an exact closed form; "
                          "use eval_integer_s_large_z")
    terms = list(itertools.islice(_mirror_terms(p), N + 1))
    first = sum(t for t, _ in terms)
    pairs = sum(u for _, u in terms)
    L = _branch_log(p)
    M = choose_optimal_M(p, N) if m_override is None else int(m_override)
    warnings = []
    m_eff = min(M, _M_TABLE_CAP)
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
    value = first + second + pairs
    est = remainder_estimate(p, N, m_eff)
    return EngineReport(value, est, N, m_eff, "main_theorem",
                        tuple(warnings))


def residue_series(p, N, tol=1e-18, half_turns=None):
    """Residue series content beyond the first N mirror pairs:
    -e^(-i pi s sigma) sum_{n>N} z^(-n) (n-a)^(-s).  Subtracting this
    (and the two explicit sums) from the function leaves exactly the
    branch-part remainder that the logarithmic series targets.

    sigma defaults to the signed half-turn count of the point's branch
    log, which is what the incomplete-gamma engines pair with.  Callers
    whose companion series is anchored to one fixed orientation (the
    factorial rearrangement) pass half_turns explicitly.
    """
    z, s, a = p.z, p.s, p.a
    if half_turns is None:
        L = _branch_log(p)
        sigma = _half_turns(p, L)
    else:
        sigma = half_turns
    front = -cmath.exp(-1j * math.pi * s * sigma)
    zp = z ** -(N + 1)
    zinv = 1.0 / z
    total = 0.0j
    n = N + 1
    while True:
        term = zp * (n - a) ** -s
        total += term
        if abs(term) <= tol * max(abs(total), 1e-30) or n > N + 4000:
            break
        zp *= zinv
        n += 1
    return front * total


def eval_symmetric_igamma(p, N_max=400, tol=1e-10):
    """Convergent symmetric incomplete-gamma expansion.

    The mirror pairs decay like (-1)^n / n^2, so the raw series is slow;
    six levels of pairwise averaging of the partial sums squeeze out the
    alternating part.  Stops when the averaged increment drops under tol
    (relative past magnitude 1), else flags the cap.
    """
    z, a = p.z, p.a
    if abs(z) <= 1.0:
        raise DomainError("symmetric expansion needs |z| > 1")
    if a.real <= 0.0:
        raise DomainError("symmetric expansion needs Re a > 0")
    levels = 6
    terms = _mirror_terms(p)
    value = next(terms)[0]
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
    return EngineReport(value, inc, n, 0, "symmetric_igamma", warnings)


def eval_fl_expansion(p, n_z_terms, n_log_terms):
    """Comparison large-z expansion: entire pair terms plus the plain
    (unresummed) logarithmic series.

    The logarithmic series is asymptotic with an accuracy floor; the
    first omitted term is the reported estimate.
    """
    z, s, a = p.z, p.s, p.a
    if abs(z) <= 1.0:
        raise DomainError("comparison expansion needs |z| > 1")
    if a.real <= 0.0:
        raise DomainError("comparison expansion needs Re a > 0")
    if s.imag == 0.0 and s.real <= 0.0 and s.real == round(s.real):
        raise DomainError("non-positive integer s zeroes the front factor; "
                          "use the integer-s engine")
    L = _branch_log(p)
    sigma = _half_turns(p, L)
    rg_s = reciprocal_gamma(s)
    front = rg_s * cmath.exp(-a * L)
    coeffs = log_power_coefficients(s, a, n_log_terms + 1)
    log_part = 0.0j
    for m in range(n_log_terms):
        log_part += coeffs[m] * cmath.exp((s - 1.0 - m) * cmath.log(L))
    pair_part = sum(_pair_term(p, n, L, rg_s, sigma)
                    for n in range(1, n_z_terms + 1))
    value = front * log_part + pair_part
    est = abs(front * coeffs[n_log_terms]
              * cmath.exp((s - 1.0 - n_log_terms) * cmath.log(L)))
    return EngineReport(value, est, n_z_terms, n_log_terms, "fl_expansion")


def _integer_tail_size(az, S, a, target_tol, cap=4000):
    n = 1
    if _near_integer(a, 0.0):
        # the bound holds from the tail term n = a on.  At S >= 1 the
        # tail past it is z^(-a) Li_S(1/z), which costs a few terms more
        # to sum to double precision, its first term 1/z to the last ulp
        n = max(1, round(a.real))
        if S >= 1:
            target_tol = min(target_tol, 2.0 ** -53 * az ** -(n + 1))
    gap = 1.0 - 1.0 / az
    while n < cap:
        if az ** (-n - 1) * abs(n + 1.0 - a) ** -S / gap <= target_tol:
            return n
        n += 1
    return cap


def eval_auto(p, target_tol=1e-10):
    """Dispatcher.

    Inside |z| <= 0.9 the direct series wins.  The band up to |z| = e
    goes to the Abel-Plana engine, integer s included.  Past e, integer
    s takes the exact closed form (at integer a, the polylogarithm's);
    otherwise the resummed theorem's depth N doubles until
    its estimate meets target_tol (N capped by min(40, |z| - 1)), with
    the symmetric expansion as the convergent fallback.  If nothing
    attains the target the best report is returned with a warning.

    The estimate at a depth is known before the theorem is built
    (_main_theorem_estimate), so only the first depth that meets the
    target is built.  The rejected depths are built, in ladder order,
    only when the fallback misses too and the best report is wanted.
    The errors that stop the ladder do not depend on the depth, so the
    result is the one of building every depth in turn.
    """
    z, s, a = p.z, p.s, p.a
    az = abs(z)
    if az <= 0.9:
        return eval_series_direct(p, tol=target_tol)
    if az < math.e:
        return eval_abel_plana(p)
    if _near_integer(s):
        S = round(s.real)
        n_tail = _integer_tail_size(az, S, a, target_tol)
        return eval_integer_s_large_z(p, S, n_tail)

    n_cap = min(40, int(az) - 1)
    n_depth = max(math.ceil(a.real) + 2, 1)
    rejected = []
    while a.real < n_depth <= n_cap:
        try:
            if _main_theorem_estimate(p, n_depth) <= target_tol:
                return eval_main_theorem(p, n_depth)
        except (DomainError, ConditioningError):
            break
        rejected.append(n_depth)
        n_depth *= 2
    fallback = eval_symmetric_igamma(p, N_max=400, tol=target_tol)
    # same mixed absolute/relative criterion the engine stops on
    if (not fallback.warnings and fallback.abs_err_estimate
            <= target_tol * max(1.0, abs(fallback.value))):
        return fallback
    candidates = []
    for n_depth in rejected:
        try:
            candidates.append(eval_main_theorem(p, n_depth))
        except (DomainError, ConditioningError):
            break
    candidates.append(fallback)
    best = min(candidates, key=lambda r: r.abs_err_estimate)
    return EngineReport(best.value, best.abs_err_estimate, best.n_terms,
                        best.m_terms, best.engine,
                        best.warnings + ("target-tol-unmet",))
