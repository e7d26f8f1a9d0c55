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

Accuracy targets (validated in the test suite): gamma/log_gamma rel 1e-13
for |s| <= 50 away from poles; digamma rel 1e-12 for |a| <= 100; Hurwitz
zeta rel 1e-11 for |s| <= 30; incomplete gamma rel 1e-11 for |s| <= 20,
|w| <= 200 away from the anti-Stokes hump where the result itself is
exponentially small against its terms.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from ._quadrature import tanh_sinh_vector
from .errors import AccuracyError, ConditioningError, DomainError, PoleError

__all__ = [
    "BranchedLog",
    "log_neg_z",
    "signed_pi",
    "gamma",
    "log_gamma",
    "reciprocal_gamma",
    "digamma",
    "hurwitz_zeta",
    "hurwitz_zeta_block",
    "upper_incomplete_gamma",
    "gamma_star",
    "gauss_2f1_unit_b",
]

_EULER = 0.5772156649015328606
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# B_2 .. B_24 as exact rationals; converted below to the float constants the
# three asymptotic series actually need.
_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730),
]

# Stirling series for log gamma: sum_k c_k / s^(2k-1), c_k = B_2k/((2k-1)(2k))
_STIRLING = [float(b / ((2 * k + 1) * (2 * k + 2)))
             for k, b in enumerate(_BERNOULLI)]

# Euler-Maclaurin factors B_2k/(2k)! for the Hurwitz zeta correction sum
_EM_FACT = [float(b / math.factorial(2 * k + 2))
            for k, b in enumerate(_BERNOULLI)]

# digamma asymptotic factors B_2k/(2k), truncated at k = 8
_DIGAMMA_FACT = [float(b / (2 * k + 2)) for k, b in enumerate(_BERNOULLI[:8])]


# Tolerances and iteration caps, tuned so the documented accuracy targets
# hold across the stated domains
_IGAMMA_REL_TOL = 5e-16
_IGAMMA_MAX_ITER = 500
_IGAMMA_SERIES_CAP = 1400
_ZETA_QUAD_REL_TOL = 2e-16
_F21_REL_TOL = 1e-14
_F21_MAX_TERMS = 10000


@dataclass(frozen=True)
class BranchedLog:
    """A log value plus which side of the cut produced it."""

    value: complex
    side: str  # "above-cut" | "below-cut" | "off-cut"


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
    sp = signed_pi(side)  # validates side even when unused
    zc = complex(z)
    if zc == 0:
        raise DomainError("log_neg_z undefined at z = 0")
    if zc.imag == 0.0 and zc.real > 0.0:
        tag = "above-cut" if side == "above" else "below-cut"
        return BranchedLog(complex(math.log(zc.real), sp), tag)
    return BranchedLog(cmath.log(-zc), "off-cut")


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


def gamma(s):
    """Gamma function; raises PoleError at non-positive integers."""
    sc = complex(s)
    p = _nonpositive_integer(sc)
    if p is not None:
        raise PoleError(f"gamma pole at s = {p}", pole=p)
    if sc.imag == 0.0:
        return complex(math.gamma(sc.real), 0.0)
    return cmath.exp(log_gamma(sc))


def reciprocal_gamma(s):
    """1/Gamma(s), entire: returns 0 at the poles of gamma."""
    sc = complex(s)
    if _nonpositive_integer(sc) is not None:
        return 0.0j
    if sc.imag == 0.0:
        return complex(1.0 / math.gamma(sc.real), 0.0)
    return cmath.exp(-log_gamma(sc))


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


def _zeta_hermite(shifts, a):
    # zeta(v, a) for each v in shifts from Hermite's real integral
    #   zeta(s,a) = a^{-s}/2 + a^{1-s}/(s-1)
    #     + 2 * int_0^oo sin(s atan(t/a)) / ((a^2+t^2)^{s/2} (e^{2 pi t}-1)) dt.
    # Valid for Re a > 0; used for Re s < -0.5 where the Euler-Maclaurin
    # route cancels catastrophically in doubles.  Its own conditioning is
    # e^{pi |Im s| / 2} (the sin factor outgrows the result), independent
    # of Re s.  a is first stepped into 0.5 < Re a <= 1.5 with
    # zeta(s, a) = a^{-s} + zeta(s, a+1): for Re s << 0 and Re a below
    # about |Re s| the integral and a^{-s} (1/2 + a/(s-1)) cancel like
    # |a|^{-Re s} / |zeta|, while the step terms carry the size of zeta
    # without that loss (past |Re s| there is little to gain, and the
    # steps would cost one exp each).  The values share the nodes and, at
    # each node, atan, log and expm1; each v then costs one sin and one
    # exp, the arithmetic of a single value.
    count = len(shifts)
    sigma = max(abs(v.real) for v in shifts)
    heads = [0.0j] * count
    while a.real <= 0.5:
        heads = [h + p for h, p in zip(heads, _neg_powers(a, shifts))]
        a += 1.0
    while 1.5 < a.real <= 1.0 + sigma:
        a -= 1.0
        heads = [h - p for h, p in zip(heads, _neg_powers(a, shifts))]
    t_max = max(12.0, 6.0 + 1.1 * sigma)
    exponents = [(v, -0.5 * v) for v in shifts]

    def integrand(t):
        ang = cmath.atan(t / a)
        ln_r2 = cmath.log(a * a + t * t)
        inv = 1.0 / math.expm1(2.0 * math.pi * t)
        return [cmath.sin(v * ang) * cmath.exp(e * ln_r2) * inv
                for v, e in exponents]

    edges = [0.0, 2.0]
    while edges[-1] < t_max:
        edges.append(min(4.0 * edges[-1], t_max))
    integrals = tanh_sinh_vector(integrand, edges, count,
                                 rel_tol=_ZETA_QUAD_REL_TOL, max_level=9)
    return [h + p * (0.5 + a / (v - 1.0)) + 2.0 * i
            for h, p, v, i in zip(heads, _neg_powers(a, shifts), shifts,
                                  integrals)]


def _neg_powers(a, shifts):
    # a^(-v) for each v in shifts
    ln_a = cmath.log(a)
    return [cmath.exp(-v * ln_a) for v in shifts]


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


def hurwitz_zeta(s, a):
    """Hurwitz zeta, analytic continuation in s, for a off {0, -1, -2, ...}.

    Euler-Maclaurin for Re s >= -0.5; the real-integral representation for
    Re s < -0.5 (after stepping a by integers into 0.5 < Re a <= 1.5, or
    only past Re a > 1/2 once Re a exceeds 1 + |Re s|).  In the corner
    Re s < -0.5 with |Im s| > ~8 both routes lose digits in doubles
    (integral route like e^{pi |Im s|/2}, Euler-Maclaurin like
    A^{1-Re s}/|zeta|); the one with the smaller predicted loss is used
    and the documented 1e-11 relative contract holds for |s| <= 30 with
    Re s >= -0.5 or |Im s| <= 8.
    """
    return hurwitz_zeta_block(s, a, 1)[0]


def hurwitz_zeta_block(s, a, count):
    """[zeta(s - n, a) for n in range(count)], each on hurwitz_zeta's route.

    The values on the integral route share one quadrature pass.
    """
    sc = complex(s)
    ac = complex(a)
    shifts = [sc - n for n in range(count)]
    if 1.0 in shifts:
        raise PoleError("hurwitz_zeta pole at s = 1", pole=1)
    if _nonpositive_integer(ac) is not None:
        raise DomainError(f"hurwitz_zeta needs a off the non-positive "
                          f"integers, got a = {a}")
    routes = [_zeta_by_integral(v, ac) for v in shifts]
    on_integral = [v for v, q in zip(shifts, routes) if q]
    by_integral = iter(_zeta_hermite(on_integral, ac)
                       if on_integral else ())
    return [next(by_integral) if q else _zeta_euler_maclaurin(v, ac)
            for v, q in zip(shifts, routes)]


# ---------------------------------------------------------------------------
# Incomplete gamma


def _ln_factorial(m):
    return math.lgamma(m + 1.0)


def _h_ratio_minus_one_over_u(s, m, u):
    # (H(s) - 1)/u where H(s) = m! * (pi u / sin(pi u)) / Gamma(1 + m - u)
    # smoothly interpolates (s+m) Gamma(s) * (-1)^m m! near u = s + m = 0.
    if abs(u) < 1e-5:
        psi0 = -_EULER + sum(1.0 / j for j in range(1, m + 1))
        psi1 = math.pi * math.pi / 6.0 - sum(1.0 / (j * j)
                                             for j in range(1, m + 1))
        return psi0 + 0.5 * u * (psi0 * psi0 - psi1
                                 + math.pi * math.pi / 3.0)
    piu = math.pi * u
    ln_h = (_ln_factorial(m) - log_gamma(1.0 - s)
            - cmath.log(cmath.sin(piu) / piu))
    return (cmath.exp(ln_h) - 1.0) / u


def _expm1_over(v):
    # (e^v - 1)/v for complex v
    if abs(v) < 1e-4:
        return 1.0 + v * (0.5 + v / 6.0)
    return (cmath.exp(v) - 1.0) / v


def _alternating_lower_sum(s, w, total, skip=0):
    # total + sum_{k >= 1, k != skip} (-w)^k / (k! (s+k)): the power series
    # of w^(-s) lower(s, w) past its k = 0 term 1/s, which the caller puts
    # in the start value or leaves out.
    t = 1.0 + 0.0j
    k = 1
    while True:
        t *= -w / k
        if k != skip:
            r = t / (s + k)
            total += r
            if k > abs(w) and abs(r) < _IGAMMA_REL_TOL * (abs(total) + 1.0):
                return total
        if k > _IGAMMA_SERIES_CAP:
            raise AccuracyError("incomplete gamma series did not settle",
                                achieved=abs(t))
        k += 1


def _igamma_pole_adjacent(s, w, m):
    # Gamma(s, w) for s within 0.25 of -m: the k = m term of the power
    # series resonates with the Gamma(s) pole; join the two analytically.
    u = s + m
    lw = cmath.log(w)
    dh = _h_ratio_minus_one_over_u(s, m, u)
    sign = -1.0 if m % 2 else 1.0
    main = (sign / math.factorial(m)) * (dh - lw * _expm1_over(u * lw))
    total = _alternating_lower_sum(s, w, 0.0j if m == 0 else 1.0 / s, m)
    return main - cmath.exp(s * lw) * total


def _igamma_kummer(s, w):
    # Gamma(s) - lower(s, w) with lower from the e^{-w}-rescaled ascending
    # series.  Terms carry positive powers of w only, so unlike the
    # alternating form there is no e^{|w|(1+cos arg w)} hump; the region
    # guard |w| <= |s|+4 caps the partial-sum growth at a couple digits
    # for any arg w short of the negative axis.
    t = 1.0 / s
    total = t
    k = 1
    k_settle = abs(w) + max(0.0, -s.real)
    while True:
        t *= w / (s + k)
        total += t
        if k > k_settle and abs(t) < _IGAMMA_REL_TOL * abs(total):
            break
        if k > _IGAMMA_SERIES_CAP:
            raise AccuracyError("incomplete gamma series did not settle",
                                achieved=abs(t))
        k += 1
    return gamma(s) - cmath.exp(s * cmath.log(w) - w) * total


def _igamma_gseries(s, w):
    # Gamma(s) - w^s sum_k (-w)^k / (k! (s+k)).  The sum has no leading
    # cancellation for Re w <= 0; its hump costs ~e^{|w| + Re w} in ulps,
    # so the dispatcher only sends it near the negative w-axis once |w| is
    # large (where that factor stays ~1).
    total = _alternating_lower_sum(s, w, 1.0 / s)
    return gamma(s) - cmath.exp(s * cmath.log(w)) * total


def _igamma_continued_fraction(s, w):
    # Modified Lentz on the even contraction of the classical continued
    # fraction; solid for |arg w| away from the negative axis.
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
        if abs(delta - 1.0) < _IGAMMA_REL_TOL:
            return cmath.exp(s * cmath.log(w) - w) / f
    raise AccuracyError(
        "incomplete gamma continued fraction hit the iteration cap",
        achieved=abs(delta - 1.0))


def _scaled_igamma_asymptotic(s, w):
    # Gamma(s, w) e^w w^(1-s) for huge |w|: the divergent tail
    # sum_k (s-1)...(s-k) / w^k, summed until a term drops under 1e-17 of
    # the sum or the next one would grow (optimal truncation)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(1, 401):
        step = term * ((s - k) / w)
        if abs(step) >= abs(term):
            break
        term = step
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total


def _near_gamma_pole(s):
    mr = round(s.real)
    if mr <= 0 and abs(s - mr) <= 0.25:
        return -mr
    return None


def upper_incomplete_gamma(s, w):
    """Gamma(s, w), principal branch of w**s, any complex s.

    Region map: power series around w = 0 (with an analytic join of the
    resonant term when s sits near a non-positive integer), Lentz continued
    fraction for large |w| off the negative axis, the subtracted series
    again near the axis, and an optimally truncated asymptotic tail beyond
    |w| = 300 there.  Raises ConditioningError when the value, or a
    factor of it, is past the double range.
    """
    try:
        return _upper_incomplete_gamma(complex(s), complex(w))
    except OverflowError:
        raise ConditioningError(f"Gamma({s}, {w}) is past the double "
                                "range") from None


def _upper_incomplete_gamma(sc, wc):
    if wc == 0:
        if sc.real > 0:
            return gamma(sc)
        raise DomainError("Gamma(s, 0) diverges for Re s <= 0")
    m = _near_gamma_pole(sc)
    aw = abs(wc)
    theta = abs(cmath.phase(wc))
    if aw <= min(abs(sc) + 4.0, 30.0):
        # Ascending series country, except where the result is
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
                ln_gamma_mag = log_gamma(sc).real
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
            return _igamma_pole_adjacent(sc, wc, m)
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
    # Near the negative axis, pick by predicted ulp loss: the subtracted
    # series loses e^{|w|(1 + cos arg w)}, the fraction is clean through
    # arg 2.9, and the divergent tail's optimal-truncation floor clears
    # 1e-12 once |w| > ~45 + 2.5 max(0, -Re s).
    if aw * (1.0 + math.cos(theta)) <= 9.0 and aw <= 500.0:
        if m is not None:
            return _igamma_pole_adjacent(sc, wc, m)
        return _igamma_gseries(sc, wc)
    if theta <= 2.9:
        return _igamma_continued_fraction(sc, wc)
    # the last resort for huge |w| near the negative axis, where neither
    # the fraction nor the series pays
    return (cmath.exp((sc - 1.0) * cmath.log(wc) - wc)
            * _scaled_igamma_asymptotic(sc, wc))


def gamma_star(s, w):
    """Scaled lower incomplete gamma: lower(s, w) / (Gamma(s) * w**s).

    Entire in s and in w, which makes it the branch-free building block
    for the subtracted large-z pair terms.  At s = -m it equals w**m.
    Raises ConditioningError when the value, or a factor of it, is past
    the double range.
    """
    try:
        return _gamma_star(complex(s), complex(w))
    except OverflowError:
        raise ConditioningError(f"gamma_star({s}, {w}) is past the double "
                                "range") from None


def _gamma_star(sc, wc):
    if wc == 0:
        return reciprocal_gamma(sc + 1.0)  # series value at w = 0
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
            return cmath.exp(-wc) * total
    # Route through the upper function; clean whenever |lower| is not
    # small next to |Gamma(s)|, which covers all |w| > 8 and the humped
    # leftovers from the series branch.
    upper = upper_incomplete_gamma(sc, wc)
    return ((1.0 - reciprocal_gamma(sc) * upper)
            * cmath.exp(-sc * cmath.log(wc)))


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
