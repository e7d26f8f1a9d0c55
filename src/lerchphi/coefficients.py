"""Coefficient families feeding the large-argument engines.

Two families live here.  The pair coefficients b_n are the Taylor
coefficients of 1/(2i sin(pi (a - t))) about t = 0; they weight the
powers of the shifted logarithm in the pole-correction series, and the
subtracted variant b_{n,N} removes the 2N+1 poles nearest the origin so
the series keeps converging once the first N pole pairs are handled
explicitly.  The subtracted table is built in one pass: a single
kernel returns the alternating power sums sum_k (-1)^k (x + k)^(-p) for
every order p at once, at the two anchors x = N+1 +/- a.  The log-power
coefficients weight the expansion used by the logarithmic-series engine
and are built from Hurwitz zeta values at half-shifted arguments.

Everything here is plain double-precision arithmetic; the tables are
small (counts in the tens, at most 200) and cached per
(a, N, count, method).
"""

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add as _ADD, mul as _MUL

from .errors import ConditioningError
from .special_kernel import _BERNOULLI, digamma, hurwitz_zeta

_TWO_PI_I = 2j * math.pi
_MAGNITUDE_CAP = 1e280
_COUNT_CAP = 200


@dataclass(frozen=True)
class CoefficientTable:
    """An immutable run of coefficients with its provenance.

    N is the subtraction depth: -1 marks the unsubtracted family, any
    N >= 0 means the poles at a + m for |m| <= N have been removed.
    """

    a: complex
    N: int
    values: tuple
    method: str  # "recurrence" | "stable-zeta" | "direct-sum"


def nearest_pole_distance(a):
    """Distance from t = 0 to the nearest pole a + m (integer m) of the
    generating function."""
    ac = complex(a)
    m = -round(ac.real)
    best = min(abs(ac + m - 1), abs(ac + m), abs(ac + m + 1))
    if best == 0.0:
        raise ConditioningError(f"a = {a} sits on a pole of the "
                                "coefficient generating function")
    return best


def _check_count(count):
    if not 1 <= count <= _COUNT_CAP:
        raise ValueError(f"count must be in [1, {_COUNT_CAP}], got {count}")


@lru_cache(maxsize=64)
def _recurrence_values(a, count):
    # quadratic recurrence equivalent to f f'' = 2 f'^2 + pi^2 f^2 for
    # f(t) = 1/(2i sin(pi (a - t)))
    nearest_pole_distance(a)  # raises when a sits exactly on a pole
    sin_pia = cmath.sin(cmath.pi * a)
    b = [0.0j] * max(count, 2)
    b[0] = 1.0 / (2j * sin_pia)
    b[1] = _TWO_PI_I * b[0] * b[0] * cmath.cos(cmath.pi * a)
    pi2 = math.pi * math.pi
    for n in range(count - 2):
        acc = 0.0j
        for m in range(n + 1):
            acc += 2.0 * (m + 1) * (n - m + 1) * b[m + 1] * b[n - m + 1]
            acc += pi2 * b[m] * b[n - m]
        for m in range(n):
            acc -= (m + 2) * (m + 1) * b[m + 2] * b[n - m]
        nxt = acc / ((n + 2) * (n + 1) * b[0])
        if abs(nxt) > _MAGNITUDE_CAP:
            raise ConditioningError(
                f"coefficient b_{n + 2} exceeds {_MAGNITUDE_CAP:.0e}; "
                "a is too close to an integer for this depth")
        b[n + 2] = nxt
    return tuple(b[:count])


def csc_coefficients(a, count):
    """b_0 .. b_{count-1} by the quadratic recurrence."""
    _check_count(count)
    return CoefficientTable(complex(a), -1, _recurrence_values(complex(a),
                                                               count),
                            "recurrence")


def csc_coefficients_contour(a, count, radius=None, nodes=512):
    """The same coefficients from a trapezoid Cauchy integral.

    Entirely independent of the recurrence: samples the generating
    function on a circle inside the nearest pole and reads the Taylor
    coefficients off the discrete Fourier sums.  Used as a cross-check;
    accuracy degrades geometrically in n, good to ~1e-10 for n <= 40
    at the default radius.
    """
    _check_count(count)
    ac = complex(a)
    if radius is None:
        radius = 0.6 * nearest_pole_distance(ac)
    samples = []
    for j in range(nodes):
        t = radius * cmath.exp(_TWO_PI_I * j / nodes)
        samples.append(1.0 / (2j * cmath.sin(cmath.pi * (ac - t))))
    out = []
    for n in range(count):
        acc = 0.0j
        for j, f in enumerate(samples):
            acc += f * cmath.exp(-_TWO_PI_I * j * n / nodes)
        out.append(acc / (nodes * radius ** n))
    return tuple(out)


def _boole_rows():
    # row m holds w_(2m+1) (p)_(2m+1) for p = 1 .. _COUNT_CAP, where
    # w_j = (2^(j+1) - 1) B_(j+1) / (j+1)! are the Euler-Boole weights
    # of 1/(e^t + 1) = 1/2 - sum_(j odd) w_j t^j
    rows = []
    rising = [float(p) for p in range(1, _COUNT_CAP + 1)]
    for m, b in enumerate(_BERNOULLI):
        j = 2 * m + 1
        if m:
            rising = [r * (p + j - 2) * (p + j - 1)
                      for p, r in enumerate(rising, 1)]
        w = float((2 ** (j + 1) - 1) * b / math.factorial(j + 1))
        rows.append([w * r for r in rising])
    return rows


_BOOLE_ROWS = _boole_rows()
# the Euler-Boole tail starts at X >= _BOOLE_SLOPE * (count + 12), where
# its first omitted term is under 1.1e-13 of the tail for every order;
# a slope of 0.55 lost digits (4.6e-11 at a = 1.619, N = 24, count = 20)
_BOOLE_SLOPE = 1.06
# a direct term under 2^-60 of the leading one no longer counts
_NEGLIGIBLE_LOG = 60.0 * math.log(2.0)


def _alternating_power_sums(x, count):
    """A_p(x) = sum_{k>=0} (-1)^k (x + k)^(-p) for p = 1 .. count at once.

    The first K terms are summed directly: the reciprocals 1/(x + k) are
    shared by every order, and each order advances the signed powers by
    one multiply.  The rest is the Euler-Boole tail at X = x + K,
    (-1)^K X^(-p) (1/2 + sum_(j odd) w_j (p)_j X^(-j)).  Once the terms
    past some k fall under 2^-60 of the leading one for an order, they
    (and the tail beyond them) are dropped for it and every higher
    order.  Needs Re x > 0, so |x + k| grows with k.
    """
    k_direct = max(1, math.ceil(_BOOLE_SLOPE * (count + 12) - x.real))
    recips = [1.0 / (x + k) for k in range(k_direct)]
    terms = [-r if k % 2 else r for k, r in enumerate(recips)]
    ln_x = math.log(abs(x))
    growth = [math.log(abs(x + k)) - ln_x for k in range(k_direct)]
    inv_x = 1.0 / (x + k_direct)
    inv_x2 = inv_x * inv_x
    horner = _BOOLE_ROWS[-1][:count]
    for row in reversed(_BOOLE_ROWS[:-1]):
        horner = list(map(_ADD, map(_MUL, horner, repeat(inv_x2)), row))
    powers = accumulate(repeat(inv_x, count), _MUL)
    sign = -1.0 if k_direct % 2 else 1.0
    out = []
    kept = k_direct
    for p, (h, xp) in enumerate(zip(horner, powers), 1):
        keep = bisect_left(growth, _NEGLIGIBLE_LOG / p, 1)
        if keep < kept:
            kept = keep
            del terms[kept:], recips[kept:]
        total = sum(terms)
        if kept == k_direct:
            total += sign * xp * (0.5 + inv_x * h)
        out.append(total)
        terms = list(map(_MUL, terms, recips))
    return out


@lru_cache(maxsize=64)
def _subtracted_values(a, N, count, method):
    if method == "stable-zeta":
        # Partial fractions turn the generating function into an
        # alternating sum over its poles; removing |m| <= N leaves the
        # surviving poles, whose order-n content is a pair of alternating
        # power sums anchored at N+1+a and N+1-a.  The nearest surviving
        # pole dominates both, so nothing cancels and every b_{n,N} is
        # accurate at its own (tiny) scale.
        up = _alternating_power_sums(a + N + 1.0, count)
        down = _alternating_power_sums(N + 1.0 - a, count)
        front = (-0.5j if N % 2 else 0.5j) / math.pi
        return tuple(front * (u - d if p % 2 else u + d)
                     for p, (u, d) in enumerate(zip(up, down), 1))
    base = _recurrence_values(a, count)
    c = 0.5j / math.pi
    out = []
    for n in range(count):
        re = [base[n].real]
        im = [base[n].imag]
        for m in range(-N, N + 1):
            sign = -1.0 if m % 2 else 1.0
            t = c * sign * complex(a + m) ** (-(n + 1))
            re.append(t.real)
            im.append(t.imag)
        out.append(complex(math.fsum(re), math.fsum(im)))
    return tuple(out)


def csc_coefficients_subtracted(a, N, count, method="stable-zeta"):
    """b_{n,N}: the coefficients after removing poles a + m, |m| <= N.

    "stable-zeta" sums the surviving-pole tail in one pass: the
    alternating power sums at N+1+a and N+1-a for all orders 1 .. count
    come from one kernel (shared reciprocals, an Euler-Boole tail), and
    the table is accurate at the coefficients' own scale for every n.
    The label is historical; no zeta function is called.  "direct-sum"
    is the definitional path: the unsubtracted coefficient plus the finite
    partial-fraction correction, fsum-compensated.  Its noise floor is
    ulp(|b_n|), and since |b_{n,N}| / |b_n| collapses geometrically in
    n it can only cross-check the other method near that scale; the
    tests compare the two at the unsubtracted magnitude.
    """
    _check_count(count)
    if N < 0:
        raise ValueError(f"subtraction depth N must be >= 0, got {N}")
    if method not in ("stable-zeta", "direct-sum"):
        raise ValueError(f"unknown method {method!r}")
    if complex(a).real - N - 1 >= 0:
        # the tail blocks assume the removed poles bracket the origin
        raise ConditioningError("subtraction depth too small for this a")
    return CoefficientTable(complex(a), N,
                            _subtracted_values(complex(a), N, count, method),
                            method)


def log_power_coefficients(s, a, count):
    """Weights for the logarithmic-series engine.

    Entry 0 is the digamma half-difference; entry n carries the falling
    product (s-1)(s-2)...(s-n) against a Hurwitz zeta half-difference.
    """
    _check_count(count)
    sc = complex(s)
    ac = complex(a)
    out = [0.5 * (digamma(0.5 * (ac + 1.0)) - digamma(0.5 * ac))]
    fall = 1.0 + 0.0j
    for n in range(1, count):
        fall *= sc - n
        diff = hurwitz_zeta(n + 1, 0.5 * ac) - hurwitz_zeta(n + 1,
                                                            0.5 * (ac + 1.0))
        out.append(fall * diff / 2.0 ** (n + 1))
    return tuple(out)
