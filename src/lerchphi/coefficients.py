"""Coefficient family feeding the large-argument engines.

The pair coefficients b_n are the Taylor coefficients of
1/(2i sin(pi (a - t))) about t = 0; they weight the powers of the
shifted logarithm in the pole-correction series, and the subtracted
variant b_{n,N} removes the 2N+1 poles nearest the origin so the series
keeps converging once the first N pole pairs are handled explicitly.
The subtracted table is built in one pass: a single kernel returns the
alternating power sums sum_k (-1)^k (x + k)^(-p) for every order p at
once, at the two anchors x = N+1 +/- a.  The same one-sided sums at
x = a are the weights of the comparison expansion's unresummed
logarithmic series (eval_fl_expansion).

Everything here is plain double-precision arithmetic; the tables are
small (counts in the tens, at most 200) and cached per
(a, N, count, method).
"""

import cmath
import math
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add as _ADD, mul as _MUL

from .errors import ConditioningError, overflow_is_conditioning
from .special_kernel import _BERNOULLI

_TWO_PI_I = 2j * math.pi
_MAGNITUDE_CAP = 1e280
_COUNT_CAP = 200
# trapezoid nodes of the contour cross-check
_CONTOUR_NODES = 512


class CoefficientTable(namedtuple("CoefficientTable", "a N values method")):
    """An immutable run of coefficients with its provenance.

    N is the subtraction depth: -1 marks the unsubtracted family, any
    N >= 0 means the poles at a + m for |m| <= N have been removed.
    method is "recurrence", "stable-zeta" or "direct-sum".
    """

    __slots__ = ()


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


def _capped(values, a):
    # every part within the cap; a nan fails, and unlike abs() none overflows
    if not all(abs(v.real) <= _MAGNITUDE_CAP and abs(v.imag) <= _MAGNITUDE_CAP
               for v in values):
        raise ConditioningError(f"a coefficient is past {_MAGNITUDE_CAP:.0e}:"
                                f" a = {a} is too close to an integer")
    return values


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
        b[n + 2] = acc / ((n + 2) * (n + 1) * b[0])
    return _capped(tuple(b[:count]), a)


@lru_cache(maxsize=64)
def csc_coefficients(a, count):
    """b_0 .. b_{count-1} by the quadratic recurrence."""
    _check_count(count)
    return CoefficientTable(complex(a), -1, _recurrence_values(complex(a),
                                                               count),
                            "recurrence")


@overflow_is_conditioning
def csc_coefficients_contour(a, count, radius=None):
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
    for j in range(_CONTOUR_NODES):
        t = radius * cmath.exp(_TWO_PI_I * j / _CONTOUR_NODES)
        samples.append(1.0 / (2j * cmath.sin(cmath.pi * (ac - t))))
    out = []
    for n in range(count):
        acc = 0.0j
        for j, f in enumerate(samples):
            acc += f * cmath.exp(-_TWO_PI_I * j * n / _CONTOUR_NODES)
        out.append(acc / (_CONTOUR_NODES * radius ** n))
    return tuple(out)


@lru_cache(maxsize=64)
def _boole_rows(count):
    # row m holds w_(2m+1) (p)_(2m+1) for p = 1 .. count, where
    # w_j = (2^(j+1) - 1) B_(j+1) / (j+1)! are the Euler-Boole weights of
    # 1/(e^t + 1) = 1/2 - sum_(j odd) w_j t^j
    rows = []
    rising = [float(p) for p in range(1, count + 1)]
    for m, (n, d) in enumerate(_BERNOULLI):
        j = 2 * m + 1
        if m:
            rising = [r * (p + j - 2) * (p + j - 1)
                      for p, r in enumerate(rising, 1)]
        w = (2 ** (j + 1) - 1) * n / (d * math.factorial(j + 1))
        rows.append(tuple(w * r for r in rising))
    return tuple(rows)


# the Euler-Boole tail starts at X >= _BOOLE_SLOPE * (count + 12), where
# its first omitted term is under 1.1e-13 of the tail for every order;
# a slope of 0.55 lost digits (4.6e-11 at a = 1.619, N = 24, count = 20)
_BOOLE_SLOPE = 1.06
# a direct term under 2^-60 of the leading one no longer counts
_NEGLIGIBLE_LOG = 60.0 * math.log(2.0)


def _alternating_power_sums(x, count):
    """A_p(x) = sum_{k>=0} (-1)^k (x + k)^(-p) for p = 1 .. count at once.

    The first K terms are summed directly, by math.fsum on the real and
    imaginary parts (one rounding on every Python version): the
    reciprocals 1/(x + k) are shared by every order, and each order
    advances the signed powers by one multiply.  The rest is the
    Euler-Boole tail at X = x + K,
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
    rows = _boole_rows(count)
    horner = rows[-1]
    for row in reversed(rows[:-1]):
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
        total = complex(math.fsum(t.real for t in terms),
                        math.fsum(t.imag for t in terms))
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
        return CoefficientTable(a, N, _capped(tuple(
            front * (u - d if p % 2 else u + d)
            for p, (u, d) in enumerate(zip(up, down), 1)), a), method)
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
    return CoefficientTable(a, N, tuple(out), method)


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
    return _subtracted_values(complex(a), N, count, method)
