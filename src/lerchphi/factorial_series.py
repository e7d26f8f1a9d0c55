"""Factorial-series engine for large |z|.

Rather than expanding the branch part in powers of the shifted
logarithm, this engine rearranges it into a series over the alternating
binomial moments

    p_n(x, s) = -2 pi i e^(-i pi s) / Gamma(s)
                * sum_{m=0}^{n} C(n, m) (-1)^m (x + m)^(s-1),

weighted by powers of q / (q - 1) with q = e^(2 pi i a).  The variable
x = 1/2 + i log(-z) / (2 pi) carries the whole z-dependence; the a- and
s-dependence sits in the scalar weights.  The rearranged sum plus the
plain residue series over the mirror poles reproduces the function for
|z| > 1.

Convergence is conditional in general: the weights shrink geometrically
only when Re q < 1/2, and p_n itself decays like n^(-Re x) times slowly
varying factors.  The stop rule is therefore a quiet window (several
consecutive terms below tolerance), reported as the heuristic it is.
"""

import cmath
import itertools
import math
from collections import namedtuple

from ._types import EngineReport
from .engines import residue_series
from .errors import ConditioningError, DomainError, overflow_is_conditioning
from .special_kernel import gauss_2f1_unit_b, log_neg_z, reciprocal_gamma

_TWO_PI = 2.0 * math.pi

# consecutive sub-tolerance terms needed before the quiet window stops
_QUIET_RUN = 5

# envelope growth beyond the best term magnitude that flags the
# cancellation-noise floor (terms of a convergent run never rebound
# this much once n has passed |x|)
_GROWTH_FACTOR = 100.0


class FactorialSeriesState(namedtuple("FactorialSeriesState",
                                      "x s a partial n_terms last_term_mag")):
    """Snapshot of the rearranged series after a fixed number of terms."""

    __slots__ = ()


@overflow_is_conditioning
def p_n_direct(x, s, n):
    """n-th binomial moment by the literal alternating sum.

    Exact for small n; loses roughly n bits to cancellation as n grows,
    so the caller switches to p_n_stable once |x| allows it.  Requires
    every shifted node x + m to stay off the branch cut of the power,
    i.e. off the closed negative real axis.
    """
    x = complex(x)
    s = complex(s)
    re, im = [], []
    sign = 1.0
    for m in range(n + 1):
        w = x + m
        if w.imag == 0.0 and w.real <= 0.0:
            raise DomainError(f"node x + {m} = {w} lies on the "
                              "non-positive real axis")
        t = math.comb(n, m) * sign * w ** (s - 1.0)
        re.append(t.real)
        im.append(t.imag)
        sign = -sign
    front = -2j * math.pi * cmath.exp(-1j * math.pi * s) * reciprocal_gamma(s)
    return front * complex(math.fsum(re), math.fsum(im))


@overflow_is_conditioning
def p_n_stable(x, s, n):
    """n-th binomial moment with the cancellation carried analytically.

    Pulls the n-fold difference through the power, leaving a short sum
    of Gauss hypergeometric values at arguments -m/x inside the unit
    disk.  Needs |x| > n for the arguments to stay there.
    """
    x = complex(x)
    s = complex(s)
    if abs(x) <= n:
        raise DomainError(f"stable route needs |x| > n, got |x| = "
                          f"{abs(x):.3g} at n = {n}")
    total = 0.0j
    for m in range(n + 1):
        weight = 1.0 if n == 0 else float(m) ** n
        if weight == 0.0:
            continue
        coef = (-1.0) ** m * weight / (math.factorial(m)
                                       * math.factorial(n - m))
        total += coef * gauss_2f1_unit_b(n - s + 1.0, n + 1.0, -m / x)
    front = (-2j * math.pi * cmath.exp(-1j * math.pi * s)
             * reciprocal_gamma(s - n) * x ** (s - n - 1.0))
    return front * total


def _moment(x, s, n):
    # the +2 margin keeps the hypergeometric arguments comfortably
    # inside the disk before cancellation in the direct sum matters
    if abs(x) > n + 2:
        return p_n_stable(x, s, n)
    return p_n_direct(x, s, n)


def _prepare(p):
    """Validate the point for this engine and build the series inputs."""
    z, s, a = p.z, p.s, p.a
    if abs(z) <= 1.0:
        raise DomainError("factorial rearrangement needs |z| > 1")
    if a.real <= 0.0:
        raise DomainError("factorial rearrangement needs Re a > 0")
    if a.imag == 0.0 and abs(a.real - round(a.real)) < 1e-6:
        raise ConditioningError(f"a = {a.real} is too close to an integer; "
                                "the geometric weight 1/(q - 1) blows up")
    L = log_neg_z(z, p.cut_side).value
    x = 0.5 + 1j * L / _TWO_PI
    q = cmath.exp(2j * math.pi * a)
    front = (cmath.exp(1j * math.pi * a)
             * cmath.exp((s - 1.0) * cmath.log(2j * math.pi))
             * cmath.exp(-a * L))
    return x, q, front


def _terms(x, q, front, s):
    """Terms of the rearranged sum, front q^n / (q - 1)^(n+1) p_n(x, s)."""
    fac = 1.0 / (q - 1.0)
    ratio = q / (q - 1.0)
    for n in itertools.count():
        yield front * fac * _moment(x, s, n)
        fac *= ratio


@overflow_is_conditioning
def series_states(p, count):
    """First `count` states of the rearranged sum, for tracing.

    No stop rule and no rollback: the trace shows the raw terms,
    including the eventual noise-floor rebound when count outruns the
    attainable accuracy.
    """
    x, q, front = _prepare(p)
    partial = 0.0j
    out = []
    for n, term in enumerate(itertools.islice(
            _terms(x, q, front, p.s), count)):
        partial += term
        out.append(FactorialSeriesState(x=x, s=p.s, a=p.a, partial=partial,
                                        n_terms=n + 1,
                                        last_term_mag=abs(term)))
    if not cmath.isfinite(partial):  # inf or nan stays in the sum
        raise ConditioningError("a partial sum is past the double range")
    return out


@overflow_is_conditioning
def eval_factorial(p, tol=1e-10, max_terms=500):
    """Evaluate by the factorial rearrangement plus the residue series.

    The rearranged part is anchored to one fixed orientation of the
    defining contour, so its companion residue series always carries
    e^(-i pi s) rather than the point's own half-turn factor; both cut
    sides and both half-planes go through the same formula, only the
    branch log changes.

    Stops on a quiet window of _QUIET_RUN consecutive terms below tol
    (a heuristic, flagged in warnings because the series is only
    conditionally convergent) or at max_terms.  If the term envelope
    rebounds past the noise floor the sum rolls back to its best state
    instead of integrating noise.  ValueError for a non-finite tol;
    ConditioningError where a term or the value is past the double range.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    x, q, front = _prepare(p)
    residues = residue_series(p, 0, half_turns=1)
    terms = _terms(x, q, front, p.s)
    total = 0.0j
    quiet = 0
    best_mag = math.inf
    best_total = 0.0j
    best_n = 0
    warnings = []
    n = 0
    while n < max_terms:
        term = next(terms)
        total += term
        mag = abs(term)
        n += 1
        if mag < best_mag:
            best_mag = mag
            best_total = total
            best_n = n
        elif (mag > _GROWTH_FACTOR * best_mag and best_mag < 0.1
                and n > abs(x) + 10.0):
            total = best_total
            n = best_n
            warnings.append("noise-floor-rollback")
            break
        quiet = quiet + 1 if mag < tol else 0
        if quiet >= _QUIET_RUN:
            warnings.append("stopped-on-quiet-window")
            break
    else:
        warnings.append("max-terms-reached")

    # geometric extrapolation of the quiet window when the weights
    # still shrink; otherwise just a small multiple of the floor
    r = abs(q / (q - 1.0))
    scale = best_mag if best_mag < math.inf else 1.0
    if "stopped-on-quiet-window" in warnings and r < 1.0:
        est = max(tol * r / (1.0 - r), scale)
    else:
        est = 5.0 * scale
    return EngineReport(value=total + residues, abs_err_estimate=est,
                        n_terms=n, m_terms=0, engine="factorial",
                        warnings=tuple(warnings))
