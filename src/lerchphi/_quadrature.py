"""Tanh-sinh quadrature for complex-valued integrands on finite intervals.

One node map and one stop rule, shared by two loops: ``tanh_sinh`` for a
scalar integrand (the reference oracle and, chunked, the Abel-Plana
engine) and ``tanh_sinh_vector`` for an
integrand that returns several values from one evaluation (the
Hurwitz-zeta integral route, which gets zeta(s - n, a) for a block of n
from one node pass).  The node map is evaluated as an exact offset from
whichever endpoint the node is near, so integrands with an endpoint
singularity like x**(s-1), Re s > 0, lose nothing to cancellation: the
integrand receives a coordinate whose distance to the endpoint is correct
to full precision.
"""

import functools
import math

# |t| cutoff for the double-exponential map.  At t = 3.8 the node weight is
# ~1e-29 and the offset from the endpoint is ~2.7e-31 of the interval, which
# is past any double-precision target without underflowing intermediates.
_T_MAX = 3.8
# weight of the centre node t = 0, whose offset is half the interval
_W_CENTRE = 0.5 * math.pi
# A level's change below this many ulps of the integral of |f| is rounding
# noise: refining further cannot move the value by more than its own
# rounding, whatever rel_tol asks for.
_FLOOR_ULPS = 16.0 * 2.0 ** -52


@functools.lru_cache(maxsize=None)
def _level_nodes(level):
    """(offset, weight) pairs of the nodes +/-t that a level adds, t > 0:
    every multiple of h = 1/2 at level 0, the odd multiples of
    h = 2^-(level+1) after that (the even ones are the earlier levels')."""
    h = 0.5 * 0.5 ** level
    step = 1 if level == 0 else 2
    out = []
    j = 1
    while j * h <= _T_MAX:
        t = j * h
        u = 0.5 * math.pi * math.sinh(t)
        w = 0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2
        # (1 - tanh u) = 2/(e^{2u} + 1), computed without cancellation
        out.append((1.0 / (1.0 + math.exp(2.0 * u)), w))
        j += step
    return tuple(out)


def _settled(change, value, abs_integral, rel_tol):
    """Stop rule shared by both loops: the level's change is under rel_tol
    of the value, or under the rounding floor, _FLOOR_ULPS of the
    integral of |f|.  abs_integral is that integral taken on a coarse
    level, which can miss a peak; the integral of |f| is never below
    |value|, so the larger of the two is used."""
    size = abs(value)
    return change <= max(rel_tol * size,
                         _FLOOR_ULPS * max(abs_integral, size)) + 1e-305


def tanh_sinh(f, a, b, rel_tol=1e-13, max_level=10):
    """Integrate f over [a, b]; returns (value, err_estimate).

    f may return complex.  The step halves until _settled holds; the
    integral of |f| it needs comes from the first level's nodes, so the
    refinements cost no more than f itself.  The error estimate is the
    last level-to-level difference (double-exponential convergence makes
    that conservative once the levels have locked on), floored at a few
    ulp of the result.
    """
    value, err, _ = _tanh_sinh(f, a, b, rel_tol, max_level, 0.0)
    return value, err


def _tanh_sinh(f, a, b, rel_tol, max_level, done):
    # tanh_sinh with done, the integral of |f| over the chunks before,
    # added to this interval's in the stop rule; returns that sum as a
    # third value
    width = b - a
    step = 0.25 * width  # h * (b - a) / 2 at h = 1/2
    fc = f(a + 0.5 * width)
    total = _W_CENTRE * fc
    mass = _W_CENTRE * abs(fc)
    for off, w in _level_nodes(0):
        fb = f(b - width * off)
        fa = f(a + width * off)
        total += w * fb + w * fa
        mass += w * (abs(fb) + abs(fa))
    value = total * step
    abs_integral = done + mass * abs(step)
    err = abs(value)
    for level in range(1, max_level + 1):
        new = 0.0j
        for off, w in _level_nodes(level):
            new += w * f(b - width * off) + w * f(a + width * off)
        prev = value
        total = total + new
        step *= 0.5
        value = total * step
        err = abs(value - prev)
        if _settled(err, value, abs_integral, rel_tol):
            break
    return (value, max(err, 5e-16 * abs(value)),
            max(abs_integral, done + abs(value)))


def tanh_sinh_vector(f, edges, count, rel_tol=1e-13, max_level=10):
    """Integrate each of the count values of f over [edges[0], edges[-1]]
    on one node set, one tanh-sinh rule per [edges[i], edges[i+1]].

    f(x) returns a sequence of count numbers.  On each chunk the step
    halves until every component meets tanh_sinh's stop rule on its own
    value, so each component gets at least the levels it would get alone;
    the integral of |f| in that rule also counts the chunks before, so a
    chunk whose part is below the rounding of the whole stops at its first
    refinement.  Returns the list of values.
    """
    results = [0.0j] * count
    done = [0.0] * count  # integral of |f| over the chunks before
    for a, b in zip(edges, edges[1:]):
        width = b - a
        step = 0.25 * width
        fc = f(a + 0.5 * width)
        totals = [_W_CENTRE * v for v in fc]
        masses = [_W_CENTRE * abs(v) for v in fc]
        for off, w in _level_nodes(0):
            fb = f(b - width * off)
            fa = f(a + width * off)
            totals = [t + (w * p + w * q) for t, p, q in zip(totals, fb, fa)]
            masses = [m + w * (abs(p) + abs(q))
                      for m, p, q in zip(masses, fb, fa)]
        values = [t * step for t in totals]
        abs_integrals = [d + m * abs(step) for d, m in zip(done, masses)]
        for level in range(1, max_level + 1):
            for off, w in _level_nodes(level):
                fb = f(b - width * off)
                fa = f(a + width * off)
                totals = [t + (w * p + w * q)
                          for t, p, q in zip(totals, fb, fa)]
            prev = values
            step *= 0.5
            values = [t * step for t in totals]
            if all(_settled(abs(v - u), v, m, rel_tol)
                   for v, u, m in zip(values, prev, abs_integrals)):
                break
        results = [r + v for r, v in zip(results, values)]
        done = [max(m, d + abs(v))
                for m, d, v in zip(abs_integrals, done, values)]
    return results


def tanh_sinh_chunked(f, edges, rel_tol=1e-13):
    """Integrate f over [edges[0], edges[-1]], one tanh_sinh rule per
    [edges[i], edges[i+1]]; returns (value, err_estimate).

    As in tanh_sinh_vector, the integral of |f| in each chunk's stop rule
    also counts the chunks before, so a chunk whose part is below the
    rounding of the whole stops at its first refinement.  err_estimate
    sums the chunks' estimates.
    """
    value, err, _ = _tanh_sinh_chunked(f, edges, rel_tol)
    return value, err


def _tanh_sinh_chunked(f, edges, rel_tol):
    # tanh_sinh_chunked, plus the integral of |f| the last stop rule
    # used, for callers that bound rounding by it
    value = 0.0j
    err = 0.0
    done = 0.0
    for lo, hi in zip(edges, edges[1:]):
        v, e, done = _tanh_sinh(f, lo, hi, rel_tol, 10, done)
        value += v
        err += e
    return value, err, done
