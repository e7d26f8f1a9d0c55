"""Double-exponential quadrature for complex-valued integrands on the
half line [0, oo).

One function, ``tanh_sinh``, for the kernel's Abel-Plana integral (the
Abel-Plana engine and the Hurwitz-zeta integral route).  It takes the
exponential map x = exp(u - e^-u) of Takahasi and Mori (Publ. RIMS 9,
1974; Mori and Sugihara, J. Comput. Appl. Math. 127, 2001), which crowds
the nodes at 0 only and makes an exponentially decaying integrand decay
double-exponentially in u.
"""

import functools
import math

# A level's change below this many ulps of the integral of |f| is rounding
# noise: refining further cannot move the value by more than its own
# rounding, whatever rel_tol asks for.
_FLOOR_ULPS = 16.0 * 2.0 ** -52
# u range of the map x = exp(u - e^-u), both ends multiples of the first
# level's step.  At u = -4.5 the node sits at 9e-42 with weight 8e-40,
# so even x^(-1/2) leaves 3e-19 out; at u = 4 the node sits at
# _HALF_LINE_REACH and an integrand decaying like e^-x has fallen to
# 5e-24 there.  f must be negligible past that reach: a caller with
# slower decay integrates in a scaled variable.  A caller whose f is
# bounded at 0 may start at u = -4 (u_min): the nodes below it sit under
# 4e-26 with weights under 2e-24, so they hold under 2e-24 of max |f|.
# The kernel's Abel-Plana integral (the Abel-Plana engine and Hermite's
# route for Hurwitz zeta) starts there: its integrand has a finite limit
# at t = 0, and the start saves about 6% of the nodes.
_U_MIN = -4.5
_U_MAX = 4.0
_HALF_LINE_REACH = math.exp(_U_MAX - math.exp(-_U_MAX))  # 53.6
# step-halving levels after the first
_MAX_LEVEL = 10
# Once a level's change is this far under the one before, the rule is
# in its double-exponential regime, where each level about doubles the
# correct digits: the level just taken is then off by about
# change^2 / |value|, and the rule stops there when that, times the
# safety factor, is under its stop bar.
_QUADRATIC_DROP = 1e-3
_QUADRATIC_SAFETY = 10.0


@functools.lru_cache(maxsize=None)
def _half_line_nodes(level, u_min=_U_MIN):
    """(node, weight) pairs that a level adds, node x = exp(u - e^-u)
    and weight dx/du: every multiple of h = 1/2 in [u_min, _U_MAX] at
    level 0, the odd multiples of h = 2^-(level+1) after that; u_min is
    a multiple of 1/2."""
    h = 0.5 * 0.5 ** level
    step = 1 if level == 0 else 2
    out = []
    j = round(u_min / h) + (0 if level == 0 else 1)
    while j * h <= _U_MAX:
        u = j * h
        e = math.exp(-u)
        x = math.exp(u - e)
        out.append((x, x * (1.0 + e)))
        j += step
    return tuple(out)


def tanh_sinh(f, rel_tol=1e-13, u_min=_U_MIN):
    """Integrate f over [0, oo); returns (value, err_estimate,
    abs_integral).

    The nodes start at u = u_min of the map (-4.5, or -4 where f is
    bounded at 0) and reach _HALF_LINE_REACH (53.6), past which f must be
    negligible.  f may return complex.  The step halves until a level's
    change is under rel_tol of the value, or under the rounding floor,
    _FLOOR_ULPS of the integral of |f|.  That integral comes from the
    first level's nodes, at no extra cost; it can miss a peak, but is
    never below |value|, so the larger is used and returned.  The rule
    also stops one level earlier, at a level whose change fell
    _QUADRATIC_DROP of the one before and whose predicted next change is
    under that bar.  The error estimate is the last level-to-level
    difference (conservative once double-exponential convergence has
    locked on), or that prediction where the early stop fired, floored
    at a few ulp of the value; where no level met the bar, at least the
    integral of |f| on the last level's nodes.

    f is called once a node, in a fixed order: the nodes of
    _half_line_nodes(0, u_min), then those of each later level in turn.
    The kernel's Abel-Plana integral keeps per-node factors by that
    order.
    """
    step = 0.5  # h
    total = 0.0j
    mass = mass_last = 0.0
    for x, w in _half_line_nodes(0, u_min):
        fx = f(x)
        total += w * fx
        mass += w * abs(fx)
    value = total * step
    abs_integral = mass * step
    last = 0.0  # the change of the level before; none at level 1
    for level in range(1, _MAX_LEVEL + 1):
        new = 0.0j
        if level < _MAX_LEVEL:
            for x, w in _half_line_nodes(level, u_min):
                new += w * f(x)
        else:  # the last level also weighs |f| (see below)
            for x, w in _half_line_nodes(level, u_min):
                fx = f(x)
                new += w * fx
                mass_last += w * abs(fx)
        prev = value
        total += new
        step *= 0.5
        value = total * step
        change = abs(value - prev)
        size = abs(value)
        bar = max(rel_tol * size,
                  _FLOOR_ULPS * max(abs_integral, size)) + 1e-305
        if change <= bar:
            break
        if size and change <= _QUADRATIC_DROP * last:
            # the digits doubled, so the next change would be about
            # change^2 / |value|; but the map spaces its nodes like x h,
            # so an oscillating f resolves a level at a time and its
            # digits may grow only linearly: the next change is then
            # about change^2 / last, larger than the above
            guess = max(_QUADRATIC_SAFETY * change * change / size,
                        change * change / last)
            if guess <= bar:
                change = guess
                break
        last = change
    else:
        # no level met the bar, so the last change bounds nothing: the
        # value may be the rounding of a peak the first level missed.
        # The error is then the integral of |f| on the last level's nodes
        # (spaced 2 h), which that peak cannot escape.
        change = max(change, 2.0 * step * mass_last)
    return value, max(change, 5e-16 * size), max(abs_integral, size)
