"""Double-exponential quadrature for complex-valued integrands on finite
intervals and on a half line.

One function, ``tanh_sinh``, for the reference oracle and for the
kernel's Abel-Plana integral (the Abel-Plana engine and the Hurwitz-zeta
integral route).  A finite chunk takes the tanh-sinh map, evaluated as
an exact offset from whichever endpoint the node is near, so integrands
with an endpoint singularity like x**(s-1), Re s > 0, lose nothing to
cancellation: the integrand receives a coordinate whose distance to the
endpoint is correct to full precision.  A last chunk [c, oo) takes the
exponential map x = c + exp(u - e^-u) of Takahasi and Mori (Publ. RIMS
9, 1974; Mori and Sugihara, J. Comput. Appl. Math. 127, 2001), which
crowds the nodes at c only and makes an exponentially decaying
integrand decay double-exponentially in u.
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
# u range of the half-line map x = c + exp(u - e^-u), both ends
# multiples of the first level's step.  At u = -4.5 the offset is 9e-42
# and the weight 8e-40, so even x^(-1/2) at c leaves 3e-19 out; at u = 4
# the node sits at c + _HALF_LINE_REACH and an integrand decaying like
# e^-(x-c) has fallen to 5e-24 there.  f must be negligible past that
# reach: a caller with slower decay integrates in a scaled variable.
_U_MIN = -4.5
_U_MAX = 4.0
_HALF_LINE_REACH = math.exp(_U_MAX - math.exp(-_U_MAX))  # 53.6
# step-halving levels after the first, per chunk
_MAX_LEVEL = 10
# Once a level's change is this far under the one before, the rule is
# in its double-exponential regime, where each level about doubles the
# correct digits: the level just taken is then off by about
# change^2 / |part|, and a chunk stops there when that, times the
# safety factor, is under its stop bar.
_QUADRATIC_DROP = 1e-3
_QUADRATIC_SAFETY = 10.0


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


@functools.lru_cache(maxsize=None)
def _half_line_nodes(level):
    """(offset, weight) pairs of the nodes that a level adds to a chunk
    [c, oo), offset x = exp(u - e^-u) and weight dx/du: every multiple of
    h = 1/2 in [_U_MIN, _U_MAX] at level 0, the odd multiples of
    h = 2^-(level+1) after that."""
    h = 0.5 * 0.5 ** level
    step = 1 if level == 0 else 2
    out = []
    j = round(_U_MIN / h) + (0 if level == 0 else 1)
    while j * h <= _U_MAX:
        u = j * h
        e = math.exp(-u)
        x = math.exp(u - e)
        out.append((x, x * (1.0 + e)))
        j += step
    return tuple(out)


def tanh_sinh(f, edges, rel_tol=1e-13):
    """Integrate f over [edges[0], edges[-1]], one rule per chunk
    [edges[i], edges[i+1]]; returns (value, err_estimate, abs_integral).

    edges[-1] may be math.inf: the chunk [edges[-2], oo) then takes the
    half-line map, whose nodes reach edges[-2] + _HALF_LINE_REACH (53.6),
    past which f must be negligible.  Every other chunk is finite.

    f may return complex.  A chunk's step halves until the level's change
    is under rel_tol of its value, or under the rounding floor,
    _FLOOR_ULPS of the integral of |f| over it and the chunks before, so
    a chunk below the rounding of the whole stops at its first
    refinement.  That integral comes from the first level's nodes, at no
    extra cost; it can miss a peak, but is never below |value|, so the
    larger is used and returned.  A chunk also stops one level earlier,
    at a level whose change fell _QUADRATIC_DROP of the one before and
    whose _QUADRATIC_SAFETY change^2 / |value| is under that bar.  A
    chunk's error estimate is its last level-to-level difference
    (conservative once double-exponential convergence has locked on),
    or that squared quantity where the early stop fired, floored at a
    few ulp of its value; err_estimate sums them.
    """
    value = 0.0j
    err = 0.0
    done = 0.0
    for a, b in zip(edges, edges[1:]):
        half_line = b == math.inf
        if half_line:
            step = 0.5  # h
            total = 0.0j
            mass = 0.0
            for off, w in _half_line_nodes(0):
                fx = f(a + off)
                total += w * fx
                mass += w * abs(fx)
        else:
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
        part = total * step
        abs_integral = done + mass * abs(step)
        last = 0.0  # the change of the level before; none at level 1
        for level in range(1, _MAX_LEVEL + 1):
            new = 0.0j
            if half_line:
                for off, w in _half_line_nodes(level):
                    new += w * f(a + off)
            else:
                for off, w in _level_nodes(level):
                    new += w * f(b - width * off) + w * f(a + width * off)
            prev = part
            total += new
            step *= 0.5
            part = total * step
            change = abs(part - prev)
            size = abs(part)
            bar = max(rel_tol * size,
                      _FLOOR_ULPS * max(abs_integral, size)) + 1e-305
            if change <= bar:
                break
            if size and change <= _QUADRATIC_DROP * last:
                # the digits doubled: this level's own error is about
                # change^2 / |part|, the next level's change
                guess = _QUADRATIC_SAFETY * change * change / size
                if half_line:
                    # the half-line map spaces its nodes like x h, so an
                    # oscillating f resolves a level at a time and its
                    # digits may grow only linearly: the next change is
                    # then about change^2 / last, larger than the above
                    guess = max(guess, change * change / last)
                if guess <= bar:
                    change = guess
                    break
            last = change
        value += part
        err += max(change, 5e-16 * abs(part))
        done = max(abs_integral, done + abs(part))
    return value, err, done
