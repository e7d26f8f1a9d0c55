"""Independent reference values used as ground truth in tests and reports.

Nothing here shares arithmetic with the production engines: of the
package this module imports only the errors.  All three routes run
inside mpmath: the quadrature route integrates the real-axis integral
representation with mpmath's quad, the other two sum the defining series
or take mpmath's continuation.  Every result carries an explicit error
bar and a method tag so callers can decide whether it is tight enough
to adjudicate a claim.

mpmath is imported by the functions that use it, not with this module:
the engines run without it, and it is an optional dependency (the
``oracle`` extra).  Without it those functions raise ImportError.
"""

import cmath
import math
from collections import namedtuple

from .errors import AccuracyError, DomainError

_ACCEPT_BAR = 1e-10
_SERIES_RADIUS = 0.95
_CUT_EPS = (1e-6, 1e-7)
_QUAD_DPS = 30
_SERIES_DPS = 30
# the two working precisions whose spread is the continuation's bar
_CONTINUATION_DPS = (30, 40)


class ReferenceValue(namedtuple("ReferenceValue", "value err_bar method")):
    """A reference value, its error bar and the route that made it:
    "quadrature", "hp_series" or "hp_continuation"."""

    __slots__ = ()

    @property
    def accepted(self):
        """Tight enough to adjudicate ten-digit claims."""
        return self.err_bar <= _ACCEPT_BAR


def _cut_distance(z):
    if z.real <= 1.0:
        return abs(z - 1.0)
    return abs(z.imag)


def quad_integral(z, s, a):
    """Gamma-normalized integral of x^(s-1) e^(-ax) / (1 - z e^(-x)) over
    [0, oo), by mpmath's quadrature at _QUAD_DPS digits.

    Needs Re s > 0, Re a > 0 and z off [1, inf).  On the head [0, h],
    h = 1/|a| the scale on which e^(-ax) decays, the degree-2 Taylor
    polynomial P of g = e^(-ax) / (1 - z e^(-x)) is integrated exactly
    against x^(s-1), and the quadrature takes x^(s-1) (g - P), which
    vanishes like x^(s+2): no x^(s-1) singularity is left for it to
    miss at small Re s.  The tail [h, oo) is one interval, split only
    at ln|z|, where 1 - z e^(-x) comes closest to 0, when that lies past
    the head; its integrand x^(s-1) g is one exponential over
    1 - z e^(-x).  g is scaled so that the integral of the modulus is about
    1, the scale on which mp.quad's error estimates are absolute; their
    sum is the bar.
    """
    import mpmath as mp

    zc, sc, ac = complex(z), complex(s), complex(a)
    if sc.real <= 0.0:
        raise DomainError("integral representation needs Re s > 0")
    if ac.real <= 0.0:
        raise DomainError("integral representation needs Re a > 0")
    if zc.imag == 0.0 and zc.real >= 1.0:
        raise DomainError("pole on the integration path: z in [1, inf)")

    with mp.workdps(_QUAD_DPS):
        zm, sm, am = mp.mpc(zc), mp.mpc(sc), mp.mpc(ac)
        # the integral of x^(Re s - 1) e^(-x Re a)
        mass = mp.gamma(sc.real) * mp.mpf(ac.real) ** -sc.real

        def g(x):
            return mp.exp(-am * x) / (mass * (1 - zm * mp.exp(-x)))

        c = mp.taylor(g, 0, 2)
        h = 1 / abs(am)
        head = sum(ck * h ** (sm + k) / (sm + k) for k, ck in enumerate(c))
        rest, err_head = mp.quad(
            lambda x: x ** (sm - 1) * (g(x) - c[0] - x * (c[1] + x * c[2])),
            [0, h], error=True)
        path = [h]
        ln_r = mp.log(abs(zm))  # -inf at z = 0
        if ln_r > h:
            path.append(ln_r)
        tail, err_tail = mp.quad(
            lambda x: (mp.exp((sm - 1) * mp.log(x) - am * x)
                       / (mass * (1 - zm * mp.exp(-x)))),
            path + [mp.inf], error=True)
        front = mass / mp.gamma(sm)
        value = complex(front * (head + rest + tail))
        # mp.quad's estimates and the working precision's rounding, on
        # the scale where the modulus integrates to about 1
        err_bar = float(abs(front) * (err_head + err_tail
                                      + mp.mpf(10) ** (3 - _QUAD_DPS)))
    err_bar += 5e-16 * abs(value)
    if err_bar > 1e-6 * (abs(value) + 1.0):
        raise AccuracyError("quadrature refinement stagnated",
                            achieved=err_bar)
    return ReferenceValue(value, err_bar, "quadrature")


def hp_series(z, s, a):
    """Defining series summed in mpmath arithmetic; |z| <= 0.95 only.

    Small terms stop the sum only once Re(a+n) > 0 (|a+n| falls before).
    Where the terms cancel (Re s < 0) the sum is run again with as many
    more digits as its largest term stands above it, and the bar counts
    10^(3 - dps) of that term."""
    import mpmath as mp

    zc, sc, ac = complex(z), complex(s), complex(a)
    if abs(zc) > _SERIES_RADIUS:
        raise DomainError("direct series reference restricted to "
                          f"|z| <= {_SERIES_RADIUS}")
    extra, lost = -1, 0
    while extra < min(lost, 300):
        extra = lost
        with mp.workdps(_SERIES_DPS + extra):
            zm, sm, am = mp.mpc(zc), mp.mpc(sc), mp.mpc(ac)
            stop = mp.mpf(10) ** (-_SERIES_DPS - extra - 5)
            total, big, zp, n = mp.mpc(0), mp.mpf(0), mp.mpc(1), 0
            while True:
                term = zp / (am + n) ** sm
                total += term
                big = max(big, abs(term))
                if (n >= 4 and ac.real + n > 0.0
                        and abs(term) <= stop * max(abs(total), 1)):
                    break
                if n > 200_000:
                    raise AccuracyError("series reference did not settle",
                                        achieved=float(abs(term)))
                zp *= zm
                n += 1
            # the digits cancelled: all of them where total is rounding
            lost = int(mp.log10(big / max(abs(total), big * stop)))
    tail = 2.0 * float(abs(term)) * abs(zc) / (1.0 - abs(zc)) if zc else 0.0
    value = complex(total)
    err_bar = (tail + float(max(big, abs(total)))
               * 10.0 ** (3 - _SERIES_DPS - extra) + 3e-16 * abs(value))
    return ReferenceValue(value, err_bar, "hp_series")


def hp_continuation(z, s, a):
    """mpmath's continuation at two precisions; their spread is the bar.

    For z exactly on [1, inf) mpmath resolves to the below-side limit;
    reference_value applies the side nudging, so call that instead for
    on-cut points.
    """
    import mpmath as mp

    zc, sc, ac = complex(z), complex(s), complex(a)
    vals = []
    for dps in _CONTINUATION_DPS:
        with mp.workdps(dps):
            try:
                vals.append(complex(mp.lerchphi(zc, sc, ac)))
            except Exception as exc:
                raise DomainError("continuation reference failed at "
                                  f"{dps} digits: {exc}") from exc
    v_low, v_high = vals
    err_bar = abs(v_low - v_high) + 3e-16 * abs(v_high)
    return ReferenceValue(v_high, err_bar, "hp_continuation")


def _cut_limit(p):
    # two one-sided continuations and a linear-in-eps extrapolation; the
    # applied correction is kept as the (deliberately fat) error bar
    sign = 1.0 if p.cut_side == "above" else -1.0
    refs = [hp_continuation(complex(p.z.real, sign * eps), p.s, p.a)
            for eps in _CUT_EPS]
    v_wide, v_near = refs[0].value, refs[1].value
    value = (10.0 * v_near - v_wide) / 9.0
    err_bar = abs(v_wide - v_near) / 9.0 + refs[0].err_bar + refs[1].err_bar
    return ReferenceValue(value, err_bar, "hp_continuation")


def _refuse_continuation(p):
    # mpmath's lerchphi is wrong for complex a at |z| > e: against
    # quadrature it was off at about a quarter of such points, by O(1) at
    # some, with its two precisions still agreeing, so the spread bar
    # does not show it.  Inside the band it is O(1) wrong where
    # arg a + arg(-ln z) leaves (-pi, pi], the argument that -a ln z
    # reaches along the Abel-Plana integral path.  At Re s < 0 past e its
    # quadrature of an integrand that grows like t^(-Re s) and turns
    # ln|z| / (2 pi) times a unit of t settles on a wrong value, the same
    # at 30, 40 and 60 digits: against 110 digits, 2.6e-9 relative off at
    # (1e6 e^(3i), -8.5, 0.6), 8e-14 at (1e3 e^(3i), -30.5, 0.6) and
    # O(1e19) at (1e6 e^(2i), -40.5, 0.6), with a spread of 0.  On a grid
    # of |z| to 1e3, Re s down to -20.5 and a in {0.6, 3} it was right.
    if p.s.real < 0.0 and abs(p.z) > math.e and (
            abs(p.z) > 1e3 or p.s.real < -20.0):
        raise DomainError("no trusted reference: mpmath's continuation is "
                          "unreliable at Re s < 0 past |z| = e, beyond "
                          "|z| = 1e3 or Re s = -20")
    if p.a.imag == 0.0:
        return
    if abs(p.z) > math.e:
        raise DomainError("no trusted reference: mpmath's continuation is "
                          "unreliable for complex a at |z| > e")
    if p.on_cut:  # the side's limit, as in _cut_limit
        arg_neg_ln = -math.pi if p.cut_side == "above" else math.pi
    else:
        arg_neg_ln = cmath.phase(-cmath.log(p.z))
    if not -math.pi < cmath.phase(p.a) + arg_neg_ln <= math.pi:
        raise DomainError("no trusted reference: mpmath's continuation is "
                          "unreliable for complex a where arg a + "
                          "arg(-ln z) leaves (-pi, pi]")


def reference_value(p):
    """Best available reference for the point.

    Routing: the defining series inside |z| <= 0.95; the one-sided
    Richardson limit on the cut; otherwise quadrature where the integral
    representation is comfortable (Re s > 0, Re a > 0, z not hugging
    [1, inf)), falling through to mpmath's continuation.  The two mpmath
    routes are refused (DomainError) for complex a at |z| > e, for
    complex a where arg a + arg(-ln z) leaves (-pi, pi], and at Re s < 0
    past |z| = e beyond |z| = 1e3 or Re s = -20.
    """
    z, s, a = p.z, p.s, p.a
    if abs(z) <= _SERIES_RADIUS:
        return hp_series(z, s, a)
    if p.on_cut:
        _refuse_continuation(p)
        return _cut_limit(p)
    if s.real > 0.05 and a.real > 0.0 and _cut_distance(z) > 0.05 * abs(z):
        try:
            return quad_integral(z, s, a)
        except (AccuracyError, DomainError):
            pass
    _refuse_continuation(p)
    return hp_continuation(z, s, a)
