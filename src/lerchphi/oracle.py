"""Independent reference values used as ground truth in tests and reports.

Nothing here shares arithmetic with the production engines.  The
quadrature route integrates the real-axis integral representation with
the local tanh-sinh rule; the two high-precision routes run inside
mpmath.  Every result carries an explicit error bar and a method tag so
callers can decide whether it is tight enough to adjudicate a claim.

mpmath is imported by the functions that use it, not with this module:
the engines run without it, and it is an optional dependency (the
``oracle`` extra).  Without it those functions raise ImportError.
"""

import cmath
import math
from dataclasses import dataclass

from ._quadrature import tanh_sinh, tanh_sinh_chunked
from ._types import LerchPoint
from .errors import AccuracyError, DomainError

_ACCEPT_BAR = 1e-10
_SERIES_RADIUS = 0.95
_CUT_EPS = (1e-6, 1e-7)


@dataclass(frozen=True)
class ReferenceValue:
    value: complex
    err_bar: float
    method: str  # "quadrature" | "hp_series" | "hp_continuation"

    @property
    def accepted(self):
        """Tight enough to adjudicate ten-digit claims."""
        return self.err_bar <= _ACCEPT_BAR


def _cut_distance(z):
    if z.real <= 1.0:
        return abs(z - 1.0)
    return abs(z.imag)


def quad_integral(z, s, a, rel_tol=1e-12):
    """Gamma-normalized integral of x^(s-1) e^(-ax) / (1 - z e^(-x)).

    Needs Re s > 0, Re a > 0 and z off [1, inf).  The [0, 1] piece goes
    through the double-exponential rule, whose endpoint-offset sampling
    absorbs the x^(s-1) singularity; the rest is summed over doubling
    chunks out to where an explicit exponential majorant takes over.
    """
    import mpmath as mp

    zc, sc, ac = complex(z), complex(s), complex(a)
    if sc.real <= 0.0:
        raise DomainError("integral representation needs Re s > 0")
    if ac.real <= 0.0:
        raise DomainError("integral representation needs Re a > 0")
    if zc.imag == 0.0 and zc.real >= 1.0:
        raise DomainError("pole on the integration path: z in [1, inf)")

    def f(x):
        return x ** (sc - 1.0) * cmath.exp(-ac * x) / (1.0 - zc * cmath.exp(-x))

    q = ac.real
    x_max = max(50.0, (40.0 + abs(math.log(rel_tol))) / min(1.0, q))
    if abs(zc) > 1.0:
        x_max = max(x_max, math.log(abs(zc)) + 40.0)

    head, err_head = tanh_sinh(f, 0.0, 1.0, rel_tol=rel_tol)
    edges = [1.0]
    while edges[-1] < x_max:
        edges.append(min(2.0 * edges[-1], x_max))
    tail, err_tail = tanh_sinh_chunked(f, edges, rel_tol=rel_tol)

    # past x_max the integrand is below 2 x^(p-1) e^(-qx); the doubling
    # of x_max with ln|z| keeps |z e^(-x)| under e^(-40) there
    p = sc.real
    trunc = 2.0 * x_max ** max(p - 1.0, 0.0) * math.exp(-q * x_max) / q
    if p > 1.0:
        trunc /= max(1.0 - (p - 1.0) / (q * x_max), 0.5)

    with mp.workdps(30):
        inv_gamma = complex(1.0 / mp.gamma(mp.mpc(sc)))
    raw = head + tail
    value = inv_gamma * raw
    err_bar = abs(inv_gamma) * (err_head + err_tail + trunc) \
        + 5e-16 * abs(value)
    if err_bar > 1e-6 * (abs(value) + 1.0):
        raise AccuracyError("quadrature refinement stagnated",
                            achieved=err_bar)
    return ReferenceValue(value, err_bar, "quadrature")


def hp_series(z, s, a, dps=30):
    """Defining series summed in mpmath arithmetic; |z| <= 0.95 only."""
    import mpmath as mp

    zc, sc, ac = complex(z), complex(s), complex(a)
    if abs(zc) > _SERIES_RADIUS:
        raise DomainError("direct series reference restricted to "
                          f"|z| <= {_SERIES_RADIUS}")
    with mp.workdps(dps):
        zm, sm, am = mp.mpc(zc), mp.mpc(sc), mp.mpc(ac)
        stop = mp.mpf(10) ** (-dps - 5)
        total = mp.mpc(0)
        zp = mp.mpc(1)
        n = 0
        while True:
            term = zp / (am + n) ** sm
            total += term
            if n >= 4 and abs(term) <= stop * max(abs(total), mp.mpf(1)):
                break
            if n > 200_000:
                raise AccuracyError("series reference did not settle",
                                    achieved=float(abs(term)))
            zp *= zm
            n += 1
        az = abs(zc)
        tail = 2.0 * float(abs(term)) * az / (1.0 - az) if az else 0.0
        value = complex(total)
    err_bar = tail + 10.0 ** (3 - dps) * abs(value) + 3e-16 * abs(value)
    return ReferenceValue(value, err_bar, "hp_series")


def hp_continuation(z, s, a, dps_low=30, dps_high=40):
    """mpmath's continuation at two precisions; their spread is the bar.

    For z exactly on [1, inf) mpmath resolves to the below-side limit;
    reference_value applies the side nudging, so call that instead for
    on-cut points.
    """
    import mpmath as mp

    zc, sc, ac = complex(z), complex(s), complex(a)
    vals = []
    for dps in (dps_low, dps_high):
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
    # does not show it
    if p.a.imag != 0.0 and abs(p.z) > math.e:
        raise DomainError("no trusted reference: mpmath's continuation is "
                          "unreliable for complex a at |z| > e")


def reference_value(p):
    """Best available reference for the point.

    Routing: the defining series inside |z| <= 0.95; the one-sided
    Richardson limit on the cut; otherwise quadrature where the integral
    representation is comfortable (Re s > 0, Re a > 0, z not hugging
    [1, inf)), falling through to mpmath's continuation.  The two mpmath
    routes are refused (DomainError) for complex a at |z| > e.
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
