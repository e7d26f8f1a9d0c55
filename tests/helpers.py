"""Small shared utilities for the test modules."""

import cmath
import math
import random

import mpmath as mp

from lerchphi.engines import _DIRECT_CAP, _SUM_ULPS
from lerchphi.errors import AccuracyError


def rel_err(got, want):
    """|got - want| / |want|, falling back to absolute error at want = 0."""
    got = complex(got)
    want = complex(want)
    scale = abs(want)
    if scale == 0.0:
        return abs(got)
    return abs(got - want) / scale


def sample(seed, n, draw):
    """n deterministic draws from a seeded Random passed to draw(rng)."""
    rng = random.Random(seed)
    return [draw(rng) for _ in range(n)]


def reference_series_sum(z, s, a, tol):
    """The defining series sum_{n>=0} z^n (a+n)^(-s) at |z| < 1: its
    value, an error estimate and the number of terms summed, by one loop
    that decides each term's route afresh.  engines._series_sum keeps
    these operations in this order, so it must agree bit for bit.

    Stops once the tail bound, the next term over 1 - r, drops under tol;
    r bounds the ratio of each later term to the one before, |z| times
    (1 + 1/|a+n|)^(-Re s) at Re s < 0, where the terms grow before they
    fall.  While Re(a+n) <= 0, |a+n| still falls, so the next term bounds
    no later one: at Re s >= 0 each is at most d^(-Re s) e^(pi |Im s|)
    times |z|^n, d = |a - round(Re a)| the distance of a from the
    integers, and at Re s < 0 the bound is infinite.  The estimate adds
    _SUM_ULPS of the sum of their sizes.
    """
    az = abs(z)
    total = 0.0j
    zp = 1.0 + 0.0j
    geo = 1.0 / (1.0 - az)  # |z|^n / (1 - |z|)
    mass = 0.0  # of the terms, over 1 - |z|
    # at real a + n > 0, |(a+n)^(-s)| is the float power (a+n)^(-Re s),
    # and at real s too that power is the term's factor itself; where
    # every term is real and z is too, the sum is a float sum (the real
    # parts of the complex one)
    real_a = a.imag == 0.0
    real_s = s.imag == 0.0
    if real_a and real_s and a.real > 0.0 and z.imag == 0.0:
        z, zp, total = z.real, 1.0, 0.0
    ar, minus_sr, minus_s = a.real, -s.real, -s
    # each term while Re(a+n) <= 0 is at most far |z|^n
    d = abs(a - round(ar)) if ar <= 0.0 and minus_sr <= 0.0 else 0.0
    far = d ** minus_sr * math.exp(math.pi * abs(s.imag)) if d else math.inf
    n = 0
    while True:
        positive = real_a and ar + n > 0.0
        if positive:
            size = (ar + n) ** minus_sr
            bound = geo * size
        else:  # e^|Im s arg(a+n)| bounds that factor of later terms
            size = (abs(a + n) ** minus_sr
                    * math.exp(abs(s.imag * cmath.phase(a + n))))
            bound = geo * (size if ar + n > 0.0 else far)
        if minus_sr > 0.0 and ar + n > 0.0:
            ratio = az * (1.0 + 1.0 / abs(a + n)) ** minus_sr
            bound = (bound * (1.0 - az) / (1.0 - ratio)
                     if ratio < 1.0 else math.inf)
        if n and bound < tol:
            break
        if n >= _DIRECT_CAP:
            raise AccuracyError("defining series hit the term cap",
                                achieved=bound)
        total += zp * (size if positive and real_s else (a + n) ** minus_s)
        mass += geo * size
        zp *= z
        geo *= az
        n += 1
    return complex(total), bound + _SUM_ULPS * (1.0 - az) * mass, n


def lerch_transformation(z, s, a, dps):
    """Phi(z, s, a) at real a > 0 and Re s < 0, in mpmath at dps digits,
    by Lerch's transformation (Lerch, Acta Math. 11, 1887; Apostol,
    Pacific J. Math. 1, 1951): with z = e^(2 pi i lam), 0 <= Re lam < 1
    (z off [0, oo), or its limit from above), s' = 1 - s and
    0 < b <= 1,

        Phi(z, 1 - s', b) = Gamma(s') / (2 pi)^s'
            [e^(i pi (s'/2 - 2 b lam)) Phi(e^(-2 pi i b), s', lam)
             + e^(-i pi (s'/2 - 2 b (1 - lam))) Phi(e^(2 pi i b), s', 1 - lam)].

    Both sums lie on the unit circle at Re s' > 1 and converge
    absolutely; mp.nsum adds them.  a > 1 steps down K = ceil(a) - 1 to
    b = a - K: Phi(z, s, a) = z^(-K) (Phi(z, s, b) - sum_(n<K) z^n (b+n)^(-s)).
    No engine and no mpmath continuation of Phi takes part.
    """
    with mp.workdps(dps):
        z, s = mp.mpc(z), mp.mpc(s)
        k = math.ceil(a) - 1
        b = mp.mpf(a) - k
        lam = mp.log(z) / (2j * mp.pi)
        if lam.real < 0:
            lam += 1
        t = 1 - s

        def unit_sum(x, c):  # sum_n e^(2 pi i x n) (n + c)^(-t)
            return mp.nsum(lambda n: mp.expjpi(2 * x * n) * (n + c) ** -t,
                           [0, mp.inf])

        phi = mp.gamma(t) / (2 * mp.pi) ** t * (
            mp.expjpi(t / 2 - 2 * b * lam) * unit_sum(-b, lam)
            + mp.expjpi(2 * b * (1 - lam) - t / 2) * unit_sum(b, 1 - lam))
        head = mp.fsum(z ** n * (b + n) ** -s for n in range(k))
        return z ** -k * (phi - head)


def lerch_judge(z, s, a):
    """A reference for Phi(z, s, a) at real a > 0 and Re s < 0 and its
    bar: Lerch's transformation at 60 digits, and its distance from the
    same at 40."""
    want = lerch_transformation(z, s, a.real, 60)
    spread = abs(want - lerch_transformation(z, s, a.real, 40))
    return complex(want), float(spread)
