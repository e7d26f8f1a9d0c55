"""Reference generator for the benchmark pools: mpmath only.

    python3 bench/refgen.py --workload ring [--pool-seed 20261018]

Draws the workload's candidates (pools.py), computes every point by two
independent mpmath routes and writes the points whose routes agree to
bench/refs/<workload>.json.  Nothing from lerchphi is imported: its
oracle is the production fallback of eval_auto, so a reference taken
from it would check the fallback against itself.

Routes:
  series    the defining series summed at 30 digits, |z| < 1;
  quad      the integral representation
            Gamma(s) Phi = int_0^oo t^(s-1) e^(-at) / (1 - z e^(-t)) dt
            (Re s > 0, Re a > 0): a Taylor series near t = 0, then
            mp.quad, with the path bent around the pole at t = ln z when
            that pole sits near the real axis, and bent to the side the
            cut_side names for points on the cut;
  lerchphi  mp.lerchphi at 30 and at 45 digits, which must agree with
            each other; on the cut it is taken at z +/- i 1e-40 at 60
            digits.  Never used for complex a past |z| = e, where it is
            known to be wrong.
Points with Re a <= 0 go through the a-shift identity
Phi(z, s, a) = a^(-s) + z Phi(z, s, a + 1) before either route.

A point is kept when its two routes agree to 1e-18 of max(1, |Phi|);
the stored error bar is their difference.
"""

import argparse
import json
import os
import sys
import time

import mpmath as mp
from mpmath.libmp import NoConvergence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import pools  # noqa: E402

DPS = 30
AGREE = mp.mpf("1e-18")
DEFAULT_POOL_SEED = 20261018


def _mpc(pair):
    return mp.mpc(pair[0], pair[1])


def series(z, s, a):
    """Defining series, |z| < 1."""
    with mp.workdps(DPS + 5):
        stop = mp.mpf(10) ** (-DPS - 3)
        total, zp, n = mp.mpc(0), mp.mpc(1), 0
        while True:
            term = zp * mp.power(a + n, -s)
            total += term
            if n > 4 and abs(term) <= stop * max(1, abs(total)) * (1 - abs(z)):
                return +total
            zp *= z
            n += 1


def _head(z, s, a, delta):
    """int_0^delta t^(s-1) g(t) dt for g(t) = e^(-at) / (1 - z e^(-t)),
    termwise from the Taylor series of g.  Quadrature alone loses digits
    at t = 0 when Re s is small and Im s is not (t^(i Im s) oscillates
    without end there); delta is a third of the distance from 0 to the
    nearest pole of g, so the series converges like 3^(-k)."""
    stop = mp.mpf(10) ** (-DPS - 8)
    w = [1 - z]                      # 1 - z e^(-t)
    h = [1 / w[0]]                   # 1 / (1 - z e^(-t))
    e_a = [mp.mpc(1)]                # e^(-at)
    total, k = mp.mpc(0), 0
    while True:
        if k:
            w.append(-z * (-1) ** k / mp.factorial(k))
            h.append(-mp.fsum(w[j] * h[k - j] for j in range(1, k + 1)) / w[0])
            e_a.append(e_a[-1] * (-a) / k)
        g_k = mp.fsum(e_a[j] * h[k - j] for j in range(k + 1))
        term = g_k * mp.power(delta, s + k) / (s + k)
        total += term
        if k > 8 and abs(term) <= stop * max(1, abs(total)):
            return total
        k += 1


def quad(z, s, a, side):
    """Integral representation; needs Re s > 0 and Re a > 0."""
    with mp.workdps(DPS + 10):
        def f(t):
            return mp.power(t, s - 1) * mp.exp(-a * t) / (1 - z * mp.exp(-t))

        c = mp.log(abs(z))
        theta = mp.arg(z)
        on_cut = z.imag == 0 and z.real >= 1
        delta = min(mp.mpf("0.5"), abs(mp.log(z)) / 3)
        path = [delta]
        if c > mp.mpf("0.1") and (on_cut or abs(theta) < 0.5):
            # poles of the integrand sit at ln|z| + i(theta + 2 pi k); pass
            # the nearest on the side away from it (depth 1 < pi clears the
            # next one).  On the cut the limit from above (theta -> 0+)
            # puts the pole just above the axis, so pass below it.
            if on_cut:
                down = side == "above"
            else:
                down = theta > 0
            depth = mp.mpc(0, -1 if down else 1)
            x1, x2 = c - min(1, c / 2), c + 1
            path += [x1, x1 + depth, x2 + depth, x2]
        elif c > delta:
            path.append(c)
        if path[-1] < 1:
            path.append(mp.mpf(1))
        path.append(mp.inf)
        return (_head(z, s, a, delta) + mp.quad(f, path)) / mp.gamma(s)


def lerch(z, s, a, side):
    """mp.lerchphi at two precisions; returns the higher one when they
    agree, else None."""
    on_cut = z.imag == 0 and z.real >= 1
    if on_cut:
        eps = mp.mpf("1e-40") * (1 if side == "above" else -1)
        with mp.workdps(60):
            return mp.lerchphi(z + mp.mpc(0, eps), s, a)
    vals = []
    for dps in (DPS, DPS + 15):
        with mp.workdps(dps):
            vals.append(mp.lerchphi(z, s, a))
    if abs(vals[0] - vals[1]) > AGREE * max(1, abs(vals[1])):
        return None
    return vals[1]


def a_shift(route, z, s, a, side):
    """Phi(z, s, a) = a^(-s) + z Phi(z, s, a + 1), repeated to Re a > 0."""
    if a.real > 0:
        return route(z, s, a, side)
    with mp.workdps(DPS + 5):
        inner = a_shift(route, z, s, a + 1, side)
        return None if inner is None else mp.power(a, -s) + z * inner


_ROUTES = {"series": lambda z, s, a, side: series(z, s, a),
           "quad": quad, "lerchphi": lerch}


def reference(point):
    """(value, err_bar, route names) or (None, reason, route names)."""
    z, s, a = _mpc(point["z"]), _mpc(point["s"]), _mpc(point["a"])
    names = ("series", "quad") if abs(z) < 1 else ("lerchphi", "quad")
    if "lerchphi" in names and a.imag != 0 and abs(z) > mp.e:
        return None, "no second route for complex a past e", names
    vals = []
    for name in names:
        try:
            v = a_shift(_ROUTES[name], z, s, a, point["side"])
        except (ValueError, ZeroDivisionError, NoConvergence) as exc:
            return None, f"{name} raised {type(exc).__name__}", names
        if v is None:
            return None, f"{name} disagrees with itself across precisions", \
                names
        vals.append(v)
    gap = abs(vals[0] - vals[1])
    if gap > AGREE * max(1, abs(vals[0])):
        return None, "routes disagree", names
    return vals[0], gap, names


def build(workload, pool_seed):
    kept, dropped = [], {}
    cands = pools.candidates(workload, pool_seed)
    for i, point in enumerate(cands):
        value, bar, names = reference(point)
        if value is None:
            dropped[bar] = dropped.get(bar, 0) + 1
            continue
        ref_err = float(max(bar, mp.mpf(10) ** -DPS * max(1, abs(value))))
        kept.append(dict(point, id=f"{workload}-{i:03d}",
                         ref=[mp.nstr(value.real, 25), mp.nstr(value.imag, 25)],
                         ref_err=ref_err, routes=list(names)))
    return {"workload": workload, "pool_seed": pool_seed,
            "candidates": len(cands), "dropped": dropped, "points": kept}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=pools.WORKLOADS)
    ap.add_argument("--pool-seed", type=int, default=DEFAULT_POOL_SEED)
    args = ap.parse_args(argv)
    t0 = time.time()
    pool = build(args.workload, args.pool_seed)
    out = os.path.join(HERE, "refs", f"{args.workload}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(pool, fh, indent=0)
        fh.write("\n")
    print(f"{args.workload}: kept {len(pool['points'])} of "
          f"{pool['candidates']}, dropped {pool['dropped']}, "
          f"{time.time() - t0:.0f} s -> {os.path.relpath(out)}")


if __name__ == "__main__":
    main()
