"""Candidate points for the three benchmark workloads.

Standard library only: the generator (refgen.py) draws these candidates,
computes a reference for each with mpmath and stores the survivors in
refs/<workload>.json.  The timed runs read the stored pools.

A round of the benchmark attempts every stored point of its workload;
the seed decides, point by point, whether the point or its complex
conjugate is evaluated (see run.select_round).
"""

import cmath
import math
import random

WORKLOADS = ("ring", "large_z", "sweep")

# |arg z| below this is treated as hugging the positive real axis, which
# off-cut workloads avoid (near z = 1 and along the cut both the program
# and the quadrature reference change regime)
_ARG_MIN = 0.05


def _off_axis_arg(rng):
    return rng.choice((-1.0, 1.0)) * rng.uniform(_ARG_MIN, math.pi)


def _point(z, s, a, side="above"):
    z, s, a = complex(z), complex(s), complex(a)
    return {"z": [z.real, z.imag], "s": [s.real, s.imag],
            "a": [a.real, a.imag], "side": side}


def ring_candidates(rng, n):
    """0.9 < |z| < e off the positive axis.  One fifth of the points have
    a positive integer s (the near-one expansion hits a gamma pole there
    and eval_auto answers from its mpmath fallback); three in ten have a
    complex a."""
    out = []
    for _ in range(n):
        z = cmath.rect(math.exp(rng.uniform(math.log(0.9), 1.0)),
                       _off_axis_arg(rng))
        if rng.random() < 0.2:
            s = complex(rng.randint(1, 5), 0.0)
        else:
            s = complex(rng.uniform(0.1, 6.0), rng.uniform(-3.0, 3.0))
        im_a = rng.uniform(-1.0, 1.0) if rng.random() < 0.3 else 0.0
        a = complex(rng.uniform(0.05, 4.0), im_a)
        out.append(_point(z, s, a))
    return out


def large_z_candidates(rng, n):
    """e < |z| < 400, arg z uniform off the cut, Re s in (0.1, 6),
    |Im s| <= 6, real a in (0.05, 4); every point has its own (s, a)."""
    out = []
    for _ in range(n):
        z = cmath.rect(math.exp(rng.uniform(1.0, math.log(400.0))),
                       _off_axis_arg(rng))
        s = complex(rng.uniform(0.1, 6.0), rng.uniform(-6.0, 6.0))
        a = complex(rng.uniform(0.05, 4.0), 0.0)
        out.append(_point(z, s, a))
    return out


# (label, s, a): the showcase pair, an integer s (closed form past e), an
# integer s with integer a (mpmath fallback past e), a complex s with
# |Im s| > 2, and a pair with Re a < 0
SWEEP_PAIRS = (
    ("showcase", 0.75, 0.3),
    ("int_s", 3.0, 0.7),
    ("int_s_int_a", 1.0, 1.0),
    ("complex_s", 1.5 + 2.5j, 0.6),
    ("neg_a", 0.5, -0.4),
)
# rays as (label, arg z, cut side); the positive axis is on the cut only
# for |z| >= 1, so its "below" copy is swept over the large segment alone
_SMALL_RAYS = (("neg", math.pi, "above"), ("2pi3", 2.0 * math.pi / 3, "above"),
               ("pi3", math.pi / 3, "above"), ("pos", 0.0, "above"))
_LARGE_RAYS = _SMALL_RAYS[:3] + (("cut_above", 0.0, "above"),
                                 ("cut_below", 0.0, "below"))
_SMALL_STEPS = (0.05, 0.9, 16)
_LARGE_STEPS = (math.e, 1000.0, 12)
# A few points of the band 0.9 < |z| < e, so that the near-one expansion,
# its Hermite-route zeta quadrature and the integer-s mpmath fallback run
# in the sweep too.  The near-one points sit on the positive axis (on
# both sides of the cut past 1), where that expansion is cheapest: 30-90
# ms a point, against up to 1.7 s elsewhere in the band, which would
# drown the sweep's us-ms paths.  The integer-s points are off the cut,
# where the fallback is a 2 ms quadrature.
_BAND_NEAR_ONE = ((0.92, "above"), (0.96, "above"),
                  (1.15, "above"), (1.15, "below"), (1.3, "above"),
                  (1.3, "below"), (1.5, "above"), (1.5, "below"))
_BAND_INT_S = (math.pi / 3, 2.0 * math.pi / 3)


def _geometric(lo, hi, count):
    q = (hi / lo) ** (1.0 / (count - 1))
    return [lo * q ** k for k in range(count - 1)] + [hi]


def sweep_candidates():
    """Each pair stepped geometrically in |z| along several rays, over
    |z| <= 0.9 and e <= |z| <= 1000.  The integer-a pair skips the cut,
    where its mpmath fallback costs about half a second a point.  Ten
    points of the band 0.9 < |z| < e come last (see _BAND_NEAR_ONE)."""
    out = []
    for label, s, a in SWEEP_PAIRS:
        for rays, steps in ((_SMALL_RAYS, _SMALL_STEPS),
                            (_LARGE_RAYS, _LARGE_STEPS)):
            for ray, arg, side in rays:
                if label == "int_s_int_a" and ray.startswith("cut"):
                    continue
                for r in _geometric(*steps):
                    if arg in (0.0, math.pi):
                        z = complex(math.cos(arg) * r, 0.0)
                    else:
                        z = cmath.rect(r, arg)
                    out.append(_point(z, s, a, side))
    _, s, a = SWEEP_PAIRS[0]
    out += [_point(complex(r, 0.0), s, a, side) for r, side in _BAND_NEAR_ONE]
    _, s, a = SWEEP_PAIRS[1]
    out += [_point(cmath.rect(1.5, arg), s, a) for arg in _BAND_INT_S]
    return out


def candidates(workload, pool_seed):
    rng = random.Random(pool_seed)
    if workload == "ring":
        return ring_candidates(rng, 120)
    if workload == "large_z":
        return large_z_candidates(rng, 280)
    if workload == "sweep":
        return sweep_candidates()
    raise ValueError(f"unknown workload {workload!r}")
