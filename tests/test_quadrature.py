"""Tanh-sinh rule: where refinement stops, for one value and for a block."""

import cmath
import math

import mpmath as mp

from lerchphi._quadrature import (_level_nodes, tanh_sinh, tanh_sinh_chunked,
                                  tanh_sinh_vector)

ULP = 2.0 ** -52


def counted(f):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)
    return g, calls


def nodes_up_to(max_level):
    """Integrand evaluations of one interval refined through max_level."""
    return 1 + 2 * sum(len(_level_nodes(k)) for k in range(max_level + 1))


def test_smooth_integrand_stops_at_the_rounding_floor():
    # rel_tol = 2e-16 is below what a double sum can resolve, so a
    # relative test alone would refine to max_level; the floor stops it
    # levels earlier, a few ulp from the exact value
    f, calls = counted(lambda x: 1.0 / (1.0 + x * x))
    value, err = tanh_sinh(f, 0.0, 1.0, rel_tol=2e-16, max_level=10)
    assert calls[0] <= nodes_up_to(6) < nodes_up_to(10)
    assert abs(value - math.pi / 4.0) <= 4.0 * ULP * (math.pi / 4.0)
    assert err < 1e-15

    g, calls = counted(lambda x: [1.0 / (1.0 + x * x), 2j / (1.0 + x * x)])
    values = tanh_sinh_vector(g, [0.0, 1.0], 2, rel_tol=2e-16, max_level=10)
    assert calls[0] <= nodes_up_to(6)
    assert abs(values[0] - math.pi / 4.0) <= 4.0 * ULP * (math.pi / 4.0)
    assert abs(values[1] - 0.5j * math.pi) <= 4.0 * ULP * (0.5 * math.pi)


def test_cancelling_integrand_does_not_stop_early():
    # the Hermite zeta integrand at |Im s| = 8: its sin factor grows like
    # e^(8 theta) and turns, so the integral of |f| dwarfs the integral;
    # the floor scales with the former, and the value must still come out
    # to that floor, not to some early level's error
    s, a = complex(-2.5, 8.0), 0.8

    def f(t):
        return (cmath.sin(s * cmath.atan(t / a))
                * cmath.exp(-0.5 * s * cmath.log(a * a + t * t))
                / math.expm1(2.0 * math.pi * t))

    def f_mp(t):
        return (mp.sin(mp.mpc(s) * mp.atan(t / a))
                * mp.exp(-mp.mpc(s) / 2 * mp.log(a * a + t * t))
                / mp.expm1(2 * mp.pi * t))

    want = mp.quad(f_mp, [0, 0.5, 1, 2])
    mass = mp.quad(lambda t: abs(f_mp(t)), [0, 0.5, 1, 2])
    assert mass > 2.0 * abs(want)  # it does cancel
    floor = 16.0 * ULP * float(mass)
    value, _ = tanh_sinh(f, 0.0, 2.0, rel_tol=2e-16, max_level=9)
    assert abs(value - complex(want)) <= floor
    block = tanh_sinh_vector(lambda t: [f(t), 3.0 * f(t)], [0.0, 2.0], 2,
                             rel_tol=2e-16, max_level=9)
    assert abs(block[0] - complex(want)) <= floor
    assert abs(block[1] - 3.0 * complex(want)) <= 3.0 * floor


def test_block_refines_until_every_component_settles():
    # a smooth component settles at once, a peaked one (width 1e-2 at
    # x = 0.3) needs many levels; the block must not stop with the first
    smooth = counted(lambda x: math.exp(x))
    tanh_sinh(smooth[0], 0.0, 1.0, rel_tol=1e-14)

    def peak(x):
        return 1.0 / (1e-4 + (x - 0.3) ** 2)

    peaked = counted(peak)
    alone, _ = tanh_sinh(peaked[0], 0.0, 1.0, rel_tol=1e-14)
    assert smooth[1][0] < peaked[1][0]
    want = 100.0 * (math.atan(70.0) + math.atan(30.0))
    block, calls = counted(lambda x: [math.exp(x), peak(x)])
    values = tanh_sinh_vector(block, [0.0, 1.0], 2, rel_tol=1e-14)
    assert calls[0] >= peaked[1][0]
    assert abs(values[0] - (math.e - 1.0)) <= 1e-14 * math.e
    assert abs(values[1] - want) <= 1e-12 * want
    assert abs(alone - want) <= 1e-12 * want


def test_chunks_past_the_rounding_of_the_whole_stop_at_once():
    # e^(-x) over [0, 1, 40, 60]: the last chunk holds e^-40 of the
    # total, so its first refinement is enough; alone, it would refine on
    f, calls = counted(lambda x: [cmath.exp(-x)])
    values = tanh_sinh_vector(f, [0.0, 1.0, 40.0, 60.0], 1, rel_tol=2e-16)
    assert abs(values[0] - (1.0 - math.exp(-60.0))) <= 8.0 * ULP
    g, alone = counted(lambda x: [cmath.exp(-x)])
    tanh_sinh_vector(g, [40.0, 60.0], 1, rel_tol=2e-16)
    h, head = counted(lambda x: [cmath.exp(-x)])
    tanh_sinh_vector(h, [0.0, 1.0, 40.0], 1, rel_tol=2e-16)
    assert calls[0] - head[0] == nodes_up_to(1) < alone[0]


def test_scalar_chunks_past_the_rounding_of_the_whole_stop_at_once():
    # tanh_sinh_chunked carries the integral of |f| over the chunks
    # before into each chunk's stop rule, as tanh_sinh_vector does
    f, calls = counted(lambda x: cmath.exp(-x))
    value, _ = tanh_sinh_chunked(f, [0.0, 1.0, 40.0, 60.0], rel_tol=2e-16)
    assert abs(value - (1.0 - math.exp(-60.0))) <= 8.0 * ULP
    g, alone = counted(lambda x: cmath.exp(-x))
    tanh_sinh(g, 40.0, 60.0, rel_tol=2e-16)
    h, head = counted(lambda x: cmath.exp(-x))
    tanh_sinh_chunked(h, [0.0, 1.0, 40.0], rel_tol=2e-16)
    assert calls[0] - head[0] == nodes_up_to(1) < alone[0]

