"""Tanh-sinh rule: where refinement stops, on one interval and on chunks;
the half-line rule against closed forms."""

import cmath
import math

import mpmath as mp

from lerchphi import _quadrature
from lerchphi._quadrature import _half_line_nodes, _level_nodes, tanh_sinh

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


def nodes_on_half_line(max_level):
    """Integrand evaluations of a half line refined through max_level."""
    return sum(len(_half_line_nodes(k)) for k in range(max_level + 1))


def test_smooth_integrand_stops_at_the_rounding_floor():
    # rel_tol = 2e-16 is below what a double sum can resolve, so a
    # relative test alone would refine to the last level, 10; the floor
    # stops it levels earlier, a few ulp from the exact value
    f, calls = counted(lambda x: 1.0 / (1.0 + x * x))
    value, err, _ = tanh_sinh(f, [0.0, 1.0], rel_tol=2e-16)
    assert calls[0] <= nodes_up_to(6) < nodes_up_to(10)
    assert abs(value - math.pi / 4.0) <= 4.0 * ULP * (math.pi / 4.0)
    assert err < 1e-15


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
    value, _, _ = tanh_sinh(f, [0.0, 2.0], rel_tol=2e-16)
    assert abs(value - complex(want)) <= floor


def test_scalar_chunks_past_the_rounding_of_the_whole_stop_at_once():
    # tanh_sinh carries the integral of |f| over the chunks before into
    # each chunk's stop rule
    f, calls = counted(lambda x: cmath.exp(-x))
    value, _, _ = tanh_sinh(f, [0.0, 1.0, 40.0, 60.0], rel_tol=2e-16)
    assert abs(value - (1.0 - math.exp(-60.0))) <= 8.0 * ULP
    g, alone = counted(lambda x: cmath.exp(-x))
    tanh_sinh(g, [40.0, 60.0], rel_tol=2e-16)
    h, head = counted(lambda x: cmath.exp(-x))
    tanh_sinh(h, [0.0, 1.0, 40.0], rel_tol=2e-16)
    assert calls[0] - head[0] == nodes_up_to(1) < alone[0]


def test_quadratic_convergence_stops_a_level_early(monkeypatch):
    # 1/(x^2 + c^2) on [0, 1] is atan(1/c) / c.  At rel_tol 1e-8 a level
    # whose change fell 1000x from the one before is in the rule's
    # digit-doubling regime; 10 change^2 / |part| is under the stop bar
    # there, so the chunk stops without the level that would have shown
    # a change under it, and reports that quantity as its error
    for c in (0.3, 0.03):
        exact = math.atan(1.0 / c) / c
        f, calls = counted(lambda x: 1.0 / (x * x + c * c))
        value, err, _ = tanh_sinh(f, [0.0, 1.0], rel_tol=1e-8)
        assert abs(value - exact) <= err
        assert err > 1e-13 * exact  # the squared change, not the floor
        with monkeypatch.context() as m:
            m.setattr(_quadrature, "_QUADRATIC_DROP", 0.0)  # never fires
            g, old = counted(lambda x: 1.0 / (x * x + c * c))
            value_old, err_old, _ = tanh_sinh(g, [0.0, 1.0], rel_tol=1e-8)
        assert calls[0] < old[0]
        assert abs(value_old - exact) <= err_old


def test_half_line_rule_against_closed_forms():
    # edges [0, inf]: the map x = exp(u - e^-u) on an oscillating
    # integrand, one with an endpoint singularity, and one that decays
    # like e^(-pi t) t^6; the reported error covers the true one at a
    # tight and a loose tolerance
    cases = (
        (lambda t: math.exp(-t) * math.cos(5.0 * t), 1.0 / 26.0),
        (lambda t: math.exp(-t) / math.sqrt(t), math.sqrt(math.pi)),
        (lambda t: t ** 6 * math.exp(-math.pi * t),
         math.factorial(6) / math.pi ** 7),
    )
    for f, exact in cases:
        for rel_tol in (1e-13, 1e-8):
            g, calls = counted(f)
            value, err, mass = tanh_sinh(g, [0.0, math.inf], rel_tol)
            assert abs(value - exact) <= err, (exact, rel_tol)
            assert err <= max(rel_tol, 1e-15) * exact
            assert mass >= abs(value)
            assert calls[0] < nodes_on_half_line(_quadrature._MAX_LEVEL)


def test_half_line_chunk_after_finite_chunks():
    # [0, 1] by the tanh-sinh map, [1, oo) by the half-line map: the
    # integral of e^-t, and the nodes of the last chunk start at 1
    seen = []

    def f(t):
        seen.append(t)
        return cmath.exp(-t)
    value, err, _ = tanh_sinh(f, [0.0, 1.0, math.inf], rel_tol=1e-14)
    assert abs(value - 1.0) <= err <= 1e-14
    assert min(t for t in seen if t >= 1.0) == 1.0 + _half_line_nodes(0)[0][0]
