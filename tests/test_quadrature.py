"""Double-exponential rule on [0, oo): where refinement stops, and the
rule against closed forms."""

import cmath
import math

import mpmath as mp

from lerchphi import _quadrature
from lerchphi._quadrature import _half_line_nodes, tanh_sinh

ULP = 2.0 ** -52


def counted(f):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)
    return g, calls


def nodes_up_to(max_level):
    """Integrand evaluations of the half line refined through max_level."""
    return sum(len(_half_line_nodes(k)) for k in range(max_level + 1))


def test_smooth_integrand_stops_at_the_rounding_floor():
    # rel_tol = 2e-16 is below what a double sum can resolve, so a
    # relative test alone would refine to the last level, 10; the floor
    # stops it levels earlier, a few ulp from the exact value
    f, calls = counted(lambda x: 1.0 / math.cosh(x))
    value, err, _ = tanh_sinh(f, rel_tol=2e-16)
    assert calls[0] <= nodes_up_to(4) < nodes_up_to(10)
    assert abs(value - math.pi / 2.0) <= 4.0 * ULP * (math.pi / 2.0)
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

    want = mp.quad(f_mp, [0, 0.5, 1, 2, mp.inf])
    mass = mp.quad(lambda t: abs(f_mp(t)), [0, 0.5, 1, 2, mp.inf])
    assert mass > 2.0 * abs(want)  # it does cancel
    floor = 16.0 * ULP * float(mass)
    value, _, _ = tanh_sinh(f, rel_tol=2e-16)
    assert abs(value - complex(want)) <= floor


def test_quadratic_convergence_stops_a_level_early(monkeypatch):
    # e^(-x^2) and e^(-x) cos x on [0, oo).  At rel_tol 1e-8 a level
    # whose change fell 1000x from the one before is in the rule's
    # digit-doubling regime; the predicted next change is under the stop
    # bar there, so the rule stops without the level that would have
    # shown a change under it, and reports that prediction as its error
    cases = ((lambda x: math.exp(-x * x), 0.5 * math.sqrt(math.pi)),
             (lambda x: math.exp(-x) * math.cos(x), 0.5))
    for f, exact in cases:
        g, calls = counted(f)
        value, err, _ = tanh_sinh(g, rel_tol=1e-8)
        assert abs(value - exact) <= err
        assert err > 1e-13 * exact  # the predicted change, not the floor
        with monkeypatch.context() as m:
            m.setattr(_quadrature, "_QUADRATIC_DROP", 0.0)  # never fires
            h, old = counted(f)
            value_old, err_old, _ = tanh_sinh(h, rel_tol=1e-8)
        assert calls[0] < old[0]
        assert abs(value_old - exact) <= err_old


def test_no_level_below_min_level_stops_the_rule():
    # e^(-x) cos x meets the floor by level 3 from u = -4 (see below);
    # with min_level 6 the rule refines through level 6 and stops there
    f, calls = counted(lambda x: math.exp(-x) * math.cos(x))
    value, err, _ = tanh_sinh(f, 1e-15, u_min=-4.0, min_level=6)
    assert calls[0] == sum(len(_half_line_nodes(k, -4.0)) for k in range(7))
    assert abs(value - 0.5) <= max(err, 2.0 * ULP * 0.5)


def test_half_line_rule_against_closed_forms():
    # the map x = exp(u - e^-u) on an oscillating integrand, one with an
    # endpoint singularity, and one that decays like e^(-pi t) t^6; the
    # reported error covers the true one at a tight and a loose tolerance
    cases = (
        (lambda t: math.exp(-t) * math.cos(5.0 * t), 1.0 / 26.0),
        (lambda t: math.exp(-t) / math.sqrt(t), math.sqrt(math.pi)),
        (lambda t: t ** 6 * math.exp(-math.pi * t),
         math.factorial(6) / math.pi ** 7),
    )
    for f, exact in cases:
        for rel_tol in (1e-13, 1e-8):
            g, calls = counted(f)
            value, err, mass = tanh_sinh(g, rel_tol)
            assert abs(value - exact) <= err, (exact, rel_tol)
            assert err <= max(rel_tol, 1e-15) * exact
            assert mass >= abs(value)
            assert calls[0] < nodes_up_to(_quadrature._MAX_LEVEL)


def test_bounded_integrand_may_start_at_u_minus_4():
    # an integrand bounded at 0 loses nothing when the rule starts at
    # u = -4, with 6% fewer nodes; x^(-1/2) e^(-x) needs the default
    # start, -4.5: from -4 the rule misses the piece of the singularity
    # below its first node and comes out 3.7e-14 low
    def bounded(x):
        return math.exp(-x) * math.cos(x)

    def singular(x):
        return math.exp(-x) / math.sqrt(x)

    f, calls = counted(bounded)
    value, err, _ = tanh_sinh(f, 1e-15, u_min=-4.0)
    assert abs(value - 0.5) <= 2.0 * ULP * 0.5
    assert calls[0] == sum(len(_half_line_nodes(k, -4.0)) for k in range(4))
    assert calls[0] < nodes_up_to(3)
    rooted = math.sqrt(math.pi)
    assert abs(tanh_sinh(singular, 1e-15)[0] - rooted) <= 2.0 * ULP * rooted
    assert abs(tanh_sinh(singular, 1e-15, u_min=-4.0)[0] - rooted) > 1e-14


def test_integrand_is_called_at_the_nodes_in_level_order():
    # a caller may key work on the call order (the kernel's Abel-Plana
    # integral keeps each node's factors by it): level 0's nodes, then
    # each level's new ones, each in _half_line_nodes' order, one call a
    # node
    for u_min in (_quadrature._U_MIN, -4.0):
        xs = []

        def f(x):
            xs.append(x)
            return math.exp(-x) * math.cos(x)

        tanh_sinh(f, 1e-15, u_min)
        want = []
        level = 0
        while len(want) < len(xs):
            want += [x for x, _ in _half_line_nodes(level, u_min)]
            level += 1
        assert level >= 4
        assert xs == want
