"""Property checks of the stored references against closed forms and the
a-shift identity, and of the generator's routes where no stored point
has a closed form (s = 0, non-trivial polylogarithms)."""

import json
import os
import random

import mpmath as mp
import pytest

import pools
import refgen

REFS = os.path.join(os.path.dirname(refgen.__file__), "refs")
TOL = mp.mpf("1e-18")


def _pool(workload):
    with open(os.path.join(REFS, f"{workload}.json")) as fh:
        return json.load(fh)["points"]


def _ref(p):
    return mp.mpc(mp.mpf(p["ref"][0]), mp.mpf(p["ref"][1]))


def _nudged(z, side):
    """z itself off the cut; on the cut, the side's limit point."""
    if z.imag == 0 and z.real >= 1:
        return z + mp.mpc(0, mp.mpf("1e-40") * (1 if side == "above" else -1))
    return z


def _close(got, want):
    return abs(got - want) <= TOL * max(1, abs(want))


@pytest.fixture(autouse=True)
def _precision():
    with mp.workdps(60):
        yield


@pytest.mark.parametrize("workload", pools.WORKLOADS)
def test_stored_error_bars_are_tight(workload):
    for p in _pool(workload):
        assert p["ref_err"] <= 1e-18 * max(1.0, abs(complex(
            float(p["ref"][0]), float(p["ref"][1])))), p["id"]
        assert len(p["routes"]) == 2


def test_s1_a1_matches_minus_log():
    hits = 0
    for p in _pool("sweep"):
        if p["s"] == [1.0, 0.0] and p["a"] == [1.0, 0.0]:
            z = _nudged(refgen._mpc(p["z"]), p["side"])
            assert _close(_ref(p), -mp.log(1 - z) / z), p["id"]
            hits += 1
    assert hits >= 50


def test_a1_matches_polylog_over_z():
    hits = 0
    for workload in pools.WORKLOADS:
        for p in _pool(workload):
            if p["a"] == [1.0, 0.0]:
                s = refgen._mpc(p["s"])
                z = _nudged(refgen._mpc(p["z"]), p["side"])
                assert _close(_ref(p), mp.polylog(s, z) / z), p["id"]
                hits += 1
    assert hits >= 50


@pytest.mark.parametrize("z, side", [(-0.7, "above"), (0.4 + 0.5j, "above"),
                                     (-30.0, "above"), (12.0 + 40.0j, "above"),
                                     (8.0, "above"), (8.0, "below")])
@pytest.mark.parametrize("s", [2, 3])
def test_generator_matches_polylog_at_integer_s(z, s, side):
    point = {"z": [complex(z).real, complex(z).imag], "s": [s, 0.0],
             "a": [1.0, 0.0], "side": side}
    value, bar, _ = refgen.reference(point)
    assert value is not None, bar
    zm = _nudged(mp.mpc(z), side)
    assert _close(value, mp.polylog(s, zm) / zm)


@pytest.mark.parametrize("z", [0.3 - 0.6j, -0.85, 3.0 + 4.0j, -250.0])
@pytest.mark.parametrize("a", [0.3, 2.5])
def test_generator_routes_at_s0_give_geometric_sum(z, a):
    zm, am = mp.mpc(z), mp.mpc(a)
    if abs(zm) < 1:
        value = refgen.series(zm, mp.mpc(0), am)
    else:
        value = refgen.lerch(zm, mp.mpc(0), am, "above")
    assert _close(value, 1 / (1 - zm))


@pytest.mark.parametrize("workload", pools.WORKLOADS)
def test_a_shift_identity_on_stored_points(workload):
    # Phi(z, s, a) = a^(-s) + z Phi(z, s, a + 1), with the right side
    # from mp.lerchphi (off its known-bad corner: complex a past e)
    sample = random.Random(7).sample(_pool(workload), 8)
    for p in sample:
        z, s, a = (refgen._mpc(p[k]) for k in ("z", "s", "a"))
        shifted = refgen.lerch(z, s, a + 1, p["side"])
        assert shifted is not None
        assert _close(_ref(p), mp.power(a, -s) + z * shifted), p["id"]
