"""Round selection: every pool point once whatever the seed, known
failures in their stored orientation, the same round for the same seed,
other inputs for other seeds."""

import pytest

import pools
import run


def _inputs(r):
    return [(p["id"], tuple(p["z"]), tuple(p["s"]), tuple(p["a"]), p["side"])
            for p in r]


@pytest.mark.parametrize("workload", pools.WORKLOADS)
def test_round_covers_the_pool_whatever_the_seed(workload):
    pool = run.load_pool(workload)
    known = run.load_known(workload)
    stored = {p["id"]: p for p in pool}
    rounds = [run.select_round(workload, pool, known, seed)
              for seed in range(4)]
    for r in rounds:
        assert sorted(p["id"] for p in r) == sorted(stored)
        for p in r:
            if p["id"] in known:
                assert p is stored[p["id"]]
            if p.get("mirrored"):
                q = stored[p["id"]]
                assert p["ref_c"] == q["ref_c"].conjugate()
                assert complex(*p["z"]) == complex(*q["z"]).conjugate()
    assert _inputs(run.select_round(workload, pool, known, 2)) == \
        _inputs(rounds[2])
    assert len({tuple(_inputs(r)) for r in rounds}) == 4


def test_cut_points_mirror_to_the_other_side():
    p = {"id": "x", "z": [10.0, 0.0], "s": [0.75, 0.0], "a": [0.3, 0.0],
         "side": "above", "ref_c": 1 + 2j}
    q = run.conjugate(p)
    assert q["side"] == "below" and q["z"] == [10.0, 0.0]
    assert q["ref_c"] == 1 - 2j


def test_real_negative_a_is_its_own_mirror():
    p = {"id": "x", "z": [0.3, 0.4], "s": [0.5, 0.0], "a": [-0.4, 0.0],
         "side": "above", "ref_c": 1 + 2j}
    assert run.conjugate(p) is p
