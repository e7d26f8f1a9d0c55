"""Benchmark of lerchphi.engines.eval_auto: time and correct digits.

    python3 bench/run.py --workload {ring,large_z,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each round of a workload evaluates the
workload's stored pool (refs/<workload>.json), each point mirrored to
its complex conjugate or not as the seed decides, in fresh worker
processes (worker.py), so every round starts with cold caches, as a
user's session does.  Rounds repeat until --seconds have passed; a
round is never cut short, so every run attempts whole rounds of the
same evaluations.  Every returned value is checked against its stored
reference by the failure rule of rule.py.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  `correct` is false
when an evaluation fails that is not listed in known_failures.json,
the faults the program is known to have today.

--trace 1 alternates untraced and traced rounds (the traced ones with
the wrappers of layers.py) and reports the per-layer totals of one
round, plus the traced-to-untraced wall-time ratio.  Spans of the last
traced round go to .bench_build/traces/.

    python3 bench/run.py --workload W --survey

evaluates the workload's whole pool, stored and mirrored, and rewrites
its entry in known_failures.json; run it after regenerating a pool.
"""

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import rule  # noqa: E402
from pools import WORKLOADS  # noqa: E402

# ring points cost about half a second each, so a ring round is spread
# over several cold processes of this many points; the other workloads
# run a whole round in one process (the sweep's coefficient reuse
# depends on that)
RING_CHUNK = 10
WORKER_TIMEOUT_S = 170
KNOWN_FAILURES = os.path.join(BENCH, "known_failures.json")

END_TO_END_UNITS = {"eval_p50_ms": "ms", "eval_p90_ms": "ms",
                    "evals_per_s": "1/s", "digits_min": "digits",
                    "digits_p50": "digits", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def load_pool(workload):
    with open(os.path.join(BENCH, "refs", f"{workload}.json")) as fh:
        pool = json.load(fh)["points"]
    for p in pool:
        p["ref_c"] = complex(float(p["ref"][0]), float(p["ref"][1]))
    return pool


def load_known(workload):
    with open(KNOWN_FAILURES) as fh:
        return json.load(fh).get(workload, {})


def _conj(pair):
    # a zero imaginary part stays +0.0: -0.0 would move real negative z
    # and a across the branch cut of cmath.log
    return [pair[0], -pair[1] if pair[1] else 0.0]


def conjugate(p):
    """The mirror point: Phi(conj z, conj s, conj a) = conj Phi(z, s, a).
    On the cut the mirror of the limit from above is the limit from
    below.  For real a < 0 the principal power (a + n)^(-s) does not
    commute with conjugation, so such a point is its own mirror."""
    if p["a"][1] == 0.0 and p["a"][0] < 0.0:
        return p
    q = dict(p, z=_conj(p["z"]), s=_conj(p["s"]), a=_conj(p["a"]),
             ref_c=p["ref_c"].conjugate(), mirrored=True)
    if p["z"][1] == 0.0 and p["z"][0] >= 1.0:
        q["side"] = "below" if p["side"] == "above" else "above"
    return q


def select_round(workload, pool, known, seed):
    """The round for a seed: every pool point, each one replaced by its
    mirror point when the seed's coin says so.  Mirror points cost the
    same work, so the round's mix does not depend on the seed.  Known
    failures keep their stored orientation, so the same evaluations
    fail in every round.  The sweep keeps pool order (rays walked
    outward); the others are shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    chosen = [conjugate(p) if rng.random() < 0.5 and p["id"] not in known
              else p for p in pool]
    if workload != "sweep":
        rng.shuffle(chosen)
    return chosen


def chunks(workload, points):
    if workload != "ring":
        return [points]
    return [points[i:i + RING_CHUNK]
            for i in range(0, len(points), RING_CHUNK)]


def run_worker(points, trace, spans_out=None):
    job = {"points": [{k: p[k] for k in ("z", "s", "a", "side")}
                      for p in points],
           "trace": trace, "spans_out": spans_out}
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py")],
                          input=json.dumps(job), capture_output=True,
                          text=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def run_round(workload, points, trace, spans_dir=None):
    """Evaluate one round; returns (records, worker outputs)."""
    records, outs = [], []
    for k, part in enumerate(chunks(workload, points)):
        spans_out = None
        if spans_dir:
            spans_out = os.path.join(spans_dir, f"chunk{k:02d}.json")
        out = run_worker(part, trace, spans_out)
        outs.append(out)
        for p, (re, im, est, engine, error, ns) in zip(part, out["results"]):
            value = None if error else complex(re, im)
            records.append({"point": p, "value": value, "est": est,
                            "engine": engine, "error": error, "ns": ns,
                            "failed": rule.failed(value, est, p["ref_c"],
                                                  p["ref_err"])})
    return records, outs


def end_to_end(rounds):
    """rounds: (records, worker outputs) per untraced round.

    Other work on the host slows this machine by up to half, in phases
    of a second to a minute, so each point's time is its fastest cold
    call over the run's rounds (every round is a fresh process); the
    percentiles and the rate are taken over those per-point times."""
    best, ok = {}, {}
    for records, _ in rounds:
        for r in records:
            key = r["point"]["id"]
            best[key] = min(best.get(key, r["ns"]), r["ns"])
            ok[key] = not r["failed"]
    ok_ms = [best[k] / 1e6 for k in best if ok[k]]
    outs = [o for _, round_outs in rounds for o in round_outs]
    digits = [rule.digits(r["value"], r["point"]["ref_c"],
                          r["point"]["ref_err"])
              for records, _ in rounds for r in records
              if r["value"] is not None]
    values = {
        "eval_p50_ms": statistics.median(ok_ms),
        "eval_p90_ms": statistics.quantiles(ok_ms, n=10)[8],
        "evals_per_s": len(ok_ms) / (sum(best.values()) / 1e9),
        "digits_min": min(digits),
        "digits_p50": statistics.median(digits),
        "setup_s": statistics.median(o["setup_s"] for o in outs),
        "peak_rss_mb": statistics.median(o["peak_rss_kb"] for o in outs) / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer(traced, untraced):
    """traced / untraced: lists of (records, outs) per round."""
    rounds = []
    for records, outs in traced:
        totals = {}
        for o in outs:
            for k, v in o["layers"].items():
                totals[k] = totals.get(k, 0) + v
        kept = sum(r["engine"] == "main_theorem" for r in records)
        tries = totals["engines.eval_main_theorem.calls"]
        totals["engines.main_theorem.accept_ratio"] = (kept / tries
                                                        if tries else 0.0)
        rounds.append(totals)
    metrics = {}
    for k in rounds[0]:
        vals = [r[k] for r in rounds]
        unit = ("ms" if k.endswith("_ms") else
                "ratio" if k.endswith("_ratio") else "count")
        metrics[k] = {"value": statistics.median(vals), "unit": unit}

    def wall(run):
        return sum(r["ns"] for r in run[0]) / 1e9
    ratio = (statistics.median(wall(r) for r in traced)
             / statistics.median(wall(r) for r in untraced))
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


def verdict(records, known):
    """(correct, attempted, failed, unexpected failures)."""
    bad = [r for r in records if r["failed"]]
    unexpected = sorted({r["point"]["id"] for r in bad
                         if r["point"]["id"] not in known})
    return not unexpected, len(records), len(bad), unexpected


def survey(workload):
    """Evaluate the whole pool, stored and mirrored, and record the points
    that fail today.  A point that fails in one orientation only would
    make the failure count depend on the seed; such points are listed
    with both orientations' outcomes so they can be looked into."""
    pool = load_pool(workload)
    found = {}
    for records in (run_round(workload, pool, trace=False)[0],
                    run_round(workload, [conjugate(p) for p in pool],
                              trace=False)[0]):
        for r in records:
            if r["failed"]:
                p = r["point"]
                what = r["error"] or (
                    f"{r['engine']} off by "
                    f"{abs(r['value'] - p['ref_c']):.2e}, "
                    f"estimate {r['est']:.2e}")
                found.setdefault(p["id"], []).append(
                    ("mirrored: " if p.get("mirrored") else "") + what)
    one_sided = sorted(i for i, v in found.items() if len(v) == 1)
    with open(KNOWN_FAILURES) as fh:
        table = json.load(fh)
    table[workload] = {i: v[0] for i, v in sorted(found.items())}
    with open(KNOWN_FAILURES, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {len(found)} of {len(pool)} pool points fail; "
          f"in one orientation only: {one_sided or 'none'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--survey", action="store_true")
    args = ap.parse_args(argv)
    # a termination request raises SystemExit, and subprocess.run kills
    # and reaps the running worker on its way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "lerchphi",
                                       "__init__.py")):
        sys.exit(f"run.py: no lerchphi sources under {ROOT}/src")
    if args.survey:
        survey(args.workload)
        return

    known = load_known(args.workload)
    points = select_round(args.workload, load_pool(args.workload), known,
                          args.seed)
    spans_dir = None
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "traces",
                                 f"{args.workload}-seed{args.seed}")
        os.makedirs(spans_dir, exist_ok=True)

    start = time.monotonic()
    untraced, traced = [], []
    while not untraced or time.monotonic() - start < args.seconds:
        untraced.append(run_round(args.workload, points, False))
        if args.trace:
            traced.append(run_round(args.workload, points, True, spans_dir))
    every = untraced + traced
    records = [r for recs, _ in every for r in recs]
    correct, attempted, failed, unexpected = verdict(records, known)

    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(untraced)
    print(f"{args.workload} seed {args.seed}: {len(every)} rounds of "
          f"{len(points)} points, {attempted} attempted, {failed} failed")
    if unexpected:
        print("failures not in known_failures.json: "
              + ", ".join(unexpected))
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
