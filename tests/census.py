"""The census: 3,000 seeded draws of eval_auto past |z| = e.

    python tests/census.py [--save FILE] [--compare FILE]

With the package importable (PYTHONPATH=src, or installed), it draws
the points from random.Random(42) and runs eval_auto at its default
target on each.  Each draw takes, in this order:

* u in (1, 46) and theta in (-pi, pi), with z = e^u e^(i theta);
* Re s in (-200, 200), and Im s in (-30, 30) if random() < 0.5, else 0;
* v in (-3, 7) and r = random(), with a = e^v e^(i phi), phi in
  (-pi, pi), if r < 1/3; a = -e^v if r < 1/3 + 0.1; else a = e^v.

Each draw falls in one class: "met" (an answer without
target-tol-unmet), "unmet", or the name of the error it raised.  The
script prints the count of each class, split by the sign of Re s and the
kind of a, and the wall time of the evaluations.  --save writes each
draw's class, value and estimate to FILE as JSON; --compare reads such a
file from an earlier run and lists the draws whose class moved, and the
count of answers whose value or estimate moved.  pytest does not collect
this file.
"""

import argparse
import cmath
import json
import math
import random
import sys
import time
from collections import Counter

from lerchphi._types import LerchPoint
from lerchphi.engines import eval_auto

DRAWS = 3000
SEED = 42


def draw(rng):
    """One census point as (z, s, a, kind of a)."""
    z = cmath.rect(math.exp(rng.uniform(1.0, 46.0)),
                   rng.uniform(-math.pi, math.pi))
    s_re = rng.uniform(-200.0, 200.0)
    s = complex(s_re, rng.uniform(-30.0, 30.0) if rng.random() < 0.5
                else 0.0)
    size = math.exp(rng.uniform(-3.0, 7.0))
    r = rng.random()
    if r < 1.0 / 3.0:
        a = cmath.rect(size, rng.uniform(-math.pi, math.pi))
        return z, s, a, "complex"
    if r < 1.0 / 3.0 + 0.1:
        return z, s, complex(-size, 0.0), "negative"
    return z, s, complex(size, 0.0), "positive"


def run():
    """Each draw's (z, s, a, kind, class, value, estimate), and the wall
    time of the evaluations."""
    rng = random.Random(SEED)
    points = [draw(rng) for _ in range(DRAWS)]
    rows = []
    start = time.perf_counter()
    for z, s, a, kind in points:
        value = est = None
        try:
            rep = eval_auto(LerchPoint(z, s, a))
            cls = "unmet" if "target-tol-unmet" in rep.warnings else "met"
            value, est = rep.value, rep.abs_err_estimate
        except Exception as exc:  # typed refusals, and any untyped leak
            cls = type(exc).__name__
        rows.append((z, s, a, kind, cls, value, est))
    return rows, time.perf_counter() - start


def report(rows, seconds):
    classes = sorted(Counter(row[4] for row in rows),
                     key=lambda c: (c != "met", c != "unmet", c))
    groups = [(sign, kind) for sign in ("Re s >= 0", "Re s < 0")
              for kind in ("positive", "negative", "complex")]
    counts = Counter(("Re s >= 0" if row[1].real >= 0.0 else "Re s < 0",
                      row[3], row[4]) for row in rows)
    widths = [max(len(c), 5) + 2 for c in classes]
    print(f"{'':<22}"
          + "".join(f"{c:>{w}}" for c, w in zip(classes, widths)))
    for sign, kind in groups:
        print(f"{sign + ', a ' + kind:<22}"
              + "".join(f"{counts[sign, kind, c]:>{w}}"
                        for c, w in zip(classes, widths)))
    total = Counter(row[4] for row in rows)
    print(f"{'all':<22}"
          + "".join(f"{total[c]:>{w}}" for c, w in zip(classes, widths)))
    print(f"{len(rows)} draws in {seconds:.1f} s")


def save(rows, path):
    records = [[row[4]] + ([row[5].real, row[5].imag, row[6]]
                           if row[5] is not None else [None] * 3)
               for row in rows]
    with open(path, "w") as out:
        json.dump(records, out)


def compare(rows, path):
    with open(path) as source:
        before = json.load(source)
    moved = values = estimates = 0
    worst = 0.0  # the largest relative move of a value
    for k, (row, old) in enumerate(zip(rows, before)):
        z, s, a, _, cls, value, est = row
        if old[0] != cls:
            moved += 1
            print(f"draw {k}: {old[0]} -> {cls} at z = {z!r}, s = {s!r}, "
                  f"a = {a!r}"
                  + (f", value {value!r}, estimate {est!r}"
                     if value is not None else ""))
        elif value is not None:
            was = complex(old[1], old[2])
            if was != value:
                values += 1
                worst = max(worst, abs(value - was) / abs(was))
            estimates += old[3] != est
    print(f"{moved} draws moved class.  Of the others, {values} values "
          f"moved (by at most {worst:.2g} relative) and {estimates} "
          "estimates")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", help="write each draw's class here")
    parser.add_argument("--compare",
                        help="list the draws that moved since this file")
    args = parser.parse_args(argv)
    rows, seconds = run()
    report(rows, seconds)
    if args.compare:
        compare(rows, args.compare)
    if args.save:
        save(rows, args.save)
    return 0


if __name__ == "__main__":
    sys.exit(main())
