"""The census: 3,000 seeded draws of eval_auto past |z| = e, and 500 at
integer s.

    python tests/census.py [--save FILE] [--compare FILE] [--judge]

With the package importable (PYTHONPATH=src, or installed), it draws
the points and runs eval_auto at its default target on each.  The
3,000 come from random.Random(42), each taking, in this order:

* u in (1, 46) and theta in (-pi, pi), with z = e^u e^(i theta);
* Re s in (-200, 200), and Im s in (-30, 30) if random() < 0.5, else 0;
* v in (-3, 7) and r = random(), with a = e^v e^(i phi), phi in
  (-pi, pi), if r < 1/3; a = -e^v if r < 1/3 + 0.1; else a = e^v.

The 500 come after them from random.Random(43), each taking z as above,
then an integer s in [-30, 200], then v and r as above, with a as above
except a = max(1, round(e^v)) if 1/3 + 0.1 <= r < 1/3 + 0.2.

Each draw falls in one class: "met" (an answer without
target-tol-unmet), "unmet", or the name of the error it raised.  The
script prints the count of each class, one table per slice, split by the
sign of Re s and the kind of a, and the wall time of the evaluations.
--save writes each draw's class, value and estimate to FILE as JSON;
--compare reads such a file from an earlier run and lists, per slice,
the draws whose class moved and the count of answers whose value or
estimate moved.  --judge checks every answer at real a > 0 and
Re s < 0 against Lerch's transformation in mpmath (helpers.lerch_judge)
and prints, per slice and class, how many lie past their estimate plus
the judge's bar.  pytest does not collect this file.
"""

import argparse
import cmath
import json
import math
import random
import sys
import time
from collections import Counter

from helpers import lerch_judge
from lerchphi._types import LerchPoint
from lerchphi.engines import eval_auto

def _z(rng):
    return cmath.rect(math.exp(rng.uniform(1.0, 46.0)),
                      rng.uniform(-math.pi, math.pi))


def _a(rng, integers):
    """a and its kind; integer a from a tenth of the draws if integers."""
    size = math.exp(rng.uniform(-3.0, 7.0))
    r = rng.random()
    if r < 1.0 / 3.0:
        return cmath.rect(size, rng.uniform(-math.pi, math.pi)), "complex"
    if r < 1.0 / 3.0 + 0.1:
        return complex(-size, 0.0), "negative"
    if integers and r < 1.0 / 3.0 + 0.2:
        return complex(max(1, round(size)), 0.0), "integer"
    return complex(size, 0.0), "positive"


def draw(rng):
    """One census point as (z, s, a, kind of a)."""
    z = _z(rng)
    s_re = rng.uniform(-200.0, 200.0)
    s = complex(s_re, rng.uniform(-30.0, 30.0) if rng.random() < 0.5
                else 0.0)
    return (z, s) + _a(rng, False)


def draw_integer_s(rng):
    """One integer-s point as (z, s, a, kind of a)."""
    z = _z(rng)
    s = complex(rng.randint(-30, 200), 0.0)
    return (z, s) + _a(rng, True)


# (name, seed, draws, draw)
SLICES = (("census", 42, 3000, draw),
          ("integer s", 43, 500, draw_integer_s))


def run():
    """Each draw's (slice, z, s, a, kind, class, value, estimate), and
    the wall time of the evaluations."""
    points = []
    for name, seed, count, draw_one in SLICES:
        rng = random.Random(seed)
        points += [(name,) + draw_one(rng) for _ in range(count)]
    rows = []
    start = time.perf_counter()
    for name, z, s, a, kind in points:
        value = est = None
        try:
            rep = eval_auto(LerchPoint(z, s, a))
            cls = "unmet" if "target-tol-unmet" in rep.warnings else "met"
            value, est = rep.value, rep.abs_err_estimate
        except Exception as exc:  # typed refusals, and any untyped leak
            cls = type(exc).__name__
        rows.append((name, z, s, a, kind, cls, value, est))
    return rows, time.perf_counter() - start


def _table(rows):
    classes = sorted(Counter(row[5] for row in rows),
                     key=lambda c: (c != "met", c != "unmet", c))
    groups = [(sign, kind) for sign in ("Re s >= 0", "Re s < 0")
              for kind in ("positive", "integer", "negative", "complex")]
    counts = Counter(("Re s >= 0" if row[2].real >= 0.0 else "Re s < 0",
                      row[4], row[5]) for row in rows)
    widths = [max(len(c), 5) + 2 for c in classes]
    print(f"{'':<22}"
          + "".join(f"{c:>{w}}" for c, w in zip(classes, widths)))
    for sign, kind in groups:
        if any(counts[sign, kind, c] for c in classes):
            print(f"{sign + ', a ' + kind:<22}"
                  + "".join(f"{counts[sign, kind, c]:>{w}}"
                            for c, w in zip(classes, widths)))
    total = Counter(row[5] for row in rows)
    print(f"{'all':<22}"
          + "".join(f"{total[c]:>{w}}" for c, w in zip(classes, widths)))


def report(rows, seconds):
    for name, _, count, _ in SLICES:
        print(f"{name}: {count} draws")
        _table([row for row in rows if row[0] == name])
    print(f"{len(rows)} draws in {seconds:.1f} s")


def save(rows, path):
    records = [[row[5]] + ([row[6].real, row[6].imag, row[7]]
                           if row[6] is not None else [None] * 3)
               for row in rows]
    with open(path, "w") as out:
        json.dump(records, out)


def compare(rows, path):
    """Per slice, the draws whose class moved since the file at path, and
    the count of other answers whose value or estimate moved; a file with
    fewer draws (an earlier census) is compared as far as it goes."""
    with open(path) as source:
        before = json.load(source)
    first = 0
    for name, _, count, _ in SLICES:
        moved = values = estimates = 0
        worst = 0.0  # the largest relative move of a value
        for k in range(first, min(first + count, len(before))):
            _, z, s, a, _, cls, value, est = rows[k]
            old = before[k]
            if old[0] != cls:
                moved += 1
                print(f"draw {k}: {old[0]} -> {cls} at z = {z!r}, "
                      f"s = {s!r}, a = {a!r}"
                      + (f", value {value!r}, estimate {est!r}"
                         if value is not None else ""))
            elif value is not None:
                was = complex(old[1], old[2])
                if was != value:
                    values += 1
                    worst = max(worst, abs(value - was) / abs(was)
                                if was else math.inf)
                estimates += old[3] != est
        if first < len(before):
            print(f"{name}: {moved} draws moved class.  Of the others, "
                  f"{values} values moved (by at most {worst:.2g} "
                  f"relative) and {estimates} estimates")
        first += count


def judge(rows):
    """Per slice and class, the answers at real a > 0 and Re s < 0 that
    Lerch's transformation puts past their estimate plus its bar."""
    first = 0
    for name, _, count, _ in SLICES:
        judged, past, worst = Counter(), Counter(), Counter()
        for k in range(first, first + count):
            _, z, s, a, kind, cls, value, est = rows[k]
            if value is None or kind not in ("positive", "integer") \
                    or s.real >= 0.0:
                continue
            want, bar = lerch_judge(z, s, a)
            err = abs(value - want)
            judged[cls] += 1
            if err > est + bar:
                past[cls] += 1
                print(f"draw {k} ({cls}): {err:.3g} off Lerch's "
                      f"transformation, estimate {est:.3g}, bar {bar:.3g}")
            worst[cls] = max(worst[cls], err / (est + bar))
        print(f"{name}, judged at real a > 0 and Re s < 0: "
              + "; ".join(f"{cls} {judged[cls]}, {past[cls]} past their "
                          f"estimate (worst error {worst[cls]:.2g} of it)"
                          for cls in sorted(judged)))
        first += count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", help="write each draw's class here")
    parser.add_argument("--compare",
                        help="list the draws that moved since this file")
    parser.add_argument("--judge", action="store_true",
                        help="judge real a > 0, Re s < 0 by Lerch's formula")
    args = parser.parse_args(argv)
    rows, seconds = run()
    report(rows, seconds)
    if args.compare:
        compare(rows, args.compare)
    if args.judge:
        judge(rows)
    if args.save:
        save(rows, args.save)
    return 0


if __name__ == "__main__":
    sys.exit(main())
