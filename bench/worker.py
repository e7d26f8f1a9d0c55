"""One timed process: import lerchphi cold and evaluate a batch of points.

Reads a job from stdin, a JSON object {"points": [...], "trace": bool,
"spans_out": path or null}, and writes one JSON object to stdout:
set-up seconds (importing the package from ./src and building the
LerchPoint inputs), its peak resident memory, and per point either
[re, im, abs_err_estimate, engine, null, ns] or
[null, null, null, null, "ExcType: message", ns].

The process imports nothing heavy of its own (no mpmath, numpy or
scipy), so set-up time and memory are what the package costs.  In a
traced job the wrappers of layers.py are installed after set-up.
"""

import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def peak_rss_kb():
    """This process's own peak resident memory (VmHWM).  getrusage's
    ru_maxrss is no use here: Linux carries the parent's peak across
    exec into it, so it would report the orchestrator's memory."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main():
    job = json.load(sys.stdin)
    if not os.path.isfile(os.path.join(SRC, "lerchphi", "__init__.py")):
        sys.exit(f"worker: no lerchphi package under {SRC}")
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    from lerchphi import engines
    from lerchphi._types import LerchPoint
    points = [LerchPoint(complex(*p["z"]), complex(*p["s"]),
                         complex(*p["a"]), p["side"])
              for p in job["points"]]
    setup_s = time.perf_counter() - t0

    if not engines.__file__.startswith(SRC + os.sep):
        sys.exit(f"worker: lerchphi came from {engines.__file__}, "
                 f"not {SRC}")
    tracer = None
    if job["trace"]:
        sys.path.insert(0, BENCH)
        import layers
        tracer = layers.Tracer()
        tracer.install()

    eval_auto = engines.eval_auto
    clock = time.perf_counter_ns
    results = []
    for p in points:
        t = clock()
        try:
            rep = eval_auto(p)
        except Exception as exc:  # a raise is a failed evaluation, not a crash
            ns = clock() - t
            results.append([None, None, None, None,
                            f"{type(exc).__name__}: {exc}", ns])
            continue
        ns = clock() - t
        v = rep.value
        results.append([v.real, v.imag, rep.abs_err_estimate, rep.engine,
                        None, ns])

    out = {"setup_s": setup_s,
           "peak_rss_kb": peak_rss_kb(),
           "results": results}
    if tracer is not None:
        out["layers"] = tracer.summary()
        if job.get("spans_out"):
            tracer.write_spans(job["spans_out"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
