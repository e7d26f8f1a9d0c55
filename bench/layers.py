"""Per-layer tracing, installed from outside the package in traced runs only.

The package imports its functions by name (engines does
``from .special_kernel import hurwitz_zeta``), so each traced function is
replaced at every module binding that holds it, which is every path
through which the package calls it.  Each call records a span
(id, name, start, end, parent id, request id) in memory; a request is
one eval_auto call.  Self time is a span's duration minus the durations
of its child spans.  Nothing here runs in timed (untraced) rounds.
"""

import json
import sys
import time

# (module, function) pairs; the metric prefix drops the leading
# underscore of _quadrature because metric names start with a letter
TRACED = (
    ("engines", "eval_auto"),
    ("engines", "eval_main_theorem"),
    ("engines", "eval_symmetric_igamma"),
    ("engines", "eval_near_one"),
    ("engines", "eval_series_direct"),
    ("engines", "eval_integer_s_large_z"),
    ("special_kernel", "hurwitz_zeta"),
    ("special_kernel", "upper_incomplete_gamma"),
    ("special_kernel", "gamma_star"),
    ("_quadrature", "tanh_sinh"),
    ("coefficients", "csc_coefficients_subtracted"),
    ("oracle", "reference_value"),
)
# engines whose EngineReport.n_terms is summed into <name>.terms
_TERM_COUNTED = ("eval_symmetric_igamma", "eval_near_one",
                 "eval_series_direct", "eval_integer_s_large_z")


def metric_prefix(module, func):
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    def __init__(self):
        self.names = [metric_prefix(m, f) for m, f in TRACED]
        self.spans = []
        self.calls = [0] * len(TRACED)
        self.self_ns = [0] * len(TRACED)
        self.terms = [0] * len(TRACED)
        self.integrand_evals = 0
        self.request = -1
        self._stack = []  # [span id, child ns] of the open spans
        self._next_id = 0
        self._cache = None
        self._cache_start = None

    def _wrap(self, idx, fn):
        counts_terms = TRACED[idx][1] in _TERM_COUNTED
        counts_integrand = TRACED[idx][1] == "tanh_sinh"
        is_root = TRACED[idx][1] == "eval_auto"
        tracer = self

        def traced(*args, **kwargs):
            if is_root:
                tracer.request += 1
            if counts_integrand:
                f = args[0]

                def counted(x):
                    tracer.integrand_evals += 1
                    return f(x)
                args = (counted,) + args[1:]
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [sid, 0]
            tracer._stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tracer._stack.pop()
                dur = t1 - t0
                tracer.calls[idx] += 1
                tracer.self_ns[idx] += dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.spans.append((sid, idx, t0, t1, parent,
                                     tracer.request))
            if counts_terms:
                tracer.terms[idx] += out.n_terms
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every binding of each traced function in the loaded
        lerchphi modules; returns the number of bindings replaced."""
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "lerchphi" or name.startswith("lerchphi.")}
        replaced = 0
        for idx, (module, func) in enumerate(TRACED):
            original = getattr(pkg[f"lerchphi.{module}"], func)
            wrapper = self._wrap(idx, original)
            for mod in pkg.values():
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
                        replaced += 1
        self._cache = pkg["lerchphi.coefficients"]._subtracted_values
        self._cache_start = self._cache.cache_info()
        return replaced

    def summary(self):
        """Per-layer totals for the work traced so far."""
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_ms"] = self.self_ns[idx] / 1e6
            if TRACED[idx][1] in _TERM_COUNTED:
                out[f"{name}.terms"] = self.terms[idx]
        out["quadrature.tanh_sinh.integrand_evals"] = self.integrand_evals
        info = self._cache.cache_info()
        prefix = "coefficients.csc_coefficients_subtracted"
        out[f"{prefix}.cache_hits"] = info.hits - self._cache_start.hits
        out[f"{prefix}.cache_misses"] = (info.misses
                                         - self._cache_start.misses)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["id", "name", "start_ns", "end_ns",
                                  "parent", "request"],
                       "spans": self.spans}, fh)
