"""Command-line front end.

Four subcommands: `eval` for one point with engine diagnostics,
`table1` for the four showcase rows checked against their frozen
digits, `sweep` for error-vs-truncation style diagnostics as CSV or
JSON lines, and `coeffs` for coefficient dumps.

Formats are part of the contract: complex flags are strict "re,im"
pairs, CSV is comma-separated with a header row and LF endings, JSON
floats carry 17 significant digits so they round-trip exactly, human
tables show 8.  Exit codes: 0 ok, 1 usage, 2 domain, 3 accuracy.

The oracle (``--engine oracle``, the table1 and sweep references) needs
mpmath, the package's ``oracle`` extra; without it those paths exit 2
with a one-line message, and every other path runs.
"""

import argparse
import csv
import json
import math
import re
import sys

from ._types import EngineReport, LerchPoint
from .coefficients import csc_coefficients, csc_coefficients_subtracted
from .engines import (_integer_tail_size, choose_optimal_M, eval_abel_plana,
                      eval_auto, eval_fl_expansion, eval_integer_s_large_z,
                      eval_main_theorem, eval_near_one, eval_series_direct,
                      eval_symmetric_igamma, residue_series)
from .errors import AccuracyError, ConditioningError, DomainError
from .factorial_series import eval_factorial, series_states
from .oracle import reference_value

_ENGINES = ("auto", "direct", "near-one", "abel-plana", "integer-s", "main",
            "symmetric", "fl", "factorial", "oracle")

# warnings that mean the requested accuracy was not certified, as
# opposed to disclosures about how a normal stop was decided
_ACCURACY_WARNINGS = frozenset(("target-tol-unmet", "max-terms-reached",
                                "n-cap-reached", "noise-floor-rollback",
                                "m-count-capped"))

# frozen digits for the four showcase rows at a = 0.3, s = 3/4, N = 5
# (independently validated by the oracle test suite); per row: the
# reference value, the combined approximation, the optimal logarithmic
# depth, and the scaled remainder |z|^(N+1) |Phi - approx|
_SHOWCASE = (
    (-5 + 0j, 1.3421782 + 0j, 1.3421692 + 0j, 9, 0.140),
    (-10 + 0j, 1.0889334 + 0j, 1.0889332 + 0j, 13, 0.158),
    (10j, 0.98125249 + 0.54864116j, 0.98125270 + 0.54864133j, 16, 0.269),
    (10 + 0.01j, 0.52526675 + 1.04285831j, 0.52526654 + 1.04285810j, 22,
     0.297),
)
_SHOWCASE_S = 0.75
_SHOWCASE_A = 0.3
_SHOWCASE_N = 5
_VALUE_TOL = 5e-8
_REMAINDER_TOL = 0.01

_SWEEP_FIELDS = ("param_name", "param_value", "engine", "value_re",
                 "value_im", "abs_err_vs_reference", "est_err", "n_terms",
                 "m_terms")
_TRACE_FIELDS = ("n", "abs_term", "partial_re", "partial_im")


class _Parser(argparse.ArgumentParser):
    """argparse maps its own failures to exit 2; we reserve that for
    domain errors and use 1 for usage problems.  The widened matcher
    lets values like -5,0 follow a flag without being mistaken for an
    option string (no option here looks like a negative number)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _complex_flag(text):
    re_s, comma, im_s = text.partition(",")
    if not comma:
        raise argparse.ArgumentTypeError(
            f"expected re,im (e.g. -5,0), got {text!r}")
    try:
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two decimal numbers in re,im, got {text!r}")


# ------------------------------------------------------------- formatting

def _f17(x):
    return format(x + 0.0, ".17g")


def _f8(x):
    return format(x + 0.0, ".8g")


def _fmt_complex(v):
    im = v.imag + 0.0
    sign = "+" if not (im < 0.0) else "-"
    return f"{_f8(v.real)} {sign} {_f8(abs(im))}i"


def _json_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _f17(v)
    if isinstance(v, complex):
        return json.dumps(f"{_f17(v.real)},{_f17(v.imag)}")
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"unserializable {type(v)}")


def _json_line(pairs):
    body = ", ".join(f"{json.dumps(k)}: {_json_value(v)}"
                     for k, v in pairs if v is not None)
    print("{" + body + "}")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return _f17(v)
    if isinstance(v, complex):
        return f"{_f17(v.real)},{_f17(v.imag)}"
    return v


def _emit_rows(fieldnames, rows, as_json):
    if as_json:
        for row in rows:
            _json_line([(k, row[k]) for k in fieldnames])
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_csv_cell(row[k]) for k in fieldnames])


# report labels -> the vocabulary the --engine flag uses
_ENGINE_LABELS = {"main_theorem": "main", "symmetric_igamma": "symmetric",
                  "fl_expansion": "fl", "near_one": "near-one",
                  "abel_plana": "abel-plana", "integer_s": "integer-s"}


def _engine_label(report):
    return _ENGINE_LABELS.get(report.engine, report.engine)


# ------------------------------------------------------------------- eval

def _oracle_report(p):
    r = reference_value(p)
    return EngineReport(r.value, r.err_bar, 0, 0, "oracle")


def _run_engine(p, name, tol, n):
    if name == "auto":
        return eval_auto(p, target_tol=tol)
    if name == "direct":
        return eval_series_direct(p, tol=tol)
    if name == "near-one":
        return eval_near_one(p, n_max=n if n is not None else 60)
    if name == "abel-plana":
        return eval_abel_plana(p)
    if name == "integer-s":
        s = p.s
        if s.imag != 0.0 or s.real != round(s.real):
            raise DomainError("--engine integer-s needs an integer s")
        S = int(round(s.real))
        n_tail = (n if n is not None
                  else _integer_tail_size(abs(p.z), S, p.a, tol))
        return eval_integer_s_large_z(p, S, n_tail)
    if name == "main":
        N = n if n is not None else max(math.ceil(p.a.real) + 2, 1)
        return eval_main_theorem(p, N)
    if name == "symmetric":
        return eval_symmetric_igamma(p, N_max=n if n is not None else 400,
                                     tol=tol)
    if name == "fl":
        return eval_fl_expansion(p, n_z_terms=n if n is not None else 5,
                                 n_log_terms=1)
    if name == "factorial":
        return eval_factorial(p, tol=tol,
                              max_terms=n if n is not None else 500)
    return _oracle_report(p)


def cmd_eval(args):
    p = LerchPoint(args.z, args.s, args.a, args.cut_side)
    rep = _run_engine(p, args.engine, args.tol, args.n)
    if args.json:
        _json_line([("value_re", rep.value.real),
                    ("value_im", rep.value.imag),
                    ("engine", _engine_label(rep)),
                    ("n_terms", rep.n_terms),
                    ("m_terms", rep.m_terms),
                    ("est_err", rep.abs_err_estimate),
                    ("warnings", list(rep.warnings))])
    else:
        print(f"value   = {_fmt_complex(rep.value)}")
        print(f"engine  = {_engine_label(rep)}")
        print(f"n_terms = {rep.n_terms}")
        print(f"m_terms = {rep.m_terms}")
        print(f"est_err = {_f8(rep.abs_err_estimate)}")
        print("warnings = " + (", ".join(rep.warnings)
                               if rep.warnings else "none"))
    if _ACCURACY_WARNINGS.intersection(rep.warnings):
        return 3
    return 0


# ----------------------------------------------------------------- table1

def _component_gap(got, want):
    return max(abs(got.real - want.real), abs(got.imag - want.imag))


def cmd_table1(args):
    failed = False
    for z, ref_want, approx_want, m_want, rem_want in _SHOWCASE:
        p = LerchPoint(z, _SHOWCASE_S, _SHOWCASE_A)
        try:
            ref = reference_value(p).value
            rep = eval_main_theorem(p, _SHOWCASE_N)
            pick = choose_optimal_M(p, _SHOWCASE_N)
        except (DomainError, ConditioningError, AccuracyError) as exc:
            failed = True
            if args.json:
                _json_line([("z", z), ("error", str(exc)), ("pass", False)])
            else:
                print(f"z = {_fmt_complex(z)}: FAILED ({exc})")
            continue
        scaled = abs(z) ** (_SHOWCASE_N + 1) * abs(ref - rep.value)
        checks = (_component_gap(ref, ref_want) <= _VALUE_TOL,
                  _component_gap(rep.value, approx_want) <= _VALUE_TOL,
                  pick == m_want,
                  abs(scaled - rem_want) <= _REMAINDER_TOL)
        ok = all(checks)
        failed = failed or not ok
        if args.json:
            _json_line([("z", z),
                        ("reference_re", ref.real),
                        ("reference_im", ref.imag),
                        ("combined_re", rep.value.real),
                        ("combined_im", rep.value.imag),
                        ("m_pick", pick),
                        ("scaled_remainder", scaled),
                        ("expected_reference", ref_want),
                        ("expected_combined", approx_want),
                        ("expected_m", m_want),
                        ("expected_remainder", rem_want),
                        ("pass", ok)])
            continue
        verdict = ["ok" if c else "FAIL" for c in checks]
        print(f"z = {_fmt_complex(z)}")
        print(f"  reference  = {_fmt_complex(ref):28s} expected "
              f"{_fmt_complex(ref_want):26s} {verdict[0]}")
        print(f"  combined   = {_fmt_complex(rep.value):28s} expected "
              f"{_fmt_complex(approx_want):26s} {verdict[1]}")
        print(f"  M pick     = {pick:<28d} expected {m_want:<26d} "
              f"{verdict[2]}")
        print(f"  scaled rem = {_f8(scaled):28s} expected "
              f"{rem_want:.3f} (+/- {_REMAINDER_TOL:g})         "
              f"{verdict[3]}")
    if not args.json:
        print("table1: " + ("FAIL" if failed else "PASS"))
    return 3 if failed else 0


# ------------------------------------------------------------------ sweep

def _sweep_point(args):
    if args.z is None:
        args.parser.error(f"--z is required for --mode {args.mode}")
    return LerchPoint(args.z, args.s, args.a, args.cut_side)


def _safe_reference(p):
    try:
        return reference_value(p).value
    except (DomainError, ConditioningError, AccuracyError):
        return None


def _record(param_name, param_value, rep, ref, value=None):
    v = rep.value if value is None else value
    return {"param_name": param_name, "param_value": param_value,
            "engine": _engine_label(rep), "value_re": v.real,
            "value_im": v.imag,
            "abs_err_vs_reference": None if ref is None else abs(v - ref),
            "est_err": rep.abs_err_estimate, "n_terms": rep.n_terms,
            "m_terms": rep.m_terms}


def _sweep_terms_vs_error(args):
    p = _sweep_point(args)
    ref = _safe_reference(p)
    depth = args.depth_max
    rows = []
    if args.engine == "main":
        for k in range(1, depth + 1):
            rows.append(_record("N", float(k), eval_main_theorem(p, k), ref))
    elif args.engine == "symmetric":
        for k in range(1, depth + 1):
            rep = eval_symmetric_igamma(p, N_max=k, tol=0.0)
            rows.append(_record("N_max", float(k), rep, ref))
    elif args.engine == "fl":
        n_z = args.n if args.n is not None else 5
        for k in range(1, depth + 1):
            rep = eval_fl_expansion(p, n_z_terms=n_z, n_log_terms=k)
            rows.append(_record("n_log", float(k), rep, ref))
    else:
        args.parser.error("--mode terms-vs-error supports "
                          "--engine main, symmetric or fl")
    return _SWEEP_FIELDS, rows


def _sweep_m_landscape(args):
    p = _sweep_point(args)
    ref = _safe_reference(p)
    N = args.n if args.n is not None else _SHOWCASE_N
    pick = choose_optimal_M(p, N)
    m_top = args.m_max if args.m_max is not None else 2 * pick + 4
    # completing the residue content beyond the N mirror pairs isolates
    # the logarithmic-series truncation, which otherwise floors under
    # the residue tail before the landscape bottoms out
    tail = residue_series(p, N)
    rows = []
    for m in list(range(1, m_top + 1)) + [pick]:
        rep = eval_main_theorem(p, N, m_override=m)
        name = "M" if len(rows) < m_top else "M_opt"
        rows.append(_record(name, float(m), rep, ref,
                            value=rep.value + tail))
    return _SWEEP_FIELDS, rows


def _sweep_z_scaling(args):
    N = args.n if args.n is not None else _SHOWCASE_N
    rows = []
    z = args.z_base
    for _ in range(args.count):
        p = LerchPoint(z, args.s, args.a, args.cut_side)
        ref = _safe_reference(p)
        rep = eval_main_theorem(p, N)
        rows.append(_record("z", z, rep, ref))
        scale = abs(z) ** (N + 1)
        scaled_err = (None if ref is None
                      else scale * abs(rep.value - ref))
        rows.append({"param_name": "scaled_remainder", "param_value": z,
                     "engine": _engine_label(rep),
                     "value_re": scaled_err, "value_im": 0.0,
                     "abs_err_vs_reference": None,
                     "est_err": scale * rep.abs_err_estimate,
                     "n_terms": rep.n_terms, "m_terms": rep.m_terms})
        z = z * args.factor
    return _SWEEP_FIELDS, rows


def _sweep_factorial_trace(args):
    p = _sweep_point(args)
    rows = []
    for st in series_states(p, args.count):
        rows.append({"n": st.n_terms - 1, "abs_term": st.last_term_mag,
                     "partial_re": st.partial.real,
                     "partial_im": st.partial.imag})
    return _TRACE_FIELDS, rows


_SWEEP_MODES = {"terms-vs-error": _sweep_terms_vs_error,
                "m-landscape": _sweep_m_landscape,
                "z-scaling": _sweep_z_scaling,
                "factorial-trace": _sweep_factorial_trace}


def cmd_sweep(args):
    fieldnames, rows = _SWEEP_MODES[args.mode](args)
    _emit_rows(fieldnames, rows, args.json)
    return 0


# ----------------------------------------------------------------- coeffs

def cmd_coeffs(args):
    count = args.n_max + 1
    if args.subtract is None:
        tables = [csc_coefficients(args.a, count)]
    else:
        tables = [csc_coefficients_subtracted(args.a, args.subtract, count),
                  csc_coefficients_subtracted(args.a, args.subtract, count,
                                              method="direct-sum")]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("n", "re", "im", "method"))
    for table in tables:
        for n, v in enumerate(table.values):
            writer.writerow((n, _f17(v.real), _f17(v.imag), table.method))
    return 0


# ------------------------------------------------------------------ wiring

def _add_point_flags(sub, required=True, defaults=False):
    sub.add_argument("--z", type=_complex_flag, metavar="RE,IM",
                     required=required and not defaults,
                     default=None, help="argument z as re,im")
    sub.add_argument("--s", type=_complex_flag, metavar="RE,IM",
                     required=required and not defaults,
                     default=complex(_SHOWCASE_S) if defaults else None,
                     help="exponent s as re,im")
    sub.add_argument("--a", type=_complex_flag, metavar="RE,IM",
                     required=required and not defaults,
                     default=complex(_SHOWCASE_A) if defaults else None,
                     help="shift a as re,im")
    sub.add_argument("--cut-side", choices=("above", "below"),
                     default="above",
                     help="branch side taken for z on [1, inf)")


def build_parser():
    parser = _Parser(prog="lerchphi",
                     description="Evaluate the Lerch transcendent "
                                 "Phi(z, s, a), with the emphasis on "
                                 "large |z|.")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one point")
    _add_point_flags(pe)
    pe.add_argument("--engine", choices=_ENGINES, default="auto")
    pe.add_argument("--tol", type=float, default=1e-10,
                    help="target absolute tolerance")
    pe.add_argument("--n", type=int, default=None,
                    help="depth knob: mirror pairs (main, symmetric), "
                         "expansion depth (near-one), tail length "
                         "(integer-s), power terms (fl), term cap "
                         "(factorial)")
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=cmd_eval)

    pt = sub.add_parser("table1", help="recompute the four showcase rows "
                                       "and check their frozen digits")
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(func=cmd_table1)

    ps = sub.add_parser("sweep", help="diagnostic sweeps as CSV/JSON lines")
    ps.add_argument("--mode", choices=tuple(_SWEEP_MODES), required=True)
    _add_point_flags(ps, defaults=True)
    ps.add_argument("--engine", choices=("main", "symmetric", "fl"),
                    default="main", help="series swept in terms-vs-error")
    ps.add_argument("--n", type=int, default=None,
                    help="mirror-pair count (m-landscape, z-scaling) or "
                         "power terms (terms-vs-error with --engine fl)")
    ps.add_argument("--depth-max", type=int, default=12,
                    help="largest depth in terms-vs-error")
    ps.add_argument("--m-max", type=int, default=None,
                    help="largest logarithmic depth in m-landscape")
    ps.add_argument("--z-base", type=_complex_flag, metavar="RE,IM",
                    default=-5 + 0j, help="ray start for z-scaling")
    ps.add_argument("--factor", type=float, default=2.0,
                    help="ray multiplier for z-scaling")
    ps.add_argument("--count", type=int, default=None,
                    help="points on the ray (z-scaling, default 4) or "
                         "trace length (factorial-trace, default 60)")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_sweep, parser=ps)

    pc = sub.add_parser("coeffs", help="dump reflection coefficients as CSV")
    pc.add_argument("--a", type=_complex_flag, metavar="RE,IM",
                    required=True)
    pc.add_argument("--n-max", type=int, required=True,
                    help="largest index, inclusive")
    pc.add_argument("--subtract", type=int, default=None, metavar="N",
                    help="pole-subtraction depth; emits both methods")
    pc.set_defaults(func=cmd_coeffs)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "count", None) is None and args.command == "sweep":
        args.count = 60 if args.mode == "factorial-trace" else 4
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"lerchphi: domain error: {exc}", file=sys.stderr)
        return 2
    except ConditioningError as exc:
        print(f"lerchphi: conditioning error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"lerchphi: accuracy error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"lerchphi: invalid request: {exc}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:
        if exc.name != "mpmath":
            raise
        print("lerchphi: the oracle needs mpmath, which is not installed "
              "(pip install lerchphi[oracle])", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
