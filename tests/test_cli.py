"""End-to-end tests for the command-line interface.

Exit codes and output formats are contracts, so several tests pin
stdout literally (golden lines) and the rest parse the CSV/JSON back
and check it against in-process evaluations.
"""

import contextlib
import csv
import io
import json
import subprocess
import sys

import mpmath as mp
import pytest

from lerchphi._types import LerchPoint
from lerchphi.cli import main
from lerchphi.engines import eval_main_theorem
from lerchphi.oracle import reference_value

GOLDEN_EVAL_ARGS = ["eval", "--z", "-5,0", "--s", "0.75,0", "--a", "0.3,0",
                    "--engine", "main", "--n", "5"]

GOLDEN_EVAL_OUTPUT = """\
value   = 1.3421692 + 0i
engine  = main
n_terms = 5
m_terms = 9
est_err = 0.00016192654
warnings = none
"""


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


# ------------------------------------------------------------------- eval

def test_eval_golden_output():
    code, out, err = run_cli(GOLDEN_EVAL_ARGS)
    assert code == 0
    assert err == ""
    assert out == GOLDEN_EVAL_OUTPUT


def test_eval_json_round_trips_the_report():
    code, out, _ = run_cli(GOLDEN_EVAL_ARGS + ["--json"])
    assert code == 0
    (rec,) = json_lines(out)
    rep = eval_main_theorem(LerchPoint(-5.0, 0.75, 0.3), 5)
    assert rec["value_re"] == rep.value.real
    assert rec["value_im"] == rep.value.imag
    assert rec["est_err"] == rep.abs_err_estimate
    assert rec["engine"] == "main"
    assert rec["n_terms"] == 5 and rec["m_terms"] == 9
    assert rec["warnings"] == []


def test_eval_at_origin():
    code, out, _ = run_cli(["eval", "--z", "0,0", "--s", "0.75,0",
                            "--a", "0.3,0", "--json"])
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["engine"] == "direct"
    assert rec["value_re"] == pytest.approx(0.3 ** -0.75, rel=1e-14)
    assert rec["value_im"] == 0


def test_eval_auto_routes_integer_s_and_matches_oracle():
    code, out, _ = run_cli(["eval", "--z", "-10,0", "--s", "2,0",
                            "--a", "0.3,0", "--json"])
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["engine"] == "integer-s"
    ref = reference_value(LerchPoint(-10.0, 2.0, 0.3)).value
    got = complex(rec["value_re"], rec["value_im"])
    assert abs(got - ref) <= 1e-9


def test_eval_integer_s_engine_sums_to_tol():
    code, out, _ = run_cli(["eval", "--z", "-10,0", "--s", "2,0",
                            "--a", "0.3,0", "--engine", "integer-s",
                            "--tol", "1e-14", "--json"])
    assert code == 0
    (rec,) = json_lines(out)
    ref = reference_value(LerchPoint(-10.0, 2.0, 0.3)).value
    assert abs(complex(rec["value_re"], rec["value_im"]) - ref) <= 1e-13
    # the closed form takes only an exact integer s: its value is Phi at
    # the integer, and its estimate would leave out an offset from it
    code, near, err = run_cli(["eval", "--z", "-10,0",
                               "--s", "2.0000000000001,0", "--a", "0.3,0",
                               "--engine", "integer-s", "--tol", "1e-14",
                               "--json"])
    assert code == 2 and not near
    assert "needs integer s" in err


def test_eval_cut_side_flag():
    base = ["eval", "--z", "10,0", "--s", "0.75,0", "--a", "0.3,0",
            "--engine", "factorial", "--tol", "1e-8", "--json"]
    _, out_a, _ = run_cli(base)
    _, out_b, _ = run_cli(base + ["--cut-side", "below"])
    (above,), (below,) = json_lines(out_a), json_lines(out_b)
    va = complex(above["value_re"], above["value_im"])
    vb = complex(below["value_re"], below["value_im"])
    assert va.imag > 0.5 and vb.imag < -0.5
    assert abs(vb - va.conjugate()) <= 2e-7


def test_usage_errors_exit_1():
    bad = (["eval", "--s", "0.75,0", "--a", "0.3,0"],          # missing --z
           ["eval", "--z", "5", "--s", "0.75,0", "--a", "0.3,0"],
           ["eval", "--z", "x,y", "--s", "0.75,0", "--a", "0.3,0"],
           ["eval", "--z", "5,0", "--s", "0.75,0", "--a", "0.3,0",
            "--engine", "bogus"],
           ["sweep", "--mode", "bogus"],
           ["sweep", "--mode", "m-landscape"],                 # missing --z
           ["bogus-command"],
           [],
           ["eval", "--z", "-5,0", "--s", "0.75,0", "--a", "0.3,0",
            "--engine", "factorial", "--tol", "inf"])
    for argv in bad:
        code, _, err = run_cli(argv)
        assert code == 1, argv
        assert err != ""


def test_oracle_paths_without_mpmath_exit_2():
    # with mpmath unimportable the oracle paths exit 2 with one line on
    # stderr, and a band point still evaluates
    script = """
import sys
sys.modules["mpmath"] = None
from lerchphi.cli import main
point = ["--z", "1.5,0.4", "--s", "3,0", "--a", "0.7,0"]
oracle = ["--engine", "oracle"]
print([main(["eval"] + point), main(["eval"] + point + oracle),
       main(["table1"])])
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 2, 2]"
    lines = out.stderr.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("lerchphi: ") and "mpmath" in line
               for line in lines)


def test_count_cap_is_a_usage_error():
    code, _, err = run_cli(["coeffs", "--a", "0.3,0", "--n-max", "5000"])
    assert code == 1
    assert "invalid request" in err


def test_domain_errors_exit_2():
    bad = (["eval", "--z", "0.5,0", "--s", "0.75,0", "--a", "0.3,0",
            "--engine", "factorial"],
           ["eval", "--z", "-10,0", "--s", "0.75,0", "--a", "0.3,0",
            "--engine", "integer-s"],
           ["coeffs", "--a", "2,0", "--n-max", "2"],
           # z^31 of the Re a <= 0 shift is past the double range, and
           # Phi with it: a conditioning error, not a traceback
           ["eval", "--z", "-1e20,0", "--s", "0.75,0", "--a", "-30.3,0"],
           # the comparison expansion's terms pass the double range from
           # n_log = 161: a conditioning error, not a usage error
           ["sweep", "--mode", "terms-vs-error", "--z", "-10,0",
            "--engine", "fl", "--depth-max", "199"],
           # a^(-s) past the double range in the band, with and
           # without the Re a <= 0 shift
           ["eval", "--z", "1.5,0.5", "--s", "-600.5,0", "--a", "3.3,0"],
           ["eval", "--z", "1.5,0.5", "--s", "-600.5,0", "--a", "-3.3,0"],
           # the m-landscape's residue series at s = -500 and the factorial
           # trace's front factor at s = 397 past the double range: a
           # conditioning error, not a traceback
           ["sweep", "--mode", "m-landscape", "--z", "-10,0", "--s",
            "-500,0", "--a", "0.3,0"],
           ["sweep", "--mode", "factorial-trace", "--z",
            "1.1995803971459893,2.9844791483632873", "--s", "397,0",
            "--a", "249.9267603230403,0", "--count", "20"],
           # the coefficient recurrence's b_1 past the double range next to
           # a = 0: a conditioning error, not rows of nan or a
           # ZeroDivisionError in the direct-sum table
           ["coeffs", "--a", "1e-200,0", "--n-max", "3"],
           ["coeffs", "--a", "1e-160,0", "--n-max", "1"],
           ["coeffs", "--a", "1e-200,0", "--n-max", "3", "--subtract", "1"])
    for argv in bad:
        code, _, err = run_cli(argv)
        assert code == 2, argv
        assert err != ""


def test_gamma_term_past_the_double_range_answers():
    # e^(-aL) (-L)^(s-1) is about e^713 and Gamma(1-s, -aL) about e^-678,
    # but the kernel returns the latter as e^(x-w) m, so the term is one
    # exponential of a value near e^25; against mpmath at 40 and 80
    # digits, 4287079633902.7706 + 2291566152461.2559i
    code, out, _ = run_cli(["eval", "--z", "-7.39e19,0", "--s",
                            "195.19,3.28", "--a", "0.861,0", "--json"])
    assert code == 0
    (rec,) = json_lines(out)
    got = complex(rec["value_re"], rec["value_im"])
    want = 4287079633902.7706 + 2291566152461.2559j
    assert abs(got - want) <= rec["est_err"]
    assert abs(got - want) <= 1e-13 * abs(want)


def test_eval_engine_flags_against_the_oracle():
    # each engine --engine names answers within its own estimate of the
    # oracle's value, the comparison expansion too, at its floor
    for z, engine in (("0.5,0", "direct"), ("-5,0", "abel-plana"),
                      ("-5,0", "fl"), ("-5,0", "oracle")):
        code, out, _ = run_cli(["eval", "--z", z, "--s", "0.75,0", "--a",
                                "0.3,0", "--engine", engine, "--json"])
        assert code == 0, engine
        (rec,) = json_lines(out)
        assert rec["engine"] == engine
        ref = reference_value(LerchPoint(float(z.split(",")[0]), 0.75, 0.3))
        got = complex(rec["value_re"], rec["value_im"])
        assert abs(got - ref.value) <= rec["est_err"] + ref.err_bar, engine


def test_eval_band_past_re_s_97():
    # the Abel-Plana integral reaches t_max = 226.55, past where
    # e^(2 pi t) leaves the double range; the value is near 0.3^-200.5
    code, out, _ = run_cli(["eval", "--z", "1.5,0.5", "--s", "200.5,0",
                            "--a", "0.3,0", "--json"])
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["engine"] == "abel-plana"
    got = complex(rec["value_re"], rec["value_im"])
    want = complex(mp.lerchphi(1.5 + 0.5j, 200.5, 0.3))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_eval_large_z_at_s_200_5():
    # past e the Abel-Plana engine answers where the theorem's Gamma(s)
    # leaves the double range; the value is near 0.3^-200.5 and real
    code, out, _ = run_cli(["eval", "--z", "-10,0", "--s", "200.5,0",
                            "--a", "0.3,0", "--json"])
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["engine"] == "abel-plana"
    assert rec["value_im"] == 0.0
    want = complex(mp.lerchphi(-10, 200.5, 0.3))
    assert abs(rec["value_re"] - want) <= 1e-14 * abs(want)
    assert abs(rec["value_re"] - want) <= rec["est_err"]


def test_accuracy_warnings_exit_3():
    code, out, _ = run_cli(["eval", "--z", "-7,0", "--s", "0.75,0",
                            "--a", "0.3,0", "--engine", "symmetric",
                            "--n", "5", "--tol", "1e-14"])
    assert code == 3
    assert "n-cap-reached" in out     # value still printed, warning shown


def test_auto_abel_plana_past_the_target_exits_3():
    # the Abel-Plana engine answers, but its estimate misses the target
    for s, a in (("-150.5,0", "0.3,0"), ("0.75,-90", "2.3,0")):
        code, out, _ = run_cli(["eval", "--z", "-10,0", "--s", s, "--a", a])
        assert code == 3, s
        assert "engine  = abel-plana" in out
        assert "warnings = target-tol-unmet" in out


def test_eval_near_one_at_z_equal_one():
    # at integer s too, where the expansion's later terms would hit
    # zeta's pole at s = 1
    for s in ("2.5,0", "2,0"):
        code, out, _ = run_cli(["eval", "--z", "1,0", "--s", s, "--a",
                                "0.5,0", "--engine", "near-one", "--json"])
        assert code == 0, s
        (rec,) = json_lines(out)
        got = complex(rec["value_re"], rec["value_im"])
        want = complex(mp.zeta(float(s.split(",")[0]), 0.5))
        assert abs(got - want) <= 1e-13 * abs(got), s


# ----------------------------------------------------------------- table1

def test_table1_passes():
    code, out, _ = run_cli(["table1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "table1: PASS"
    assert sum(line.endswith(" ok") for line in lines) == 16


def test_table1_json():
    code, out, _ = run_cli(["table1", "--json"])
    assert code == 0
    rows = json_lines(out)
    assert [r["m_pick"] for r in rows] == [9, 13, 16, 22]
    assert all(r["pass"] is True for r in rows)
    for r, want in zip(rows, (0.140, 0.158, 0.269, 0.297)):
        assert abs(r["scaled_remainder"] - want) <= 0.01


# ------------------------------------------------------------------ sweep

def test_sweep_m_landscape_bottoms_near_the_pick():
    code, out, _ = run_cli(["sweep", "--mode", "m-landscape",
                            "--z", "-10,0", "--json"])
    assert code == 0
    rows = json_lines(out)
    marker = rows[-1]
    assert marker["param_name"] == "M_opt"
    assert marker["param_value"] == 13
    landscape = [r for r in rows if r["param_name"] == "M"]
    best = min(landscape, key=lambda r: r["abs_err_vs_reference"])
    assert abs(best["param_value"] - 13) <= 2


def test_sweep_z_scaling_stays_bounded():
    # the ray starts at --z, or at -5,0 without it
    for start, ray in (([], ["-5,0", "-10,0", "-20,0", "-40,0"]),
                       (["--z", "-8,0"], ["-8,0", "-16,0", "-32,0", "-64,0"])):
        code, out, _ = run_cli(["sweep", "--mode", "z-scaling", "--json"]
                               + start)
        assert code == 0
        rows = json_lines(out)
        scaled = [r for r in rows if r["param_name"] == "scaled_remainder"]
        assert [r["param_value"] for r in scaled] == ray
        assert all(0.0 < r["value_re"] < 1.0 for r in scaled)
        assert all("abs_err_vs_reference" not in r for r in scaled)


def test_sweep_z_scaling_csv_format():
    code, out, _ = run_cli(["sweep", "--mode", "z-scaling"])
    assert code == 0
    assert "\r" not in out
    rows = csv_rows(out)
    assert rows[0] == list(("param_name", "param_value", "engine",
                            "value_re", "value_im", "abs_err_vs_reference",
                            "est_err", "n_terms", "m_terms"))
    assert len(rows) == 9
    assert rows[1][1] == "-5,0"          # complex cell, quoted in the raw text
    assert rows[2][5] == ""              # no reference error on scaled rows
    assert '"-5,0"' in out


def test_sweep_factorial_trace():
    code, out, _ = run_cli(["sweep", "--mode", "factorial-trace",
                            "--z", "-5,0"])
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["n", "abs_term", "partial_re", "partial_im"]
    assert len(rows) == 61
    assert [int(r[0]) for r in rows[1:6]] == [0, 1, 2, 3, 4]
    mags = [float(r[1]) for r in rows[1:]]
    blocks = [max(mags[i:i + 10]) for i in range(0, 60, 10)]
    assert all(b2 < b1 for b1, b2 in zip(blocks, blocks[1:]))


def test_sweep_terms_vs_error_main_converges():
    # the symmetric expansion's error falls once its six averaging
    # levels fill, past N_max = 6
    for engine, depth in (("main", 6), ("symmetric", 8)):
        code, out, _ = run_cli(["sweep", "--mode", "terms-vs-error",
                                "--z", "-5,0", "--engine", engine,
                                "--depth-max", str(depth), "--json"])
        assert code == 0
        errs = [r["abs_err_vs_reference"] for r in json_lines(out)]
        assert len(errs) == depth
        assert errs[-1] < 1e-2 * errs[0]


def test_sweep_terms_vs_error_fl_diverges():
    code, out, _ = run_cli(["sweep", "--mode", "terms-vs-error",
                            "--z", "-5,0", "--engine", "fl",
                            "--depth-max", "4", "--json"])
    assert code == 0
    rows = json_lines(out)
    assert rows[0]["abs_err_vs_reference"] < 1.0
    assert rows[-1]["abs_err_vs_reference"] > 2.0 * \
        rows[0]["abs_err_vs_reference"]


def test_sweep_prints_the_rows_before_a_depth_raises():
    # the comparison expansion's terms pass the double range at
    # n_log = 161: the rows 1..160 are printed, then the conditioning
    # error sets the exit code
    code, out, err = run_cli(["sweep", "--mode", "terms-vs-error",
                              "--z", "-10,0", "--s", "0.75,0",
                              "--a", "0.3,0", "--engine", "fl",
                              "--depth-max", "199"])
    assert code == 2
    rows = csv_rows(out)
    assert rows[0][:2] == ["param_name", "param_value"]
    assert [r[:2] for r in rows[1:]] == [["n_log", str(k)]
                                         for k in range(1, 161)]
    assert err.startswith("lerchphi: conditioning error")


# ----------------------------------------------------------------- coeffs

def test_coeffs_golden_rows():
    code, out, _ = run_cli(["coeffs", "--a", "0.5,0", "--n-max", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,re,im,method"
    assert lines[1] == "0,0,-0.5,recurrence"
    n, re, im, method = lines[2].split(",")
    assert (n, re, method) == ("1", "0", "recurrence")
    assert abs(float(im)) < 1e-15
    assert len(lines) == 4


def test_coeffs_dual_methods_agree():
    code, out, _ = run_cli(["coeffs", "--a", "0.3,0", "--n-max", "8",
                            "--subtract", "5"])
    assert code == 0
    rows = csv_rows(out)[1:]
    assert len(rows) == 18
    by_method = {}
    for n, re, im, method in rows:
        by_method.setdefault(method, {})[int(n)] = complex(float(re),
                                                           float(im))
    assert set(by_method) == {"stable-zeta", "direct-sum"}
    for n in range(9):
        gap = abs(by_method["stable-zeta"][n] - by_method["direct-sum"][n])
        assert gap <= 1e-10


# ------------------------------------------------------------------ entry

def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "lerchphi.cli", "eval",
                           "--z", "0,0", "--s", "1,0", "--a", "2,0",
                           "--json"], capture_output=True, text=True)
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["value_re"] == pytest.approx(0.5, rel=1e-14)
