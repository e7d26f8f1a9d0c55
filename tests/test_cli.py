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
           [])
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
           ["coeffs", "--a", "2,0", "--n-max", "2"])
    for argv in bad:
        code, _, err = run_cli(argv)
        assert code == 2, argv
        assert err != ""


def test_accuracy_warnings_exit_3():
    code, out, _ = run_cli(["eval", "--z", "-7,0", "--s", "0.75,0",
                            "--a", "0.3,0", "--engine", "symmetric",
                            "--n", "5", "--tol", "1e-14"])
    assert code == 3
    assert "n-cap-reached" in out     # value still printed, warning shown


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
    code, out, _ = run_cli(["sweep", "--mode", "z-scaling", "--json"])
    assert code == 0
    rows = json_lines(out)
    scaled = [r for r in rows if r["param_name"] == "scaled_remainder"]
    assert len(scaled) == 4
    assert [r["param_value"] for r in scaled] == \
        ["-5,0", "-10,0", "-20,0", "-40,0"]
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
    code, out, _ = run_cli(["sweep", "--mode", "terms-vs-error",
                            "--z", "-5,0", "--depth-max", "6", "--json"])
    assert code == 0
    errs = [r["abs_err_vs_reference"] for r in json_lines(out)]
    assert len(errs) == 6
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
