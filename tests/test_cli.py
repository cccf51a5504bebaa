import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import eisenmodes
from eisenmodes import cli
from eisenmodes.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_LOG_CAP,
    EXIT_MISMATCH,
    EXIT_NO_FIXTURE,
    EXIT_NOT_HALF_INTEGER,
    EXIT_NO_SOLUTION,
    EXIT_NOT_TRIANGULAR,
    EXIT_OBSTRUCTED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from eisenmodes.bessel import DoubleBessel, SingleBessel, apply_euler, apply_L, apply_P
from eisenmodes.divisors import convolution_partial_sums, sigma_float_table
from eisenmodes.homogeneous import mode_solution_from_json_obj, zero_mode_alpha_sum
from eisenmodes.scalars import READ_DIGITS_MAX
from eisenmodes.solver import _source_window
from eisenmodes.sources import Normalization, Params, classify_params, source_term


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_and_verify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "solution.json"
    code, _ = run_cli(
        capsys, "solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30",
        "--n1", "1", "--n2", "2", "--output", str(out_file),
    )
    assert code == EXIT_OK
    doc = json.loads(out_file.read_text())
    assert doc["case"] == "generic"
    assert doc["report"]["kernel_dim"] == 0
    code, out = run_cli(capsys, "verify", "--input", str(out_file))
    assert code == EXIT_OK
    verdict = json.loads(out)
    assert verdict["pass"] is True
    assert verdict["operator"] == {"status": "exact-zero"}
    assert verdict["schema"] == "eisenmodes/verification/3"
    assert not {"residuals", "y_points", "tolerance"} & set(verdict)
    # verdicts are reproducible from the serialized document alone
    code2, out2 = run_cli(capsys, "verify", "--input", str(out_file))
    assert out2 == out


def test_exit_codes():
    assert main(["solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "10",
                 "--n1", "1", "--n2", "2", "--output", "/dev/null"]) == EXIT_NOT_TRIANGULAR
    assert main(["solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "2",
                 "--n1", "1", "--n2", "-1", "--output", "/dev/null"]) == EXIT_OBSTRUCTED
    assert main(["solve", "--alpha", "2", "--beta", "3/2", "--lambda", "12",
                 "--n1", "1", "--n2", "2", "--output", "/dev/null"]) == EXIT_NOT_HALF_INTEGER
    assert main(["solve", "--alpha", "3/2"]) == 64  # usage


def test_sums_command(capsys):
    code, out = run_cli(capsys, "sums", "--a", "2", "--b", "2", "--s", "8", "--limit", "2000")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["closed_form"] == [{"coeff": "143/58769550", "monomial": {"pi": 12}}]
    assert doc["status"] == "convergent"
    assert float(doc["partial_sum"]["value"]) == pytest.approx(float(doc["numeric"]), rel=1e-4)


def test_sums_log_in_formal_region(capsys):
    # zeta'(-3) appears in the continued closed form; it has a numeric value
    code, out = run_cli(capsys, "sums", "--a", "3", "--b", "3", "--s", "3", "--log")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["status"] == "formal"
    with mp.workdps(40):
        ratio = lambda s: (2 * mp.zeta(s) * mp.zeta(s - 3) ** 2 * mp.zeta(s - 6)
                           / mp.zeta(2 * s - 6))
        ref = -mp.diff(ratio, 3)
    assert float(doc["numeric"]) == pytest.approx(float(ref), rel=1e-12)


def test_table_command(capsys):
    code, out = run_cli(capsys, "table", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30",
                        "--cases", "anti_diagonal")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["entries"] and all(e["verdict"] == "equal" for e in doc["entries"])
    code, _ = run_cli(capsys, "table", "--alpha", "9/2", "--beta", "9/2", "--lambda", "30")
    assert code == EXIT_NO_FIXTURE


def test_table_reports_errata(capsys):
    code, out = run_cli(capsys, "table", "--alpha", "3/2", "--beta", "7/2", "--lambda", "30",
                        "--cases", "right")
    assert code == EXIT_OK
    doc = json.loads(out)
    verdicts = {e["verdict"] for e in doc["entries"]}
    assert "equal_with_erratum" in verdicts


def test_combine_command(capsys):
    code, out = run_cli(capsys, "combine", "--n1", "1", "--n2", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["comparison"] == {"verdict": "equal", "errata": [], "differences": []}
    assert "spot_check" not in doc


def test_combine_at_opposite_signs_applies_the_sign_erratum(capsys):
    # the printed table's overall sign is wrong at n1 n2 < 0
    code, out = run_cli(capsys, "combine", "--n1", "2", "--n2", "-3")
    assert code == EXIT_OK
    check = json.loads(out)["comparison"]
    assert check["verdict"] == "equal_with_erratum"
    assert [e.split(":")[0] for e in check["errata"]] == ["opposite_sign/prefactor"]
    assert "test_t_minus_2_table_satisfies_operator_identity" in check["errata"][0]
    assert check["differences"] == []


def test_combine_reports_a_changed_weight_as_a_mismatch(capsys, monkeypatch):
    # the comparison is exact, so any change of a weight shows
    (coeff, params), *rest = cli.T_MINUS_2_WEIGHTS
    monkeypatch.setattr(cli, "T_MINUS_2_WEIGHTS", [(coeff * 2, params), *rest])
    code, out = run_cli(capsys, "combine", "--n1", "1", "--n2", "2")
    assert code == EXIT_MISMATCH
    check = json.loads(out)["comparison"]
    assert check["verdict"] == "mismatch" and check["errata"] == []
    assert 0 < len(check["differences"]) <= 6


@pytest.mark.parametrize("n1, n2", [(1, -1), (0, 3)])
def test_combine_without_table_reports_no_fixture(capsys, n1, n2):
    # the T-2 table divides by n1 + n2 and takes divisor sums of n1 and n2
    code, out = run_cli(capsys, "combine", "--n1", str(n1), "--n2", str(n2))
    assert code == EXIT_NO_FIXTURE
    assert json.loads(out)["error"] == "no_fixture"


def test_alpha_sum_command(capsys):
    code, out = run_cli(capsys, "alpha-sum", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["status"] == "exact"
    assert doc["value"] == [{"coeff": "52/146923875", "monomial": {"pi": 8}}]


@pytest.mark.parametrize("lam, expected, classification", [
    ("31", EXIT_NOT_TRIANGULAR, "lambda_not_triangular"),
    ("-5", EXIT_NOT_TRIANGULAR, "lambda_not_triangular"),  # no r(r+1) is negative
    ("20", EXIT_NO_SOLUTION, "outside_conjectured_set"),  # parity-violating
])
def test_alpha_sum_without_solution_reports_exit_code(capsys, lam, expected, classification):
    # exit 1 is kept for mismatches; the zero-mode sum's failed solves map like solve's
    code, out, err = run_cli_streams(capsys, "alpha-sum", "--alpha", "3/2", "--beta", "3/2",
                                     "--lambda", lam)
    assert code == expected
    doc = json.loads(out)
    assert doc["error"] == "no_solution_in_window"
    assert doc["classification"] == classification
    assert doc["inconsistent_rows"] and err == ""


def test_alpha_sum_takes_the_normalization_of_solve(capsys):
    # (9/2, 9/2) has no published c-constant: the default call advises another
    # normalization, which --normalization then gives
    code, out, err = run_cli_streams(capsys, "alpha-sum", "--alpha", "9/2", "--beta", "9/2",
                                     "--lambda", "30")
    assert code == EXIT_USAGE and out == ""
    assert json.loads(err) == {"error": "no published c-constant for (alpha, beta) = (9/2, 9/2);"
                                        " use the correlator or unit normalization"}
    code, out = run_cli(capsys, "alpha-sum", "--alpha", "9/2", "--beta", "9/2", "--lambda", "30",
                        "--normalization", "unit")
    assert code == EXIT_OK
    expected = zero_mode_alpha_sum(Params(Fraction(9, 2), Fraction(9, 2), 30, Normalization.UNIT))
    assert json.loads(out)["status"] == expected.status == "divergent"


def test_alpha_sum_with_a_whole_weight_reports_exit_3(capsys):
    # as solve does, and as the exit-code table says: a document, not a usage error
    code, out, err = run_cli_streams(capsys, "alpha-sum", "--alpha", "2", "--beta", "3/2",
                                     "--lambda", "30")
    assert code == EXIT_NOT_HALF_INTEGER
    assert json.loads(out) == {"classification": "not_half_integer"}
    assert err == ""


def _strict_json(text):
    """The document, refusing NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv, kept", [
    # n^78 overflowed in the partial sums once r + alpha + beta >= 78, with a traceback
    (["alpha-sum", "--alpha", "3/2", "--beta", "3/2", "--r", "75"], []),
    (["solve", "--alpha", "3/2", "--beta", "3/2", "--r", "75", "--n", "0", "--cutoff", "8"], []),
    # so did d^100 in the divisor sieve
    (["alpha-sum", "--alpha", "101/2", "--beta", "101/2", "--r", "101"], []),
    # the partial sum up to 10^4 is -inf, which was written as -Infinity
    (["alpha-sum", "--alpha", "41/2", "--beta", "41/2", "--r", "1"], ["100", "1000"]),
])
def test_alpha_sums_keep_only_partial_sums_in_double_range(capsys, argv, kept):
    code, out, err = run_cli_streams(capsys, *argv, "--normalization", "unit")
    assert code == EXIT_OK and err == ""
    doc = _strict_json(out)
    total = doc["exact_alpha_sum"] if argv[0] == "solve" else doc
    assert total["shape"] is not None
    assert sorted(total["partial_sums"]) == kept
    if total["status"] == "exact":
        assert total["value"] and total["numeric"] is not None


def test_sums_with_a_term_past_double_range(capsys):
    # pi^796 overflowed in Constant.evaluate with a traceback: the term is now
    # the exact product of its doubles, and the sum tends to 2 as s grows
    code, out = run_cli(capsys, "sums", "--a", "2", "--b", "2", "--s", "400")
    assert code == EXIT_OK
    assert float(_strict_json(out)["numeric"]) == pytest.approx(2.0, abs=1e-12)
    # a value that itself leaves double range, 2 zeta(-299) zeta(3)^2 zeta(305) / zeta(6)
    # of order 10^373, is a usage error
    code, out, err = run_cli_streams(capsys, "sums", "--a", "-302", "--b", "-302", "--s", "-299")
    assert code == EXIT_USAGE and out == ""
    assert json.loads(err)["error"]


def test_sums_whose_closed_form_passes_4300_digits(capsys):
    # the closed form's denominator has 4573 digits, past Python's default
    # int/str limit: main lifts the limit while the command runs, and gives
    # the caller its own limit back
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "sums", "--a", "2", "--b", "2", "--s", "600")
    assert code == EXIT_OK
    assert _strict_json(out)["numeric"] == "1.9999999999999067"
    assert sys.get_int_max_str_digits() == limit


def test_a_frequency_at_the_prime_bound_is_a_usage_error(tmp_path, capsys):
    # 10000000000037 * 1000000000039, past the prime test's bound: its divisor
    # sums would trial-divide for hours, in solve and in verify
    big = "10000000000427000000001443"
    code, out, err = run_cli_streams(capsys, "solve", "--alpha", "3/2", "--beta", "3/2",
                                     "--lambda", "30", "--n1", big, "--n2", "1")
    assert code == EXIT_USAGE and out == ""
    assert "3317044064679887385961981" in json.loads(err)["error"]
    path = tmp_path / "m.json"
    assert main(["solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30",
                 "--n1", "1", "--n2", "2", "--output", str(path)]) == EXIT_OK
    path.write_text(json.dumps({**json.loads(path.read_text()), "n1": int(big)}))
    code, out, err = run_cli_streams(capsys, "verify", "--input", str(path))
    assert code == EXIT_USAGE and out == ""
    assert "3317044064679887385961981" in json.loads(err)["error"]


@pytest.mark.parametrize("argv, flag", [
    (["sums", "--a", "2", "--b", "2", "--s", "8", "--limit", "-5"], "--limit"),
    (["sums", "--a", "2", "--b", "2", "--s", "8", "--limit", "0"], "--limit"),
    # an unknown case used to compare nothing and still exit 0
    (["table", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30",
      "--cases", "generic", "foo"], "--cases"),
    # a non-positive r used to stand for lambda = r(r+1) all the same
    (["solve", "--alpha", "3/2", "--beta", "5/2", "--r", "-3", "--n1", "1", "--n2", "2"], "--r"),
    (["solve", "--alpha", "3/2", "--beta", "5/2", "--r", "0", "--n1", "1", "--n2", "2"], "--r"),
    # a negative widening cap ran no attempt and died with a traceback, exit 1;
    # the cap is no longer an option at all
    (["solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30", "--n1", "1", "--n2", "2",
      "--widen-cap", "-1"], "--widen-cap"),
    # --cutoff 0 was silently replaced by the default |n| + 4
    (["solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30", "--n", "1",
      "--cutoff", "0", "--no-decay"], "cutoff"),
    # options that could take one value only, or repeated another one's result
    (["combine", "--preset", "T-2", "--n1", "1", "--n2", "2"], "--preset"),
    (["alpha-sum", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30",
      "--method", "NumericPartial"], "--method"),
    # the spot check's points, gone with the double-precision check they fed;
    # these values once overflowed with a traceback, printed "y": Infinity and
    # exited 1 as a mismatch, or failed with a message naming no flag
    *[(["combine", "--n1", "1", "--n2", "2", "--y", y], "--y")
      for y in ("inf", "1e-300", "0", "-1", "nan")],
    # a limit past the sieve bound overflowed with a traceback, exit 1
    (["sums", "--a", "3", "--b", "5", "--s", "12", "--limit", "10000000000000000000"], "--limit"),
])
def test_out_of_range_arguments_are_usage_errors(capsys, argv, flag):
    code, out, err = run_cli_streams(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and flag in json.loads(err)["error"]


@pytest.mark.parametrize("a, b, s", [
    (300, 5, 10),  # d^300 overflows in the sieve
    (3, 5, 400),  # n^400 overflows in the partial sum
    (3, 5, -400),  # n^-400 underflows to zero, and the term divides by it
    (150, 150, 10),  # sigma_150(n)^2 overflows to inf without an exception
])
def test_partial_sum_outside_double_range_is_a_usage_error(capsys, a, b, s):
    # each used to end in a traceback with exit 1, or to print "inf", exit 0
    code, out, err = run_cli_streams(capsys, "sums", "--a", str(a), "--b", str(b),
                                     "--s", str(s), "--limit", "100")
    assert code == EXIT_USAGE
    assert out == ""
    assert json.loads(err) == {"error": "the partial sum up to --limit 100 leaves double range"}


@pytest.mark.parametrize("argv, flag", [
    # both went with the double-precision residual; the check is exact
    (["--tolerance", "1e-9"], "--tolerance"),
    *[(["--y", y], "--y") for y in ("inf", "1e-300", "0", "-1", "nan", "0.5,2,1e-300", "1e300")],
])
def test_verify_rejects_removed_and_out_of_range_arguments(tmp_path, capsys, argv, flag):
    path = tmp_path / "solution.json"
    code, _ = run_cli(capsys, "solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30",
                      "--n1", "1", "--n2", "2", "--output", str(path))
    assert code == EXIT_OK
    code, out, err = run_cli_streams(capsys, "verify", "--input", str(path), *argv)
    assert code == EXIT_USAGE
    assert out == "" and flag in json.loads(err)["error"]


def test_solve_output_bytes_deterministic(capsys):
    args = ["solve", "--alpha", "3/2", "--beta", "5/2", "--lambda", "20",
            "--n1", "2", "--n2", "3"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_import_loads_no_numpy_mpmath_or_process_pool():
    # mpmath is imported on the first symbol value, outside the package import
    src = str(Path(eisenmodes.__file__).resolve().parents[1])
    probe = ("import sys, eisenmodes, eisenmodes.fixtures; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('numpy', 'mpmath', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_closed_output_pipe_exits_quietly():
    # the read end of stdout is closed before the process starts, so its
    # document meets a broken pipe: exit 141, no error document and no
    # complaint from the interpreter's flush at exit
    src = str(Path(eisenmodes.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eisenmodes.cli", "solve", "--alpha", "3/2", "--beta", "3/2",
             "--lambda", "30", "--n1", "1", "--n2", "2"],
            env=dict(os.environ, PYTHONPATH=src), stdout=write_end, stderr=subprocess.PIPE,
            text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, "")


def test_assembly_without_solution_reports_exit_code(capsys):
    # the assembly path maps NoSolutionInWindow like the single-mode path
    code, out = run_cli(capsys, "solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "31",
                        "--n", "1", "--cutoff", "3", "--no-decay")
    assert code == EXIT_NOT_TRIANGULAR
    doc = json.loads(out)
    assert doc["error"] == "no_solution_in_window"
    assert doc["classification"] == "lambda_not_triangular"
    assert doc["inconsistent_rows"]
    # triangular but outside the conjectured set: no solution in the windows
    code, out = run_cli(capsys, "solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "20",
                        "--n", "1", "--cutoff", "2", "--no-decay")
    assert code == EXIT_NO_SOLUTION
    assert json.loads(out)["classification"] == "outside_conjectured_set"


def run_cli_streams(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, expected", [
    (["table", "--alpha", "9/2", "--beta", "9/2", "--lambda", "30"], EXIT_NO_FIXTURE),
    (["solve", "--alpha", "2", "--beta", "3/2", "--lambda", "12", "--n1", "1", "--n2", "2"],
     EXIT_NOT_HALF_INTEGER),
    (["combine", "--n1", "1", "--n2", "-1"], EXIT_NO_FIXTURE),
])
def test_early_exit_documents_honour_output(tmp_path, capsys, argv, expected):
    out_file = tmp_path / "doc.json"
    code, out, _ = run_cli_streams(capsys, *argv, "--output", str(out_file))
    assert code == expected
    assert out == ""
    text = out_file.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ["table", "--alpha", "3/2", "--beta", "3/2", "--cases", "zero_mode", "anti_diagonal"],
    ["alpha-sum", "--alpha", "3/2", "--beta", "3/2"],
])
def test_r_gives_the_same_document_as_lambda(capsys, argv):
    code_r, out_r = run_cli(capsys, *argv, "--r", "5")
    code_lam, out_lam = run_cli(capsys, *argv, "--lambda", "30")
    assert code_r == code_lam == EXIT_OK
    assert out_r == out_lam


def test_negative_lambda_is_not_triangular(capsys):
    # as lambda = 10 is; the window guess once took the square root of 4 lambda + 1
    code, out, err = run_cli_streams(capsys, "solve", "--alpha", "3/2", "--beta", "3/2",
                                     "--lambda", "-5", "--n1", "1", "--n2", "2")
    assert code == EXIT_NOT_TRIANGULAR
    assert json.loads(out)["classification"] == "lambda_not_triangular"
    assert err == ""


def test_lambda_and_r_together_are_a_usage_error(capsys):
    code, out, err = run_cli_streams(capsys, "solve", "--alpha", "3/2", "--beta", "3/2",
                                     "--lambda", "30", "--r", "4", "--n1", "1", "--n2", "2")
    assert code == EXIT_USAGE
    assert out == "" and "not allowed" in err


@pytest.mark.parametrize("modes, extra", [
    (["--n1", "1", "--n2", "2"], ["--window", "0:0"]),
    (["--n1", "1", "--n2", "2"], ["--widen-cap", "0"]),
    # the zero mode has no window, and used to ignore both flags silently
    (["--n1", "0", "--n2", "0"], ["--window", "5:5", "--widen-cap", "0"]),
])
def test_window_flags_are_unknown(tmp_path, capsys, modes, extra):
    # the degree windows are derived from the source; no flag sets or widens them
    out_file = tmp_path / "doc.json"
    code, out, err = run_cli_streams(capsys, "solve", "--alpha", "3/2", "--beta", "3/2",
                                     "--lambda", "30", *modes, *extra,
                                     "--output", str(out_file))
    assert code == EXIT_USAGE
    assert out == "" and not out_file.exists()
    error = json.loads(err)
    assert set(error) == {"error"}
    assert all(flag in error["error"] for flag in extra if flag.startswith("--"))


def _solution_doc(tmp_path, capsys, family=("3/2", "3/2", "30"), n1=1, n2=2,
                  normalization="published", expected=EXIT_OK):
    path = tmp_path / "solution.json"
    alpha, beta, lam = family
    code = main(["solve", "--alpha", alpha, "--beta", beta, "--lambda", lam,
                 "--n1", str(n1), "--n2", str(n2), "--normalization", normalization,
                 "--output", str(path)])
    capsys.readouterr()
    assert code == expected
    return json.loads(path.read_text())


def _edit_missing_alpha(doc):
    del doc["params"]["alpha"]


def _edit_log_over_cap(doc):
    doc["particular"]["table"]["00"][0]["log"] = 3


def _deep_nesting(doc):
    """JSON text nested deeper than the stack that json.load recurses on."""
    return "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("edit, expected", [
    (None, EXIT_USAGE),                  # OSError: the input file does not exist
    (_edit_missing_alpha, EXIT_USAGE),   # KeyError
    (_edit_log_over_cap, EXIT_LOG_CAP),  # LogCapExceeded
    (_deep_nesting, EXIT_USAGE),         # RecursionError
])
def test_verify_bad_input_maps_to_an_exit_code(tmp_path, capsys, edit, expected):
    doc = _solution_doc(tmp_path, capsys)
    bad = tmp_path / "bad.json"
    if edit is not None:
        text = edit(doc)
        bad.write_text(json.dumps(doc) if text is None else text)
    out_file = tmp_path / "verdict.json"
    code, out, err = run_cli_streams(capsys, "verify", "--input", str(bad),
                                     "--output", str(out_file))
    assert code == expected
    assert out == "" and not out_file.exists()
    assert set(json.loads(err)) == {"error"}


@pytest.mark.parametrize("shape", [
    lambda doc: [],
    lambda doc: None,
    lambda doc: {**doc, "particular": 5},
    lambda doc: {**doc, "n1": "1"},
    lambda doc: {**doc, "params": {**doc["params"], "lambda": "30"}},
    lambda doc: {**doc, "params": {**doc["params"], "lambda": 30.0}},
    lambda doc: {**doc, "particular": {**doc["particular"], "table": []}},
    lambda doc: {**doc, "alpha": [{"monomial": {}, "coeff": 5}]},
    lambda doc: {**doc, "alpha": [{"monomial": [], "coeff": "1/1"}]},
    lambda doc: _first_term_with(doc, coeff="1/0"),
    lambda doc: _first_term_with(doc, y=1.5),
    lambda doc: {**doc, "alpha": [{"monomial": {"pi": 0.5}, "coeff": "1/1"}]},
    lambda doc: {**doc, "particular": {**doc["particular"], "n2": 2.0}},
    lambda doc: _first_term_split(doc),
    lambda doc: {**doc, "params": {**doc["params"], "alpha": 1.5}},
    lambda doc: {**doc, "params": {**doc["params"], "alpha": " 3/2 "}},
    lambda doc: {**doc, "params": {**doc["params"], "alpha": "3/0"}},
    lambda doc: {**doc, "params": {**doc["params"], "alpha": "1e10000000"}},
], ids=["list", "null", "particular_int", "n1_string", "lambda_string", "lambda_float",
        "table_list", "coeff_int", "monomial_list", "coeff_zero_denominator", "y_float",
        "exponent_float", "particular_n2_float", "split_term", "alpha_float", "alpha_padded",
        "alpha_zero_denominator", "alpha_exponent"])
def test_verify_wrongly_typed_json_is_a_usage_error(tmp_path, capsys, shape):
    # valid JSON of the wrong shape raises TypeError while the document is
    # read, a zero denominator ZeroDivisionError, a number string other than
    # "p" or "p/q" ValueError (before any float or Fraction parse of it), and
    # a repeated (y, log) term or a weight not written as str(Fraction) is
    # not the document written back; that is bad input (exit 64), never a
    # mismatch (exit 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(shape(_solution_doc(tmp_path, capsys))))
    code, out, err = run_cli_streams(capsys, "verify", "--input", str(bad))
    assert code == EXIT_USAGE
    assert out == ""
    assert set(json.loads(err)) == {"error"}


def _cell_renamed(old, new):
    def edit(doc):
        doc = json.loads(json.dumps(doc))
        table = doc["particular"]["table"]
        table[new] = table.pop(old)
        return doc
    return edit


def _alpha_with_symbol(symbol):
    def edit(doc):
        return {**doc, "alpha": doc["alpha"] + [{"monomial": {symbol: 1}, "coeff": "1/1"}]}
    return edit


def _alpha_first_term(coeff=None, **exponents):
    """doc with the first alpha term's coefficient replaced, or exponents added
    to its monomial."""
    def edit(doc):
        first = doc["alpha"][0]
        first = {"monomial": {**first["monomial"], **exponents}, "coeff": coeff or first["coeff"]}
        return {**doc, "alpha": [first, *doc["alpha"][1:]]}
    return edit


def _alpha_first_term_twice(doc):
    return {**doc, "alpha": doc["alpha"] + doc["alpha"][:1]}


def _zero_term_in_first_cell(doc):
    """doc with a zero (y, log) term, one the package never writes, appended
    to its particular part's first cell."""
    doc = json.loads(json.dumps(doc))
    table = doc["particular"]["table"]
    table[min(table)].append({"y": 40, "log": 0, "coeff": []})
    return doc


def _particular_monomial_twice(doc):
    """doc with the first monomial of its particular part's first term listed twice."""
    doc = json.loads(json.dumps(doc))
    table = doc["particular"]["table"]
    coeff = table[min(table)][0]["coeff"]
    coeff.append(coeff[0])
    return doc


@pytest.mark.parametrize("n2, edit", [
    (2, _cell_renamed("00", "0")),
    (2, _cell_renamed("00", "02")),
    (2, _cell_renamed("00", "000")),
    (2, _cell_renamed("00", "x1")),
    (0, _cell_renamed("0", "2")),
    (0, _cell_renamed("0", "00")),
    (2, _alpha_with_symbol("zeta(2)")),
    (2, _alpha_with_symbol("zeta(1)")),
    (2, _alpha_with_symbol("zeta(-3)")),
    (2, _alpha_with_symbol("zeta(03)")),
    (2, _alpha_with_symbol("ln_prime(4)")),
    (2, _alpha_with_symbol("ln_prime(2021)")),
    (2, _alpha_with_symbol("ln_prime(8321)")),
    (2, _alpha_with_symbol("zeta_prime(1)")),
    (2, _alpha_with_symbol("ln_prime(3317044064679887385961981)")),
    (2, _alpha_with_symbol("pi(1)")),
    (2, _alpha_with_symbol("ln_pi(2)")),
    (2, _alpha_with_symbol("zeta")),
    (2, _alpha_with_symbol("zeta_prime")),
    (2, _alpha_with_symbol("Pi")),
    (2, _alpha_with_symbol("zeta(+3)")),
    (2, _alpha_first_term_twice),
    (2, _particular_monomial_twice),
    (2, _zero_term_in_first_cell),
    (2, _alpha_first_term("1280/3402")),
    (2, _alpha_first_term("-640/-1701")),
    (2, _alpha_first_term("6_40/1701")),
    (2, _alpha_first_term(" 640/1701")),
    (2, lambda doc: {**doc, "alpha": doc["alpha"] + [{"monomial": {"gamma": 1}, "coeff": "0/1"}]}),
    (2, _alpha_first_term(gamma=0)),
], ids=["double_key_0", "double_key_02", "double_key_000", "double_key_x1", "single_key_2",
        "single_key_00", "zeta_2", "zeta_1", "zeta_minus_3", "zeta_03", "ln_prime_4",
        "ln_prime_2021", "ln_prime_8321", "zeta_prime_1", "ln_prime_psi13",
        "pi_with_argument", "ln_pi_with_argument", "zeta_without_argument",
        "zeta_prime_without_argument", "pi_capitalized", "zeta_plus_3",
        "alpha_monomial_twice", "particular_monomial_twice", "particular_zero_term",
        "coeff_unreduced", "coeff_double_minus", "coeff_underscore", "coeff_padded",
        "coeff_zero", "exponent_zero"])
def test_verify_reads_only_cells_and_symbols_the_package_writes(tmp_path, capsys, n2, edit):
    # a cell key not of the expression's kind, a symbol the package never
    # writes (ln_prime(p) only for a prime p below the 13-base test's first
    # pseudoprime), a Constant not as the package writes it and a zero (y, log)
    # term are bad input (exit 64), never a traceback or a mismatch (exit 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(_solution_doc(tmp_path, capsys, n2=n2))))
    code, out, err = run_cli_streams(capsys, "verify", "--input", str(bad))
    assert (code, out) == (EXIT_USAGE, "")
    assert set(json.loads(err)) == {"error"}


PAST_DIGIT_BOUND = "9" * (READ_DIGITS_MAX + 1)


@pytest.mark.parametrize("edit", [
    _alpha_first_term(PAST_DIGIT_BOUND + "/1"),
    _alpha_first_term("1/" + PAST_DIGIT_BOUND),
    _alpha_with_symbol(f"zeta({PAST_DIGIT_BOUND})"),
    lambda doc: {**doc, "n1": "@int@"},
], ids=["numerator", "denominator", "symbol_argument", "json_integer"])
def test_verify_refuses_a_number_past_the_digit_bound(tmp_path, capsys, edit):
    # a decimal integer longer than scalars.READ_DIGITS_MAX, wherever the
    # document holds it, is refused before int() reads it: exit 64, and the
    # error names the bound
    bad = tmp_path / "bad.json"
    text = json.dumps(edit(_solution_doc(tmp_path, capsys)))
    bad.write_text(text.replace('"@int@"', PAST_DIGIT_BOUND))
    code, out, err = run_cli_streams(capsys, "verify", "--input", str(bad))
    assert (code, out) == (EXIT_USAGE, "")
    assert str(READ_DIGITS_MAX) in json.loads(err)["error"]


def test_verify_refuses_a_zero_obstruction_term(tmp_path, capsys):
    # no obstruction the package writes holds a (y, log) term with a zero
    # coefficient; read as written, it would be compared (exit 1)
    doc = _solution_doc(tmp_path, capsys, ("9/2", "9/2", "2"), -142, 58, "unit", EXIT_OBSTRUCTED)
    doc["obstruction"]["leading"].append({"y": 0, "log": 0, "coeff": []})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli_streams(capsys, "verify", "--input", str(bad))
    assert (code, out) == (EXIT_USAGE, "")
    assert set(json.loads(err)) == {"error"}


@pytest.mark.parametrize("key, value", [
    ("case", "bogus"),
    ("source_full", {"kind": "pure", "poly": []}),
    ("hom_basis", None),
    ("alpha_free", 0),  # equal to False in Python, not in JSON
    ("alpha_normalization", "x"),
    ("extra", None),
])
def test_verify_refuses_a_document_not_as_solve_writes_it(tmp_path, capsys, key, value):
    # each key but report, classification and latex must have the JSON text
    # of the mode written back from the document, derived fields included
    doc = _solution_doc(tmp_path, capsys)
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli_streams(capsys, "verify", "--input", str(bad))
    assert (code, out) == (EXIT_USAGE, "")
    assert json.loads(err) == {"error": f"the mode written back differs from the document in {key}"}


def test_verify_leaves_report_classification_and_latex_unchecked(tmp_path, capsys):
    # solver diagnostics, the parameter class and the LaTeX rendering are
    # outside the verified claim: verify recomputes none of them
    path = tmp_path / "solution.json"
    code, _ = run_cli(capsys, "solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30",
                      "--n1", "1", "--n2", "2", "--format", "latex", "--output", str(path))
    doc = json.loads(path.read_text())
    assert code == EXIT_OK and {"report", "classification", "latex"} <= doc.keys()
    path.write_text(json.dumps({**doc, "report": None, "classification": 0, "latex": "x"}))
    code, out = run_cli(capsys, "verify", "--input", str(path))
    assert code == EXIT_OK and json.loads(out)["pass"] is True


def _first_term_with(doc, **fields):
    """doc with the first term of its particular part's first cell edited."""
    doc = json.loads(json.dumps(doc))
    table = doc["particular"]["table"]
    term = table[min(table)][0]
    if "coeff" in fields:
        term["coeff"][0]["coeff"] = fields.pop("coeff")
    term.update(fields)
    return doc


def _first_term_split(doc):
    """doc with the first term of its particular part split into two terms
    of the same (y, log), each with half the coefficient."""
    doc = json.loads(json.dumps(doc))
    table = doc["particular"]["table"]
    terms = table[min(table)]
    for entry in terms[0]["coeff"]:
        half = Fraction(entry["coeff"]) / 2
        entry["coeff"] = f"{half.numerator}/{half.denominator}"
    terms.insert(0, json.loads(json.dumps(terms[0])))
    return doc


@pytest.mark.parametrize("argv, found", [
    (["solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30", "--n", "1", "--cutoff", "6"],
     "schema 'eisenmodes/mode-assembly/1'"),
    (["combine", "--n1", "2", "--n2", "3"], "schema 'eisenmodes/combination/1'"),
    (["table", "--alpha", "3/2", "--beta", "3/2", "--lambda", "2"],
     "schema 'eisenmodes/table-comparison/1'"),
    (["alpha-sum", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30"], "no schema"),
], ids=["assembly", "combination", "table", "alpha_sum"])
def test_verify_names_the_schema_it_cannot_read(tmp_path, capsys, argv, found):
    # every other document the CLI writes is bad input for verify (exit 64),
    # and the message says which schema it found instead of a missing key
    path = tmp_path / "doc.json"
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    path.write_text(out)
    code, out, err = run_cli_streams(capsys, "verify", "--input", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert json.loads(err) == {
        "error": f"expected an eisenmodes/mode-solution/1 document, found {found}"}


def _verdict(tmp_path, capsys, doc):
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", "--input", str(path))
    return code, json.loads(out)


def _integer(value):
    return [{"monomial": {}, "coeff": f"{value}/1"}]


def _alpha_set_to(value):
    def edit(doc):
        doc["alpha"] = _integer(value)
    return edit


def _obstruction_dropped(doc):
    doc["obstruction"] = None
    doc["alpha"] = _integer(1)


def _leading_changed(doc):
    doc["obstruction"]["leading"][0]["coeff"] = _integer(1)


def _message_changed(doc):
    doc["obstruction"]["message"] += " and more"


@pytest.mark.parametrize("family, n1, n2, normalization, edit, key", [
    (("3/2", "3/2", "30"), 1, 2, "published", _alpha_set_to(1000), "alpha"),
    # P(y^-r) is exactly 0 on the anti-diagonal
    (("3/2", "3/2", "30"), -1, 1, "published", _alpha_set_to(7), "alpha"),
    (("3/2", "7/2", "12"), 1, 2, "unit", _obstruction_dropped, "leading"),
    (("5/2", "5/2", "2"), 1, 2, "unit", _obstruction_dropped, "leading"),
    (("5/2", "5/2", "2"), 1, 2, "unit", _leading_changed, "leading"),
    (("5/2", "5/2", "2"), 1, 2, "unit", _message_changed, "message"),
])
def test_verify_rejects_wrong_boundary_data(tmp_path, capsys, family, n1, n2,
                                            normalization, edit, key):
    # the operator check reads only the particular part, so only the boundary
    # rule sees a wrong alpha or obstruction
    expected = EXIT_OK if key == "alpha" else EXIT_OBSTRUCTED
    doc = _solution_doc(tmp_path, capsys, family, n1, n2, normalization, expected)
    code, verdict = _verdict(tmp_path, capsys, doc)
    assert code == EXIT_OK and verdict["boundary"]["status"] in ("ok", "obstructed")
    assert verdict["operator"] == {"status": "exact-zero"}
    tampered = json.loads(json.dumps(doc))
    edit(tampered)
    code, verdict = _verdict(tmp_path, capsys, tampered)
    assert verdict["operator"] == {"status": "exact-zero"}
    assert code == EXIT_MISMATCH and verdict["pass"] is False
    # the recomputed parts are the untampered document's, leading cut to 6 terms
    parts = {"alpha": doc["alpha"], **(doc["obstruction"] or {})}
    parts["leading"] = parts.get("leading", [])[:6]
    # a document that drops the obstruction states an alpha: all three parts differ
    keys = ("alpha", "leading", "message") if edit is _obstruction_dropped else (key,)
    assert verdict["boundary"] == {"status": "mismatch", **{k: parts[k] for k in keys}}


def test_verify_accepts_an_obstructed_mode_at_large_frequencies(tmp_path, capsys):
    # the numeric series self-check this replaced read this exact solution
    # as a mismatch (relative error 1.2e-5)
    doc = _solution_doc(tmp_path, capsys, ("3/2", "9/2", "2"), 30, 30, "unit", EXIT_OBSTRUCTED)
    code, verdict = _verdict(tmp_path, capsys, doc)
    assert code == EXIT_OK and verdict["pass"] is True
    assert verdict["boundary"] == {"status": "obstructed"}


@pytest.mark.parametrize("family, n1, n2", [
    # the double-precision residual that the exact check replaced read these
    # exact solutions as mismatches: the rounding noise of alpha * P(h) read
    # 6.2e-2 at y = 1 and 3.4e111 at y = 0.5 on the first two, and cancelling
    # terms read 2.9e-8 and 3.6e-5 at y = 0.5 on the last two
    (("3/2", "9/2", "42"), 2, -76),
    (("5/2", "3/2", "20"), 112, -46),
    (("5/2", "3/2", "42"), 65, -45),
    (("7/2", "7/2", "56"), -117, 100),
])
def test_verify_accepts_exact_solutions_at_large_frequencies(tmp_path, capsys, family, n1, n2):
    doc = _solution_doc(tmp_path, capsys, family, n1, n2, "unit")
    code, verdict = _verdict(tmp_path, capsys, doc)
    assert code == EXIT_OK and verdict["pass"] is True
    assert verdict["operator"] == {"status": "exact-zero"}
    assert verdict["boundary"] == {"status": "ok"}


@pytest.mark.parametrize("n1, n2, boundary", [(0, 0, "free"), (0, 5, "ok")])
def test_verify_accepts_the_zero_mode_and_a_single_bessel_mode(tmp_path, capsys, n1, n2,
                                                               boundary):
    doc = _solution_doc(tmp_path, capsys, n1=n1, n2=n2)
    code, verdict = _verdict(tmp_path, capsys, doc)
    assert code == EXIT_OK and verdict["pass"] is True
    assert verdict["operator"] == {"status": "exact-zero"}
    assert verdict["boundary"] == {"status": boundary}


def test_verify_rejects_a_coefficient_moved_by_a_millionth(tmp_path, capsys):
    # this mode underflows at y = 0.5, 1 and 2 (its source is 2.1e-320 at
    # y = 0.5), so the double-precision residual read 0 there and passed it
    doc = _solution_doc(tmp_path, capsys, ("3/2", "3/2", "30"), 200, -37, "unit")
    table = doc["particular"]["table"]
    coeff = table[min(table)][0]["coeff"][0]
    moved = Fraction(coeff["coeff"]) * (1 + Fraction(1, 10**6))
    coeff["coeff"] = f"{moved.numerator}/{moved.denominator}"
    code, verdict = _verdict(tmp_path, capsys, doc)
    assert code == EXIT_MISMATCH and verdict["pass"] is False
    assert verdict["operator"]["status"] == "mismatch"
    assert 0 < len(verdict["operator"]["differences"]) <= 6


def test_verify_rejects_a_particular_of_other_frequencies(tmp_path, capsys):
    # the source is rebuilt from (n1, n2) = (1, 2); the particular solves (1, 3)
    doc = _solution_doc(tmp_path, capsys)
    doc["particular"]["n2"] = 3
    code, verdict = _verdict(tmp_path, capsys, doc)
    assert code == EXIT_MISMATCH and verdict["pass"] is False
    assert verdict["operator"] == {
        "status": "mismatch",
        "differences": ["kind mismatch: DoubleBessel(1, 3) vs DoubleBessel(1, 2)"],
    }


# the modes whose solve documents the mutation test edits: a double-Bessel,
# a single-Bessel and the zero mode of (3/2,3/2,30), and the obstructed UNIT
# (9/2,9/2,r=1) mode at (-142, 58)
THIRTY = ["--alpha", "3/2", "--beta", "3/2", "--lambda", "30"]
MUTATED_MODES = [
    ([*THIRTY, "--n1", "1", "--n2", "2"], EXIT_OK),
    ([*THIRTY, "--n1", "0", "--n2", "5"], EXIT_OK),
    ([*THIRTY, "--n1", "0", "--n2", "0"], EXIT_OK),
    (["--alpha", "9/2", "--beta", "9/2", "--r", "1", "--n1", "-142", "--n2", "58",
      "--normalization", "unit"], EXIT_OBSTRUCTED),
]
# the keys of a mode document that verify does not check
OUTSIDE_THE_CLAIM = {"report", "classification", "latex"}
JSON_VALUES = hst.one_of(hst.none(), hst.booleans(), hst.integers(-3, 3),
                         hst.sampled_from([0.5, 1.0, "", "x", "0/1", "1/1", "3/2", [], {}]))


@lru_cache(maxsize=None)
def _mode_text(index):
    argv, expected = MUTATED_MODES[index]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mode.json")
        assert _main_doc(["solve", *argv, "--output", path])[0] == expected
        with open(path) as fh:
            return fh.read()


def _checked_text(doc):
    return json.dumps({k: v for k, v in doc.items() if k not in OUTSIDE_THE_CLAIM}, sort_keys=True)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(hst.data())
def test_verify_refuses_every_mutation_of_what_it_checks(data):
    # one value replaced, one key or list entry deleted, one list entry
    # duplicated, or one int (or the numerator of a "p/q" string) shifted:
    # a mutation that changes the JSON text outside report, classification
    # and latex is a mismatch (1), a log power over the cap (7) or bad input
    # (64), never a pass; one that changes nothing else still passes
    text = _mode_text(data.draw(hst.integers(0, len(MUTATED_MODES) - 1)))
    doc = json.loads(text)
    # a walk down from a top-level key that goes one level deeper with
    # probability 1/2, so every field is drawn about as often as its siblings
    head, parent, key = [], doc, data.draw(hst.sampled_from(sorted(doc)))
    while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(hst.booleans()):
        head.append(key)
        parent = parent[key]
        key = data.draw(hst.sampled_from(sorted(parent) if isinstance(parent, dict) else range(len(parent))))
    value = parent[key]
    numerator = re.fullmatch(r"(-?\d+)(/\d+)", value) if isinstance(value, str) else None
    ops = ["replace", "delete"]
    ops += ["duplicate"] * (isinstance(value, list) and bool(value))
    ops += ["shift"] * (type(value) is int or numerator is not None)
    op = data.draw(hst.sampled_from(ops))
    if op == "replace":
        parent[key] = data.draw(JSON_VALUES)
    elif op == "delete":
        del parent[key]
    elif op == "duplicate":
        value.insert(data.draw(hst.integers(0, len(value))), copy.deepcopy(data.draw(hst.sampled_from(value))))
    else:
        shift = data.draw(hst.sampled_from([-2, -1, 1, 2]))
        parent[key] = value + shift if numerator is None else f"{int(numerator[1]) + shift}{numerator[2]}"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["verify", "--input", path])
    if _checked_text(doc) == _checked_text(json.loads(text)):
        assert code == EXIT_OK
    else:
        assert code in (EXIT_MISMATCH, EXIT_LOG_CAP, EXIT_USAGE), (op, head, key)


def test_unwritable_output_maps_to_usage_on_stderr(tmp_path, capsys):
    code, out, err = run_cli_streams(capsys, "sums", "--a", "2", "--b", "2", "--s", "8",
                                     "--output", str(tmp_path / "missing" / "doc.json"))
    assert code == EXIT_USAGE
    assert out == "" and set(json.loads(err)) == {"error"}


def test_value_error_maps_to_usage_on_stderr(capsys):
    code, out, err = run_cli_streams(capsys, "solve", "--alpha", "3/2", "--beta", "3/2",
                                     "--lambda", "30")
    assert code == EXIT_USAGE
    assert out == ""
    assert json.loads(err) == {"error": "give either --n1 and --n2, or --n with --cutoff"}


def test_readme_lists_every_exit_code():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    listed = {int(code) for code in re.findall(r"^\|\s*(\d+)\s*\|", readme.read_text(), re.M)}
    declared = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    assert listed == declared


@pytest.mark.parametrize("modes, extra", [
    (["--n", "1"], ["--n1", "5", "--n2", "7"]),
    (["--n1", "1", "--n2", "2"], ["--cutoff", "9"]),
    (["--n1", "1", "--n2", "2"], ["--no-decay"]),
    (["--n", "1", "--cutoff", "2"], ["--window", "0:0"]),
    (["--n", "1", "--cutoff", "2"], ["--widen-cap", "0"]),
    (["--n", "1", "--cutoff", "2"], ["--format", "latex"]),
    (["--n", "1", "--cutoff", "2"], ["--workers", "2"]),  # the option no longer exists
])
def test_solve_rejects_flags_of_the_other_mode(tmp_path, capsys, modes, extra):
    out_file = tmp_path / "doc.json"
    code, out, err = run_cli_streams(capsys, "solve", "--alpha", "3/2", "--beta", "3/2",
                                     "--lambda", "30", *modes, *extra,
                                     "--output", str(out_file))
    assert code == EXIT_USAGE
    assert out == "" and not out_file.exists()
    assert extra[0] in json.loads(err)["error"]


def test_zero_mode_assembly_with_one_probe_is_unrecognized(capsys):
    # cutoff 1 leaves one anti-diagonal probe, too few to fit A + B log n
    code, out = run_cli(capsys, "solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30",
                        "--n", "0", "--cutoff", "1")
    assert code == EXIT_OK
    assert json.loads(out)["exact_alpha_sum"]["status"] == "unrecognized"


@pytest.mark.parametrize("argv, closed", [
    # zeta(-2) = 0 in the numerator: the log-weighted sum is its derivative term alone
    (["sums", "--a", "4", "--b", "2", "--s", "4", "--log"], True),
    # zeta(1) zeta(-2) in the numerator: the sum is finite, but its s-derivative
    # needs zeta''(-2)
    (["sums", "--a", "3", "--b", "5", "--s", "6", "--log"], False),
    # shape sigma_4 sigma_4 / n^6 (A + B log n): zeta(-2) in the numerator
    (["alpha-sum", "--alpha", "5/2", "--beta", "5/2", "--lambda", "2",
      "--method", "FormalRamanujan"], True),
    # zeta(-2) in the denominator and zeta(-2), zeta(-6) in the numerator: the
    # 0/0 limit is a simple zero
    (["sums", "--a", "6", "--b", "4", "--s", "4"], True),
])
def test_trivial_zeros_of_zeta_give_documents(capsys, argv, closed):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["status"] == "formal"
    value = doc["closed_form"] if argv[0] == "sums" else doc["value"]
    assert (value is not None) == closed


def _main_doc(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _zeta_ratio(a, b):
    return lambda s: (2 * mp.zeta(s) * mp.zeta(s - a) * mp.zeta(s - b) * mp.zeta(s - a - b)
                      / mp.zeta(2 * s - a - b))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(hst.integers(-2, 8), hst.integers(-2, 8), hst.integers(-6, 13), hst.booleans())
def test_sums_agree_with_partial_sums_and_mpmath(a, b, s, log):
    limit = 2000
    flag = ["--log"] if log else []
    code, out = _main_doc(["sums", "--a", str(a), "--b", str(b), "--s", str(s), *flag,
                           "--limit", str(limit)])
    assert code == EXIT_OK
    doc = json.loads(out)
    value = float(doc["numeric"])
    if doc["status"] == "convergent":
        # the tail past N is below 4 times the last doubling's increment on the
        # whole grid (at most 1.9 times, for sum d(n)^2 log n / n^2)
        full = float(doc["partial_sum"]["value"])
        tables = sigma_float_table(a, limit // 2), sigma_float_table(b, limit // 2)
        weight = (0.0, 1.0) if log else (1.0, 0.0)
        half = convolution_partial_sums(*tables, s, weight, (limit // 2,))[limit // 2]
        assert abs(value - full) <= 4 * abs(full - half) + 1e-12 * abs(value), doc
    trivial_zeros = [k for k in (s, s - a, s - b, s - a - b) if k < 0 and k % 2 == 0]
    if log and len(trivial_zeros) == 1 and doc["closed_form"] is not None:
        with mp.workdps(30):
            ref = -mp.diff(_zeta_ratio(a, b), s)
        assert value == pytest.approx(float(ref), rel=1e-12), doc


SOLVABLE_FAMILIES = [
    (Fraction(a, 2), Fraction(b, 2), r)
    for a in (3, 5, 7, 9) for b in (3, 5, 7, 9) for r in range(1, 9)
    if classify_params(Fraction(a, 2), Fraction(b, 2), r * (r + 1)).kind == "solvable"
]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(hst.sampled_from(SOLVABLE_FAMILIES), hst.integers(-300, 300), hst.integers(-300, 300))
def test_solve_contract_on_solvable_families(family, n1, n2):
    alpha, beta, r = family
    code, out = _main_doc(["solve", "--alpha", str(alpha), "--beta", str(beta), "--r", str(r),
                           "--n1", str(n1), "--n2", str(n2), "--normalization", "unit"])
    assert code in (EXIT_OK, EXIT_OBSTRUCTED)
    # re-read the document and check it with the symbolic operator
    mode = mode_solution_from_json_obj(json.loads(out))
    part, lam = mode.particular, mode.params.lam
    apply = {DoubleBessel: apply_P, SingleBessel: apply_L}.get(type(part), apply_euler)
    assert (apply(lam, part) - mode.source.full()).is_zero()


WEIGHTS = [Fraction(w, 2) for w in (3, 5, 7, 9)]
# triangular lambda = r(r+1), r <= 8, outside classify_params' solvable set
OUTSIDE_FAMILIES = [
    (a, b, r * (r + 1)) for a in WEIGHTS for b in WEIGHTS for r in range(1, 9)
    if classify_params(a, b, r * (r + 1)).kind == "outside_conjectured_set"
]
NOT_TRIANGULAR = [lam for lam in range(2, 81) if lam not in {r * (r + 1) for r in range(1, 9)}]
NO_SOLUTION_KEYS = {"classification", "error", "retries", "windows", "inconsistent_rows"}


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(hst.one_of(hst.sampled_from(OUTSIDE_FAMILIES),
                  hst.tuples(hst.sampled_from(WEIGHTS), hst.sampled_from(WEIGHTS),
                             hst.sampled_from(NOT_TRIANGULAR))),
       hst.integers(-300, 300), hst.integers(-300, 300))
def test_solve_contract_beyond_the_solvable_families(family, n1, n2):
    # most draws have no solution; a failed solve reports its derived
    # windows, one per cell and all equal, with retries 0
    alpha, beta, lam = family
    kind = classify_params(alpha, beta, lam).kind
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "solution.json")
        code, _ = _main_doc(["solve", "--alpha", str(alpha), "--beta", str(beta),
                             "--lambda", str(lam), "--n1", str(n1), "--n2", str(n2),
                             "--normalization", "unit", "--output", path])
        with open(path) as fh:
            doc = json.load(fh)
        assert code in (EXIT_OK, EXIT_NOT_TRIANGULAR, EXIT_NO_SOLUTION, EXIT_OBSTRUCTED)
        assert doc["classification"] == kind
        if code in (EXIT_NOT_TRIANGULAR, EXIT_NO_SOLUTION):
            assert doc.keys() == NO_SOLUTION_KEYS and doc["error"] == "no_solution_in_window"
            assert (code == EXIT_NOT_TRIANGULAR) == (kind == "lambda_not_triangular")
            assert doc["retries"] == 0
            assert doc["inconsistent_rows"]
            p = Params(alpha, beta, lam, Normalization.UNIT)
            window = _source_window(p.r_hint, source_term(p, n1, n2).flat)
            assert set(map(tuple, doc["windows"].values())) == {window}
            return
        # a solution of a family outside the solvable set verifies, byte-stably
        verdicts = [_main_doc(["verify", "--input", path]) for _ in range(2)]
        assert verdicts[0] == verdicts[1]
        code, out = verdicts[0]
        assert json.loads(out)["operator"] == {"status": "exact-zero"}, out
        assert code == EXIT_OK, out
