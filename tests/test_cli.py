import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eisenmodes
from eisenmodes.cli import (
    EXIT_NO_FIXTURE,
    EXIT_NOT_HALF_INTEGER,
    EXIT_NO_SOLUTION,
    EXIT_NOT_TRIANGULAR,
    EXIT_OBSTRUCTED,
    EXIT_OK,
    main,
)


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
    code, out = run_cli(capsys, "verify", "--input", str(out_file), "--y", "0.5,1,2")
    assert code == EXIT_OK
    verdict = json.loads(out)
    assert verdict["pass"] is True
    assert len(verdict["residuals"]) == 3
    # verdicts are reproducible from the serialized document alone
    code2, out2 = run_cli(capsys, "verify", "--input", str(out_file), "--y", "0.5,1,2")
    assert out2 == out


def test_exit_codes():
    assert main(["solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "10",
                 "--n1", "1", "--n2", "2", "--widen-cap", "2", "--output", "/dev/null"]) == EXIT_NOT_TRIANGULAR
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
    code, out = run_cli(capsys, "combine", "--preset", "T-2", "--n1", "1", "--n2", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["spot_check"]["verdict"] == "equal"
    for point in doc["spot_check"]["points"]:
        assert float(point["relative_error"]) <= 1e-8


@pytest.mark.parametrize("n1, n2", [(1, -1), (0, 3)])
def test_combine_without_table_reports_no_fixture(capsys, n1, n2):
    # the T-2 table divides by n1 + n2 and takes divisor sums of n1 and n2
    code, out = run_cli(capsys, "combine", "--preset", "T-2", "--n1", str(n1), "--n2", str(n2))
    assert code == EXIT_NO_FIXTURE
    assert json.loads(out)["error"] == "no_fixture"


def test_alpha_sum_command(capsys):
    code, out = run_cli(capsys, "alpha-sum", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["status"] == "exact"
    assert doc["value"] == [{"coeff": "52/146923875", "monomial": {"pi": 8}}]


def test_solve_output_bytes_deterministic(capsys):
    args = ["solve", "--alpha", "3/2", "--beta", "5/2", "--lambda", "20",
            "--n1", "2", "--n2", "3"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_assembly_bytes_do_not_depend_on_workers(capsys):
    args = ["solve", "--alpha", "3/2", "--beta", "3/2", "--lambda", "30",
            "--n", "1", "--cutoff", "3", "--no-decay"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args, "--workers", "2")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_import_loads_neither_numpy_nor_a_process_pool():
    src = str(Path(eisenmodes.__file__).resolve().parents[1])
    probe = ("import sys, eisenmodes; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('numpy', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


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
