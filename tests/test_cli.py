"""Command-line surface: formats, exit codes, atomic output."""

import errno
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from dowlab.exact import LambdaPoly
from dowlab import cli
from dowlab import stirling as st
from dowlab import whitney as wh
from dowlab.cli import latex_poly, main
from dowlab.identities import CATALOG
from dowlab.stirling import Family
from dowlab.whitney import build_triangle


def latex_poly_inverse(text: str) -> str:
    """LaTeX body -> canonical grammar, the inverse of ``latex_poly``."""
    return text.replace("\\lambda", "l")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTriangle:
    def test_symbolic_csv(self, capsys):
        code, out, _ = run(
            capsys, "triangle", "--family", "W", "--m", "2", "--n-max", "2",
            "--symbolic", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["1", "1, 1", "1 - l, 4 - l, 1"]

    def test_first_kind_rows(self, capsys):
        code, out, _ = run(capsys, "triangle", "--family", "V", "--m", "1", "--n-max", "1")
        assert code == 0
        assert out.splitlines() == ["1", "-1, 1"]

    def test_trivial_triangle(self, capsys):
        code, out, _ = run(capsys, "triangle", "--family", "W", "--m", "1", "--n-max", "0")
        assert code == 0
        assert out.splitlines() == ["1"]

    def test_numeric_lambda(self, capsys):
        code, out, _ = run(
            capsys, "triangle", "--family", "W", "--m", "2", "--n-max", "2",
            "--lambda", "1/2",
        )
        assert code == 0
        assert out.splitlines()[-1] == "1/2, 7/2, 1"

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "triangle", "--family", "Wdeg", "--m", "2", "--n-max", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "Wdeg"
        assert doc["m"] == 2
        assert doc["lambda"] == "symbolic"
        assert doc["n_max"] == 3
        from dowlab import whitney as wh

        for n, row in enumerate(doc["rows"]):
            for k, text in enumerate(row):
                assert LambdaPoly.parse(text) == wh.whitney2(2, n, k)

    def test_csv_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "triangle", "--family", "S1deg", "--n-max", "4", "--format", "csv"
        )
        assert code == 0
        from dowlab import stirling as st

        for n, line in enumerate(out.splitlines()):
            for k, cell in enumerate(line.split(", ")):
                assert LambdaPoly.parse(cell) == st.deg_stirling1(n, k)

    def test_latex_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "triangle", "--family", "W", "--m", "1", "--n-max", "2",
            "--format", "latex",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].endswith(r" \\")
        cells = lines[-1][: -len(r" \\")].split(" & ")
        from dowlab import whitney as wh

        for k, cell in enumerate(cells):
            assert LambdaPoly.parse(latex_poly_inverse(cell)) == wh.whitney2(1, 2, k)

    def test_conflicting_lambda_flags(self, capsys):
        code, _, err = run(
            capsys, "triangle", "--family", "W", "--n-max", "1",
            "--lambda", "1/2", "--symbolic",
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_bad_family(self, capsys):
        code, _, err = run(capsys, "triangle", "--family", "Q", "--n-max", "1")
        assert code == 2
        assert "unknown family" in err

    def test_negative_lambda_after_space(self, capsys):
        code, out, _ = run(
            capsys, "triangle", "--family", "W", "--m", "2", "--n-max", "2", "--lambda", "-1/2"
        )
        assert code == 0
        assert out.splitlines()[-1] == "3/2, 9/2, 1"

    def test_bad_lambda(self, capsys):
        code, _, _ = run(
            capsys, "triangle", "--family", "W", "--n-max", "1", "--lambda", "pi"
        )
        assert code == 2

    def test_atomic_out(self, capsys, tmp_path):
        target = tmp_path / "tri.csv"
        code, out, _ = run(
            capsys, "triangle", "--family", "W", "--m", "2", "--n-max", "2",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[-1] == "1 - l, 4 - l, 1"
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".dowlab-")]


class TestLatexTransform:
    def test_roundtrip(self):
        for text in ("1 - 3*l + 2*l^2", "-l", "0", "4 - l", "1/2 + 5/3*l^4"):
            rendered = latex_poly(text)
            assert "\\lambda" in rendered or "l" not in text
            assert latex_poly_inverse(rendered) == text


class TestEval:
    def test_poly_at_rational(self, capsys):
        code, out, _ = run(capsys, "eval", "--poly", "1 - 3*l + 2*l^2", "--lambda", "1/2")
        assert code == 0
        assert out.strip() == "0"

    def test_poly_symbolic_echo(self, capsys):
        code, out, _ = run(capsys, "eval", "--poly", "1-3*l+2*l^2")
        assert code == 0
        assert out.strip() == "1 - 3*l + 2*l^2"

    def test_triangle_entry(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", "Vdeg", "--m", "2", "--n", "2", "--k", "1",
            "--lambda", "0",
        )
        assert code == 0
        assert out.strip() == "-4"

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "eval", "--lambda", "1/2")
        assert code == 2
        code, _, _ = run(
            capsys, "eval", "--poly", "l", "--family", "W", "--lambda", "1/2"
        )
        assert code == 2

    def test_entry_out_of_range(self, capsys):
        code, _, _ = run(capsys, "eval", "--family", "W", "--n", "1", "--k", "2")
        assert code == 2

    def test_malformed_poly(self, capsys):
        code, _, _ = run(capsys, "eval", "--poly", "1++2")
        assert code == 2

    def test_negative_lambda_after_space(self, capsys):
        code, out, _ = run(capsys, "eval", "--poly", "1 - l", "--lambda", "-1/2")
        assert code == 0
        assert out == "3/2\n"
        code, out, _ = run(capsys, "eval", "--poly", "l", "--lambda", "-1e-3")
        assert code == 0
        assert out == "-1/1000\n"

    def test_missing_lambda_value_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "--poly", "l", "--lambda", "--symbolic")
        assert code == 2
        assert out == ""
        assert "expected one argument" in err

    def test_value_past_the_int_str_digit_limit_renders(self, capsys):
        # 10^5000 has more digits than CPython's default int -> str limit (4300)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "eval", "--poly", "l^5000", "--lambda", "10")
        assert (code, err) == (0, "")
        assert out == "1" + "0" * 5000 + "\n"
        # the triangle export renders its entries the same way: W(2, k) at
        # m = 1 is 1 - l, 3 - l, 1
        code, out, _ = run(
            capsys, "triangle", "--family", "W", "--n-max", "2", "--lambda", "1e5000"
        )
        assert code == 0
        assert out.splitlines()[2] == f"-{'9' * 5000}, -{'9' * 4999}7, 1"
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_input_is_parsed_under_the_int_str_digit_limit(self, capsys):
        code, out, err = run(capsys, "eval", "--poly", "1" * 5000, "--lambda", "1")
        assert (code, out) == (2, "")
        limit = sys.get_int_max_str_digits()
        assert err == f"error: number of more than {limit} digits in term: {'1' * 5000!r}\n"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_exponent_past_the_int_str_digit_limit(self, capsys):
        term = "l^" + "1" * 5000
        code, out, err = run(capsys, "eval", "--poly", f"1 + {term}")
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (2, "")
        assert err == f"error: number of more than {limit} digits in term: {'+' + term!r}\n"

    # the list of coefficients is refused by its size check, before any
    # allocation: a MemoryError up to sys.maxsize entries, an OverflowError past it
    @pytest.mark.parametrize("degree", ["1000000000000000000", "100000000000000000000"])
    def test_huge_exponent_is_a_usage_error(self, capsys, degree):
        code, out, err = run(capsys, "eval", "--poly", f"l^{degree}")
        assert (code, out) == (2, "")
        assert err == f"error: degree {degree} is too large for a polynomial\n"


class TestVerify:
    def test_single_identity(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--id", "lemma15", "--n-max", "10", "--seed", "7"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["id"] == "lemma15"
        assert doc["reports"][0]["status"] == "pass"

    def test_unknown_identity(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "nosuch")
        assert code == 2
        assert "unknown identity" in err

    def test_small_full_run(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-max", "2", "--m-set", "1", "--r-set", "1",
            "--seed", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["version"] == 1
        assert {r["status"] for r in doc["reports"]} <= {"pass", "paper-discrepancy"}

    def test_bad_m_set(self, capsys):
        code, _, _ = run(capsys, "verify", "--m-set", "1,x")
        assert code == 2

    def test_script_writes_the_same_report_as_the_cli(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = os.path.join(os.path.dirname(src), "scripts", "run_verification.py")

        def verify(command, out):
            return subprocess.run(
                [sys.executable, *command, "--n-max", "3", "--out", str(out)],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            )

        by_script = verify([script], tmp_path / "script.json")
        by_cli = verify(["-m", "dowlab.cli", "verify"], tmp_path / "cli.json")
        assert (by_script.returncode, by_cli.returncode) == (0, 0)
        assert (tmp_path / "script.json").read_bytes() == (tmp_path / "cli.json").read_bytes()
        # each entry line starts with its status and id; detail lines are indented
        lines = by_script.stdout.splitlines()
        printed = {line.split()[1] for line in lines if line and not line[0].isspace()}
        assert set(CATALOG) <= printed


class TestDobinski:
    def test_text_line(self, capsys):
        code, out, _ = run(
            capsys, "dobinski", "--m", "1", "--n", "1", "--x", "1",
            "--lambda", "0", "--terms", "50", "--tol", "1e-9",
        )
        assert code == 0
        assert "pass" in out

    def test_json_line(self, capsys):
        code, out, _ = run(
            capsys, "dobinski", "--m", "2", "--n", "0", "--x", "3",
            "--lambda", "0.5", "--terms", "100", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert abs(doc["truncated"] - 1.0) < 1e-9

    def test_symbolic_lambda_rejected(self, capsys):
        code, _, err = run(
            capsys, "dobinski", "--m", "1", "--n", "1", "--x", "1",
            "--lambda", "symbolic",
        )
        assert code == 2
        assert "numeric" in err

    def test_insufficient_terms_fail_exit(self, capsys):
        code, out, _ = run(
            capsys, "dobinski", "--m", "1", "--n", "6", "--x", "2",
            "--lambda", "0", "--terms", "2", "--tol", "1e-9",
        )
        assert code == 1
        assert "fail" in out

    def test_large_x_passes(self, capsys):
        code, out, _ = run(
            capsys, "dobinski", "--m", "1", "--n", "3", "--x", "900",
            "--lambda", "0", "--terms", "2600",
        )
        assert code == 0
        assert out.endswith(" pass\n")

    @pytest.mark.xfail(
        strict=True,
        reason="pass/fail compares two rounded doubles: an exact value halfway "
        "between two doubles fails however many terms are summed",
    )
    def test_halfway_value_passes(self, capsys):
        code, out, _ = run(
            capsys, "dobinski", "--m", "1", "--n", "8", "--x", "101",
            "--lambda", "0", "--terms", "375",
        )
        assert code == 0, out

    def test_float_overflow_exits_2(self, capsys):
        # The Dowling value is about 1e320; the CLI reports the
        # OverflowError on stderr instead of raising it.
        code, out, err = run(
            capsys, "dobinski", "--m", "1", "--n", "40", "--x", "100000000",
            "--lambda", "0", "--terms", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_negative_values_after_space(self, capsys):
        joined = run(
            capsys, "dobinski", "--m", "1", "--n", "3", "--x=-5/2", "--lambda=-1/2",
            "--terms", "200",
        )
        spaced = run(
            capsys, "dobinski", "--m", "1", "--n", "3", "--x", "-5/2", "--lambda", "-1/2",
            "--terms", "200",
        )
        assert spaced == joined
        assert spaced[0] == 0
        assert spaced[1].endswith(" pass\n")
        code, out, _ = run(
            capsys, "dobinski", "--m", "2", "--n", "2", "--x", "-1e1", "--lambda", "0",
            "--terms", "200",
        )
        assert code == 0
        assert out.endswith(" pass\n")

    def test_non_rational_negative_value(self, capsys):
        code, out, err = run(
            capsys, "dobinski", "--m", "1", "--n", "3", "--x", "-inf", "--lambda", "0"
        )
        assert code == 2
        assert out == ""
        assert "--x must be a rational" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tol):
        code, out, err = run(
            capsys, "dobinski", "--m", "1", "--n", "6", "--x", "2",
            "--lambda", "0", "--terms", "2", "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert "--tol" in err

    @pytest.mark.parametrize("tol", ["-1e-9", "-inf"])
    def test_negative_tolerance_after_space(self, capsys, tol):
        code, out, err = run(
            capsys, "dobinski", "--m", "1", "--n", "3", "--x", "1", "--lambda", "0",
            "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert err == "error: --tol must be positive and finite\n"

    def test_tolerance_after_equals_sign_is_unchanged(self, capsys):
        joined = run(capsys, "dobinski", "--m", "1", "--n", "3", "--x", "1", "--lambda", "0",
                     "--tol=1e-9")
        spaced = run(capsys, "dobinski", "--m", "1", "--n", "3", "--x", "1", "--lambda", "0",
                     "--tol", "1e-9")
        line = "truncated=15.0 exact=15.0 diff=0.000e+00 tol=1e-09 pass\n"
        assert joined == spaced == (0, line, "")


fuzz_x = st_.one_of(
    st_.tuples(st_.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4),
               st_.integers(min_value=1, max_value=3000)),
    st_.tuples(st_.integers(min_value=-10**30, max_value=10**30).map(Fraction), st_.just(1)),
)


@settings(deadline=None, max_examples=80)
@given(
    st_.integers(min_value=0, max_value=3),
    st_.integers(min_value=-1, max_value=10),
    fuzz_x,
    st_.fractions(max_denominator=10**6),
    st_.one_of(st_.floats(min_value=0, exclude_min=True, allow_infinity=False), st_.floats()),
)
def test_dobinski_fuzz_exit_codes(m, n, x_terms, lam, tol):
    x, terms = x_terms
    argv = [
        "dobinski", f"--m={m}", f"--n={n}", f"--x={x}", f"--lambda={lam}",
        f"--terms={terms}", f"--tol={tol!r}",
    ]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    else:
        assert out.getvalue().endswith(" pass\n" if code == 0 else " fail\n")


def test_usage_error_without_subcommand(capsys):
    assert main([]) == 2


def test_unknown_flag(capsys):
    assert main(["triangle", "--family", "W", "--n-max", "1", "--bogus"]) == 2


UNKNOWN_Q = (
    "error: unknown family 'Q'; choose one of: S1, S2, S1deg, S2deg, S1degR, S2degR, "
    "Wdeg, Vdeg, WdegR, VdegR, W, V, WR, VR"
)
NOT_RATIONAL = "error: {} must be a rational like 3 or -1/4, got {!r}"

# Calls with two or more bad arguments, and the one error each reports.  An
# error of the CLI's own is the whole of stderr; an argparse error is the
# last line, after the usage lines, up to the list of choices, whose quoting
# differs between Python releases.
PRECEDENCE = [
    ("triangle --family Q --n-max -1", UNKNOWN_Q),
    ("triangle --family Q --n-max 1 --lambda x --symbolic", UNKNOWN_Q),
    ("triangle --family W --n-max -1 --lambda 1 --symbolic", "error: --n-max must be >= 0"),
    ("triangle --family W --n-max -1 --lambda x", "error: --n-max must be >= 0"),
    ("triangle --family W --n-max 1 --lambda x --symbolic",
     "error: --lambda and --symbolic are mutually exclusive"),
    ("triangle --family W --m 0 --n-max 1 --lambda x", NOT_RATIONAL.format("--lambda", "x")),
    ("triangle --family W --m 0 --r -1 --n-max 1", "error: m must be a positive integer, got 0"),
    ("triangle --family Q --n-max -1 --format xml",
     "dowlab triangle: error: argument --format: invalid choice: 'xml'"),
    ("triangle --family Q --n-max x",
     "dowlab triangle: error: argument --n-max: invalid int value: 'x'"),
    ("eval --poly l --family Q --lambda x", "error: eval needs exactly one of --poly or --family"),
    ("eval --family Q --lambda 1 --symbolic", UNKNOWN_Q),
    ("eval --family W --lambda x --symbolic",
     "error: --lambda and --symbolic are mutually exclusive"),
    ("eval --poly 1++2 --lambda x", NOT_RATIONAL.format("--lambda", "x")),
    ("eval --poly 1++2 --lambda 1 --symbolic",
     "error: --lambda and --symbolic are mutually exclusive"),
    ("eval --family W --m 0 --n 1 --k 5 --lambda x", NOT_RATIONAL.format("--lambda", "x")),
    ("eval --family W --m 0 --n 1 --k 5", "error: m must be a positive integer, got 0"),
    ("eval --family W --n -1 --k 5 --lambda 1/2", "error: (-1, 5) outside triangle of size 0"),
    ("eval --family Q --n x", "dowlab eval: error: argument --n: invalid int value: 'x'"),
    ("verify --n-max -1 --m-set a",
     "error: --m-set must be a comma-separated integer list, got 'a'"),
    ("verify --m-set 1 --r-set a --n-max -1",
     "error: --r-set must be a comma-separated integer list, got 'a'"),
    ("verify --m-set a --r-set b",
     "error: --m-set must be a comma-separated integer list, got 'a'"),
    ("verify --n-max -1 --id nosuch", "error: --n-max must be >= 0"),
    ("verify --m-set 0 --id nosuch", "error: unknown identity id 'nosuch'"),
    ("verify --n-max x --m-set a",
     "dowlab verify: error: argument --n-max: invalid int value: 'x'"),
    ("dobinski --m 1 --n 1 --x 1 --lambda 1/0 --terms 0", NOT_RATIONAL.format("--lambda", "1/0")),
    ("dobinski --m 1 --n 1 --x 1 --lambda 0 --terms 0 --tol -1", "error: --terms must be >= 1"),
    ("dobinski --m 1 --n 1 --x y --lambda symbolic --terms 0", NOT_RATIONAL.format("--x", "y")),
    ("dobinski --m 1 --n 1 --x 1 --lambda symbolic --terms 0",
     "error: dobinski needs a numeric --lambda"),
    ("dobinski --m 0 --n -1 --x 1 --lambda 0 --tol -1",
     "error: --tol must be positive and finite"),
    ("dobinski --m 0 --n -1 --x 1 --lambda 0", "error: m must be a positive integer"),
    ("dobinski --m 1 --n -1 --x 1/0 --lambda 0 --tol x",
     "dowlab dobinski: error: argument --tol: invalid float value: 'x'"),
]


@pytest.mark.parametrize("argv, error", PRECEDENCE)
def test_error_precedence(capsys, argv, error):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    if error.startswith("error: "):
        assert err == error + "\n"
    else:
        assert err.splitlines()[-1].startswith(error)


# One short run of every command that can write --out.
OUT_COMMANDS = {
    "triangle": ["triangle", "--family", "W", "--m", "3", "--n-max", "2"],
    "verify": ["verify", "--id", "eq17", "--n-max", "3"],
    "dobinski": ["dobinski", "--m", "1", "--n", "2", "--x", "3", "--lambda", "0"],
}


class TestUnwritableOut:
    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_missing_directory_exits_2(self, capsys, tmp_path, command):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, *OUT_COMMANDS[command], "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --out ")
        assert "Traceback" not in err
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_directory_target_leaves_no_temp_file(self, capsys, tmp_path, command):
        # the temp file is made, then the rename onto a directory fails
        target = tmp_path / "adir"
        target.mkdir()
        code, out, err = run(capsys, *OUT_COMMANDS[command], "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --out ")
        assert [p.name for p in tmp_path.rglob("*")] == ["adir"]


class TestParserReuse:
    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        builds = []
        build = cli._build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "_build_parser", counting)
        for argv in (*OUT_COMMANDS.values(), ["triangle"], ["eval", "--poly", "1 - l"]):
            main(argv)
        capsys.readouterr()
        assert len(builds) == 1

    def test_reuse_after_usage_error_and_help_matches_a_fresh_process(
        self, capfd, monkeypatch
    ):
        # a usage error (exit 2) and --help (exit 0) leave the parser as built,
        # so every call prints what the same call prints in a new interpreter
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(cli, "_parser", None)
        calls = [
            ["dobinski", "--m", "1", "--n", "2", "--x", "-5/2", "--lambda", "1/3"],
            ["dobinski", "--m", "1", "--bogus"],
            ["dobinski", "--help"],
            ["dobinski", "--m", "1", "--n", "2", "--x", "-5/2", "--lambda", "1/3"],
            ["triangle", "--family", "W", "--n-max", "1"],
            ["--help"],
            ["triangle", "--family", "W", "--n-max", "1"],
            ["dobinski", "--m", "1", "--bogus"],
        ]
        in_process = []
        for argv in calls:
            code = main(argv)
            captured = capfd.readouterr()
            in_process.append((code, captured.out, captured.err))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
        fresh = {}
        for argv in map(tuple, calls):
            if argv not in fresh:
                done = subprocess.run(
                    [sys.executable, "-m", "dowlab.cli", *argv],
                    capture_output=True, text=True, env=env,
                )
                fresh[argv] = (done.returncode, done.stdout, done.stderr)
        assert [c[0] for c in in_process] == [0, 2, 0, 0, 0, 0, 0, 2]
        assert in_process == [fresh[tuple(argv)] for argv in calls]


def joined_export(family, m, r, n_max, lam, fmt) -> str:
    """The export as one string, rendered as it was before the export was
    streamed: every entry string, then every row, then the joined document."""
    triangle = build_triangle(family, m, r, n_max)
    rows = []
    for n in range(n_max + 1):
        row = []
        for k in range(n + 1):
            value = triangle.value(n, k)
            row.append(str(value) if lam is None else str(value.eval(Fraction(lam))))
        rows.append(row)
    if fmt == "csv":
        return "\n".join(", ".join(row) for row in rows) + "\n"
    if fmt == "latex":
        return "\n".join(" & ".join(latex_poly(e) for e in row) + r" \\" for row in rows) + "\n"
    document = {
        "family": Family(family).value,
        "m": m,
        "r": r,
        "lambda": "symbolic" if lam is None else str(Fraction(lam)),
        "n_max": n_max,
        "rows": rows,
    }
    return json.dumps(document, indent=2) + "\n"


def triangle_argv(family, m, r, n_max, lam, fmt) -> list[str]:
    argv = ["triangle", "--family", family, "--m", str(m), "--r", str(r),
            "--n-max", str(n_max), "--format", fmt]
    return argv + (["--symbolic"] if lam is None else ["--lambda", lam])


class TestStreamedExport:
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    @pytest.mark.parametrize("family", [f.value for f in Family])
    def test_same_bytes_as_the_joined_document(self, capsys, family, fmt):
        for lam, n_max in itertools.product((None, "0", "1/2", "-3/7", "5"), (0, 1, 6)):
            args = (family, 3, 2, n_max, lam, fmt)
            code, out, err = run(capsys, *triangle_argv(*args))
            assert (code, err) == (0, "")
            assert out == joined_export(*args), args

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_memory_is_the_held_triangle_plus_about_one_row(self, capsys, tmp_path, fmt):
        args = ("Wdeg", 3, 1, 60, None, fmt)
        target = tmp_path / f"w.{fmt}"
        main(triangle_argv(*args[:3], 1, None, fmt))  # imports and the parser, untraced
        triangle = build_triangle(*args[:4])  # the row store holds it from here on
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main([*triangle_argv(*args), "--out", str(target)]) == 0
            added = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        longest_row = max(len(", ".join(map(str, row))) for row in triangle.rows)
        # one row's entry strings, its text and its encoded bytes: a few
        # copies of one row, where the whole document is 15 rows long
        assert target.stat().st_size > 15 * longest_row
        assert added < 8 * longest_row

    @staticmethod
    def fail_at_call(monkeypatch, calls: int) -> None:
        """Make the ``calls``-th ``str`` of a LambdaPoly raise, as CPython's
        limit on the digits of ``str(int)`` does."""
        seen = itertools.count(1)
        to_str = LambdaPoly.__str__

        def failing(self):
            if next(seen) == calls:
                raise ValueError("Exceeds the limit for integer string conversion")
            return to_str(self)

        monkeypatch.setattr(LambdaPoly, "__str__", failing)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_failure_mid_stream_leaves_out_untouched(self, capsys, monkeypatch, tmp_path, fmt):
        target = tmp_path / "tri.txt"
        target.write_text("kept\n")
        self.fail_at_call(monkeypatch, 200)  # in row 19 of 31
        code, out, err = run(
            capsys, *triangle_argv("W", 3, 1, 30, None, fmt), "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err == "error: Exceeds the limit for integer string conversion\n"
        assert target.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["tri.txt"]

    def test_failure_mid_stream_leaves_a_prefix_on_stdout(self, capsys, monkeypatch):
        argv = triangle_argv("W", 3, 1, 30, None, "csv")
        whole = joined_export("Wdeg", 3, 1, 30, None, "csv")
        self.fail_at_call(monkeypatch, 200)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ")
        assert whole.startswith(out) and 0 < len(out) < len(whole)

    def test_argument_errors_come_before_the_output_is_opened(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(
            capsys, "triangle", "--family", "W", "--m", "0", "--n-max", "3", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err == "error: m must be a positive integer, got 0\n"


# Every row store; an export or an entry evaluation must leave each one empty.
ROW_STORES = (
    st._stirling1_rows, st._stirling2_rows, st.deg_stirling1_rows, st.deg_r_stirling2_rows,
    st.deg_r_stirling1_unsigned_rows, wh.whitney2_rows, wh.whitney1_rows, wh.r_whitney2_rows,
    wh.r_whitney1_rows,
)


class TestExportFillsNoStore:
    def test_memory_is_about_one_row_without_a_held_triangle(self, capsys, tmp_path):
        target = tmp_path / "w.csv"
        main(triangle_argv("Wdeg", 3, 1, 1, None, "csv"))  # imports and the parser, untraced
        wh.whitney2_rows.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main([*triangle_argv("Wdeg", 3, 1, 60, None, "csv"), "--out", str(target)]) == 0
            added = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        longest_row = max(map(len, target.read_text().splitlines()))
        # the rows being combined, one row's strings, its text and its bytes;
        # the triangle in a row store would be about 20 rows
        assert added < 8 * longest_row
        assert wh.whitney2_rows.cache_info().currsize == 0

    @pytest.mark.parametrize("command", ["triangle", "eval"])
    @pytest.mark.parametrize("family", [f.value for f in Family])
    def test_every_store_stays_empty(self, capsys, family, command):
        for store in ROW_STORES:
            store.cache_clear()
        if command == "triangle":
            argv = triangle_argv(family, 3, 2, 12, None, "csv")
        else:
            argv = ["eval", "--family", family, "--m", "3", "--r", "2", "--n", "12", "--k", "5"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out
        assert [store.cache_info().currsize for store in ROW_STORES] == [0] * len(ROW_STORES)


class FailingStdout:
    """A stdout whose every write raises ``error``."""

    def __init__(self, error: OSError) -> None:
        self.error = error

    def write(self, text: str) -> int:
        raise self.error

    def flush(self) -> None:
        pass


STDOUT_ERRORS = {
    "EPIPE": BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
    "ENOSPC": OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
}


def run_cli(argv, **kwargs) -> subprocess.Popen:
    # block-buffered stdout, the default, so a write can fail only at a flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.Popen(
        [sys.executable, "-m", "dowlab.cli", *argv], env=env, stderr=subprocess.PIPE,
        **kwargs,
    )


class TestUnwritableStdout:
    @pytest.mark.parametrize("error", sorted(STDOUT_ERRORS))
    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_write_error_exits_2(self, monkeypatch, capsys, command, error):
        exc = STDOUT_ERRORS[error]
        monkeypatch.setattr(sys, "stdout", FailingStdout(exc))
        assert main(OUT_COMMANDS[command]) == 2
        assert capsys.readouterr().err == f"error: cannot write stdout: {exc.strerror}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_full_device(self, command):
        with open("/dev/full", "w") as full:
            proc = run_cli(OUT_COMMANDS[command], stdout=full)
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err.decode() == "error: cannot write stdout: No space left on device\n"

    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_pipe_closed_before_the_first_write(self, command):
        # the output fits in stdout's buffer, so the write fails only when it
        # is flushed, and the buffer still holds it at exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cli(OUT_COMMANDS[command], stdout=write_end)
        finally:
            os.close(write_end)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err.decode() == "error: cannot write stdout: Broken pipe\n"

    def test_pipe_closed_after_the_first_read(self):
        # 7.5 MB of output: far more than a pipe buffers, so the writer is
        # still writing when the reader goes away
        argv = ["triangle", "--family", "W", "--m", "3", "--n-max", "80"]
        with run_cli(argv, stdout=subprocess.PIPE) as proc:
            assert proc.stdout.read(20) == b"1\n1, 1\n1 - l, 5 - l,"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 2
        assert err == "error: cannot write stdout: Broken pipe\n"


class TestOutMode:
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_out_gets_the_mode_of_a_new_file(self, capsys, tmp_path, command, umask):
        old = os.umask(umask)
        try:
            code, _, _ = run(capsys, *OUT_COMMANDS[command], "--out", str(tmp_path / "x"))
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            os.umask(old)
        assert code == 0
        mode = (tmp_path / "x").stat().st_mode & 0o777
        assert mode == 0o666 & ~umask == (tmp_path / "plain").stat().st_mode & 0o777
