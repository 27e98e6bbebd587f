"""Command-line surface: formats, exit codes, atomic output."""

import errno
import io
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from dowlab.exact import CACHES, LambdaPoly
from dowlab import cli
from dowlab import identities as idn
from dowlab import stirling as st
from dowlab import whitney as wh
from dowlab.cli import latex_poly, main
from dowlab.identities import CATALOG
from dowlab.families import Family
from dowlab.whitney import build_triangle


def latex_poly_inverse(text: str) -> str:
    """LaTeX body -> canonical grammar, the inverse of ``latex_poly``."""
    return text.replace("\\lambda", "l")


class Terminal(io.StringIO):
    """A captured stream that reports itself as a terminal."""

    def isatty(self) -> bool:
        return True


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

    @pytest.mark.parametrize("r_whitney, stirling", [
        ("WR", (["--family", "S2degR", "--r", "0"], ["--family", "S2deg"])),
        ("VR", (["--family", "S1deg"],)),
    ], ids=("WR", "VR"))
    def test_r_whitney_at_m_1_r_0_is_the_degenerate_stirling_triangle(
        self, capsys, r_whitney, stirling
    ):
        # r = 0 is in the one domain of every (m, r) reader, and there the
        # kernels' m = 1 triangles are the degenerate Stirling ones
        code, out, err = run(capsys, "triangle", "--family", r_whitney, "--m", "1", "--r", "0",
                             "--n-max", "12")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 13
        for argv in stirling:
            assert run(capsys, "triangle", *argv, "--n-max", "12") == (0, out, "")

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

    @pytest.mark.parametrize("mode", (["--symbolic"], ["--lambda", "1/2"]))
    @pytest.mark.parametrize("family", [f.value for f in Family])
    def test_family_entry_is_the_export_entry(self, capsys, family, mode):
        args = ["--family", family, "--m", "3", "--r", "2", *mode]
        code, out, err = run(capsys, "triangle", *args, "--n-max", "6", "--format", "json")
        assert (code, err) == (0, "")
        expected = json.loads(out)["rows"][6][3]
        code, out, err = run(capsys, "eval", *args, "--n", "6", "--k", "3")
        assert (code, out, err) == (0, expected + "\n", "")

    def test_family_entry_holds_about_one_row(self, capsys):
        argv = ["eval", "--family", "W", "--m", "3", "--n", "60", "--k", "3"]
        main([*argv[:5], "--n", "1", "--k", "0"])  # imports and the parser, untraced
        longest_row = max(len(", ".join(map(str, row))) for row in build_triangle("Wdeg", 3, 1, 60))
        capsys.readouterr()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            added = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the row step holds the row it extends and the one it builds; all
        # 61 rows take about 16 times the longest row's text
        assert added < 4 * longest_row

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

    # Fraction would build 10^|e| for any exponent e: an exponent past the
    # bound is refused before it parses, so each run exits at once, not hangs
    @pytest.mark.parametrize("option, text, argv", [
        ("--lambda", "1e100000000000", ["eval", "--poly", "l"]),
        ("--x", "1e-100000000000", ["dobinski", "--m", "1", "--n", "1", "--lambda", "0"]),
    ], ids=["lambda", "x"])
    def test_huge_decimal_exponent_is_a_usage_error(self, option, text, argv):
        done = subprocess.run(
            [sys.executable, "-m", "dowlab.cli", *argv, option, text],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        )
        limit = 10 * getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        assert (done.returncode, done.stdout) == (2, "")
        want = f"error: {option} must have a decimal exponent of at most {limit}, got {text!r}\n"
        assert done.stderr == want

    def test_decimal_exponent_under_the_bound_evaluates(self, capsys):
        code, out, err = run(capsys, "eval", "--poly", "l", "--lambda", "1e4000")
        assert (code, err) == (0, "")
        assert out == "1" + "0" * 4000 + "\n"

    # a degree past exact.MAX_DEGREE is refused before the list of coefficients
    # is made, 10^7 (README's case) as much as one past sys.maxsize
    @pytest.mark.parametrize("degree", ["10000000", "1000000000000000000", "100000000000000000000"])
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

    @pytest.mark.parametrize("option", ("--m-set", "--r-set"))
    def test_empty_set_is_a_usage_error(self, capsys, option):
        code, out, err = run(capsys, "verify", option, "")
        assert (code, out) == (2, "")
        assert err == f"error: {option} must be a comma-separated integer list, got ''\n"

    @pytest.mark.parametrize("refused", (("--r-set", "-5"), ("--m-set", "1,x"), ("--m-set", "1,1")))
    def test_a_refused_catalog_run_writes_no_out(self, capsys, tmp_path, refused):
        target = tmp_path / "refused.json"
        code, out, err = run(capsys, "verify", "--n-max", "3", *refused, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_terminal_stderr_gets_a_line_per_entry(self, capsys, monkeypatch):
        argv = ("verify", "--n-max", "2", "--m-set", "1", "--r-set", "1")
        code, plain, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        monkeypatch.setattr(sys, "stderr", Terminal())
        assert run(capsys, *argv) == (0, plain, "")
        lines = sys.stderr.getvalue().splitlines()
        # each entry line starts with its status and id, in catalog order; a
        # probe's finding follows it, indented; then a blank line and the total
        reports = json.loads(plain)["reports"]
        assert [report["id"] for report in reports] == list(CATALOG)
        entries = [line.split()[:2] for line in lines[:-2] if not line.startswith(" ")]
        assert entries == [[report["status"], report["id"]] for report in reports]
        probe = next(report for report in reports if report["status"] == "paper-discrepancy")
        at = next(i for i, line in enumerate(lines) if line.split()[1:2] == [probe["id"]])
        assert lines[at + 1] == f"{'':18s} finding: {probe['finding']}"
        assert lines[-2] == ""
        assert re.fullmatch(rf"{len(CATALOG)} identities in \d+\.\ds -> stdout", lines[-1])

    def test_terminal_stderr_gets_the_counterexample(self, capsys, monkeypatch, tmp_path):
        failing = idn.IdentityCheck(lambda params: (3, {"n": 2, "k": 1}, None))
        monkeypatch.setitem(idn.CATALOG, "eq17", failing)
        monkeypatch.setattr(sys, "stderr", Terminal())
        target = tmp_path / "v.json"
        code, out, _ = run(capsys, "verify", "--id", "eq17", "--out", str(target))
        assert (code, out) == (1, "")
        assert json.loads(target.read_text())["reports"][0]["status"] == "fail"
        lines = sys.stderr.getvalue().splitlines()
        assert re.fullmatch(r"fail {15}eq17 {21}\(3 points, \d+\.\d{3}s\)", lines[0])
        assert lines[1:3] == [f"{'':18s} counterexample: " + '{"n": 2, "k": 1}', ""]
        assert re.fullmatch(rf"1 identities in \d+\.\ds -> {re.escape(str(target))}", lines[3])


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

    def test_halfway_value_passes(self, capsys):
        # the exact value 15207217719539247 lies halfway between two doubles, and
        # the truncated sum a hair below it: the two doubles differ by 2, the sides
        # by about 2.6e-76, and the verdict is read from the exact difference
        code, out, _ = run(
            capsys, "dobinski", "--m", "1", "--n", "8", "--x", "101",
            "--lambda", "0", "--terms", "375",
        )
        assert code == 0, out
        assert out.startswith("truncated=1.5207217719539246e+16 exact=1.5207217719539248e+16 ")
        assert out.endswith(" pass\n")

    @pytest.mark.parametrize(
        "n, x, lam, terms, size",
        [
            ("3", "-1", "0", "10", "9.970e-4"),
            # F(10) = 0: a zero term prints as 0, not with the exponent of its digits
            ("3", "5", "11/2", "10", "0.000e+00"),
            # T far below the peak of the terms near |z|: a tiny term, a diff of 1e9
            ("3", "1000", "0", "10", "1.862e-408"),
        ],
        ids=["too-few-terms", "zero-term", "before-the-peak"],
    )
    def test_a_fail_notes_the_first_omitted_term(self, capsys, n, x, lam, terms, size):
        argv = ["dobinski", "--m", "1", "--n", n, "--x", x, "--lambda", lam, "--terms", terms]
        code, out, err = run(capsys, *argv)
        assert (code, out[-5:]) == (1, "fail\n")
        assert err == (
            f"note: the first omitted term e^-z z^T/T! F(T), at T = {terms}, has size {size},"
            " and the tail from T on is at least --tol: more --terms are needed\n"
        )
        # the JSON form fails alike and writes the same note
        code, out, err_json = run(capsys, *argv, "--format", "json")
        assert (code, json.loads(out)["status"], err_json) == (1, "fail", err)

    def test_a_pass_writes_nothing_to_stderr(self, capsys):
        argv = ["dobinski", "--m", "1", "--n", "3", "--x", "-1", "--lambda", "0", "--terms", "60"]
        assert run(capsys, *argv)[::2] == (0, "")

    def test_float_overflow_exits_2(self, capsys):
        # The Dowling value is about 1e320; the CLI reports the
        # OverflowError on stderr instead of raising it, and names that side.
        code, out, err = run(
            capsys, "dobinski", "--m", "1", "--n", "40", "--x", "100000000",
            "--lambda", "0", "--terms", "1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: Dowling value 1.000008e+320 is outside double range\n"

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

    # a polynomial such as -l (how str prints -lambda) and an integer set may
    # start with a minus too
    @pytest.mark.parametrize(
        "command, option, value, expected",
        [
            ("eval", "--poly", "-l", (0, "-l\n", "")),
            ("verify", "--m-set", "-1,2", (2, "", "error: m must be a positive integer, got -1\n")),
            ("verify", "--r-set", "-1,2", (2, "", "error: r must be an integer >= 0, got -1\n")),
        ],
    )
    def test_signed_value_after_space(self, capsys, command, option, value, expected):
        joined = run(capsys, command, f"{option}={value}")
        spaced = run(capsys, command, option, value)
        assert spaced == joined == expected

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
        line = "truncated=15.0 exact=15.0 diff=1.501e-58 tol=1e-09 pass\n"
        assert joined == spaced == (0, line, "")


# The exit contract, by property, for every command: whole argument vectors
# drawn from a small grammar.  Each option is absent, well-formed, malformed,
# huge, negative, bool text or repeated, and is written as --opt=value or as
# --opt value.  The well-formed sizes stay small (--n-max <= 12, --terms <=
# 400), so one example takes milliseconds; HUGE is past sys.maxsize, where
# every count is refused, since a count below it may run until memory runs out.
HUGE = "99999999999999999999"


def _option(well, malformed=(), huge=(), negative=()) -> dict:
    """An option's values by form: ``well`` a strategy of well-formed ones,
    each other form a list."""
    bad = {"malformed": malformed, "huge": huge, "negative": negative, "bool": ("True", "false")}
    return {"well": well, **{form: list(values) for form, values in bad.items() if values}}


def _count(top: int, least: int = 0) -> dict:
    return _option(st_.integers(least, top).map(str), ["x", "1.5", "", "0x10"], [HUGE],
                   ["-1", "-7"] if least == 0 else ["-1", "0"])


def _rational(well) -> dict:
    return _option(well, ["x", "1/0", "1//2", "nan", "inf", "1e100000000000"], ["1e4000", HUGE],
                   ["-5/2", "-1e3"])


_FAMILIES = [family.value for family in Family] + list(cli.FAMILY_ALIASES)
_SETS = {"malformed": ["a", "1,1", "", "1,,2", "1;2"], "huge": [HUGE]}
_ENTRY = {
    "--m": _count(4, least=1),
    "--r": _count(3),
    "--lambda": _rational(st_.sampled_from(["0", "1/2", "-1/3", "2", "1e-3", "-2.5"])),
    "--symbolic": _option(st_.none()),  # a flag
}
GRAMMAR = {
    "triangle": {
        **_ENTRY,
        "--family": _option(st_.sampled_from(_FAMILIES), ["Q", "w", ""], ["W" * 5000]),
        "--n-max": _count(12),
        "--format": _option(st_.sampled_from(cli.FORMATS), ["xml", ""]),
    },
    "eval": {
        **_ENTRY,
        "--poly": _option(st_.sampled_from(["1 - l", "l", "3/2*l^2 - 1", "0"]),
                          ["1++2", "l^", "x", "", "1/0*l"], [f"l^{HUGE}", f"{HUGE}*l"],
                          ["-l", "-1/2"]),
        "--family": _option(st_.sampled_from(_FAMILIES), ["Q", ""]),
        "--n": _count(12),
        "--k": _count(12),
    },
    "verify": {
        "--id": _option(st_.sampled_from(sorted(CATALOG)), ["nosuch", ""]),
        "--n-max": _count(12),
        "--m-set": _option(st_.sampled_from(["1", "1,2", "2,3", "1,5"]), **_SETS,
                           negative=["-1", "1,-2", "0"]),
        "--r-set": _option(st_.sampled_from(["0", "1", "0,2", "1,2,3"]), **_SETS,
                           negative=["-1", "0,-2"]),
        "--seed": _count(99),
    },
    "dobinski": {
        "--m": _count(3),
        "--n": _count(10),
        "--x": _rational(st_.one_of(
            st_.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4).map(str),
            st_.integers(-10**30, 10**30).map(str),
        )),
        "--lambda": _rational(st_.fractions(max_denominator=10**6).map(str)),
        "--terms": _count(400, least=1),
        "--tol": _option(st_.floats(min_value=0, exclude_min=True, allow_infinity=False).map(repr),
                         ["x", "nan", "inf", "0"], ["1e400"], ["-1", "-1e-9"]),
        "--format": _option(st_.sampled_from(["text", "json"]), ["csv"]),
    },
}
# --out, in a directory that exists or in one that does not (never bool
# text: that would write a file named True where the tests run)
OUT_OPTION = {"well": st_.just("{dir}/out.txt"), "malformed": ["{dir}/missing/out.txt"]}
# the options a command cannot run without
REQUIRED = {"triangle": {"--family", "--n-max"}, "dobinski": {"--m", "--n", "--x", "--lambda"}}
# what may show that a message is the interpreter's, not the CLI's
INTERNALS = re.compile(
    r"Traceback|File \"|\w\(\)|Fraction\(|Decimal\(|<\w|NoneType|object|too large to convert"
    r"|too large for a float|Exceeds the limit|invalid literal|unsupported operand"
    r"|division by zero|not supported between|maximum recursion|index-sized"
)


class Hang(BaseException):
    """Raised by the alarm in a command that runs too long; no handler of the
    CLI catches it."""


def _on_alarm(signum, frame):
    raise Hang


def check_exit_contract(argv: list[str], directory) -> None:
    """Run ``argv``, with ``{dir}`` read as ``directory``, under a 20 s alarm,
    and check the exit contract: exit 0, 1 or 2; on exit 2 an empty stdout
    and one error: line on stderr, the last (argparse writes its usage lines
    before it), that shows no Python internal; on exit 0 or 1 no error: line,
    and the verdict of a dobinski on stdout."""
    argv = [arg.replace("{dir}", str(directory)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 20)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if "error: " in line]
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert len(errors) == 1 and errors[0] == lines[-1], argv
        if not re.match(r"dowlab( \w+)?: error: ", lines[-1]):  # not argparse's: the CLI's own
            assert lines == errors and errors[0].startswith("error: "), argv
        assert not INTERNALS.search(errors[0]), (argv, errors[0])
        return
    assert errors == [], argv
    assert code == 0 or argv[0] in ("verify", "dobinski"), argv
    if argv[0] == "dobinski" and not any(arg.startswith("--out") for arg in argv):
        assert ("pass" if code == 0 else "fail") in out.getvalue(), argv


@st_.composite
def argv_vectors(draw) -> list[str]:
    """A whole argument vector: a command, then its options in some order.
    At most two options are bad (absent where required, or in a form other
    than well-formed); every other one is well-formed, repeated or, unless
    required, absent.  Each value is in the = or the space form."""
    command = draw(st_.sampled_from(sorted(GRAMMAR)))
    options = {**GRAMMAR[command], "--out": OUT_OPTION}
    names = sorted(options)
    bad = draw(st_.lists(st_.sampled_from(names), max_size=2, unique=True))
    argv = [command]
    for option in draw(st_.permutations(names)):
        forms = options[option]
        required = option in REQUIRED.get(command, ())
        if option in bad:
            choices = [form for form in forms if form != "well"] + ["absent"] * required
        else:
            choices = ["well", "repeated"] + ["absent"] * (not required)
        form = draw(st_.sampled_from(choices))
        if form == "absent":
            continue
        if form in ("well", "repeated"):
            values = [draw(forms["well"]) for _ in range(1 + (form == "repeated"))]
        else:
            values = [draw(st_.sampled_from(forms[form]))]
        for value in values:
            if value is None:  # a flag
                argv.append(option)
            elif draw(st_.booleans()):
                argv.append(f"{option}={value}")
            else:
                argv += [option, value]
    return argv


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


needs_alarm = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs setitimer")


@needs_alarm
@settings(deadline=None, max_examples=2 * settings.default.max_examples)
@given(argv=argv_vectors())
def test_every_command_keeps_the_exit_contract(argv, contract_dir):
    # twice the profile's examples: 200 in tier-1, more under explore
    check_exit_contract(argv, contract_dir)


# A well-formed call of each command, as its options; the test below swaps
# one option at a time for each of its bad values (eval's --poly replaces
# its --family, since eval takes exactly one of them).
BASE = {
    "triangle": {"--family": "W", "--n-max": "3"},
    "eval": {"--family": "W", "--n": "3", "--k": "1"},
    "verify": {"--id": "eq17", "--n-max": "3"},
    "dobinski": {"--m": "1", "--n": "3", "--x": "1/2", "--lambda": "1/4", "--terms": "60"},
}


@needs_alarm
def test_each_bad_value_alone_keeps_the_exit_contract(contract_dir):
    # every bad value of the grammar, each in an otherwise well-formed call,
    # which a few hundred random draws cannot all reach
    calls = 0
    for command, base in BASE.items():
        for option, forms in {**GRAMMAR[command], "--out": OUT_OPTION}.items():
            dropped = {option, "--family" if option == "--poly" else option}
            head = [command, *itertools.chain.from_iterable(
                (name, value) for name, value in base.items() if name not in dropped
            )]
            bad = [value for form, values in forms.items() if form != "well" for value in values]
            argvs = [[*head, f"{option}={value}"] for value in bad]
            if option in base:
                argvs.append(head)  # the option absent
            for argv in argvs:
                check_exit_contract(argv, contract_dir)
                calls += 1
    assert calls >= 200


def test_usage_error_without_subcommand(capsys):
    assert main([]) == 2


def test_unknown_flag(capsys):
    assert main(["triangle", "--family", "W", "--n-max", "1", "--bogus"]) == 2


UNKNOWN_Q = (
    "error: unknown family 'Q'; choose one of: S1, S2, S1deg, S2deg, S1degR, S2degR, "
    "Wdeg, Vdeg, WdegR, VdegR, W, V, WR, VR"
)
NOT_RATIONAL = "error: {} must be a rational like 3 or -1/4, got {!r}"

# Calls with two or more bad arguments, and the one error each reports, and
# the refusals of a whole catalog run.  An error of the CLI's own is the whole
# of stderr; an argparse error is the last line, after the usage lines, up to
# the list of choices, whose quoting differs between Python releases.
PRECEDENCE = [
    ("triangle --family Q --n-max -1", UNKNOWN_Q),
    ("triangle --family Q --n-max 1 --lambda x --symbolic", UNKNOWN_Q),
    ("triangle --family W --n-max -1 --lambda 1 --symbolic", "error: --n-max must be >= 0"),
    ("triangle --family W --n-max -1 --lambda x", "error: --n-max must be >= 0"),
    ("triangle --family W --n-max 1 --lambda x --symbolic",
     "error: --lambda and --symbolic are mutually exclusive"),
    ("triangle --family W --m 0 --n-max 1 --lambda x", NOT_RATIONAL.format("--lambda", "x")),
    ("triangle --family W --m 0 --r -1 --n-max 1", "error: m must be a positive integer, got 0"),
    ("triangle --family WR --m 3 --r -1 --n-max 2", "error: r must be an integer >= 0, got -1"),
    ("triangle --family WR --m 0 --r 0 --n-max 2", "error: m must be a positive integer, got 0"),
    ("triangle --family WR --m 0 --r -1 --n-max 2", "error: m must be a positive integer, got 0"),
    ("triangle --family S2degR --r -1 --n-max 2", "error: r must be an integer >= 0, got -1"),
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
    ("eval --family VR --m 2 --r -1 --n 1 --k 5", "error: r must be an integer >= 0, got -1"),
    ("eval --family W --n -1 --k 5 --lambda 1/2", "error: (-1, 5) outside triangle of size 0"),
    ("eval --family Q --n x", "dowlab eval: error: argument --n: invalid int value: 'x'"),
    # a family's rows are read through islice, whose indices stop at sys.maxsize
    ("eval --family W --n 99999999999999999999 --k 0",
     f"error: --n must be below {sys.maxsize}"),
    ("triangle --family W --n-max 99999999999999999999 --symbolic",
     f"error: --n-max must be below {sys.maxsize}"),
    ("verify --n-max -1 --m-set a",
     "error: --m-set must be a comma-separated integer list, got 'a'"),
    ("verify --m-set 1 --r-set a --n-max -1",
     "error: --r-set must be a comma-separated integer list, got 'a'"),
    ("verify --m-set a --r-set b",
     "error: --m-set must be a comma-separated integer list, got 'a'"),
    ("verify --m-set 1,1 --n-max -1", "error: --m-set must not repeat a value, got '1,1'"),
    ("verify --m-set 1 --r-set 2,3,2 --n-max -1",
     "error: --r-set must not repeat a value, got '2,3,2'"),
    ("verify --n-max -1 --id nosuch", "error: --n-max must be >= 0"),
    # a count at sys.maxsize and above is refused before any run starts
    ("verify --n-max 99999999999999999999 --id nosuch",
     f"error: --n-max must be below {sys.maxsize}"),
    ("verify --m-set 0 --id nosuch", "error: unknown identity id 'nosuch'"),
    # an entry that reads neither m nor r refuses a bad one all the same
    ("verify --n-max 1 --id lemma24 --m-set 0 --r-set -5",
     "error: m must be a positive integer, got 0"),
    ("verify --n-max 1 --id lemma24 --m-set 1 --r-set -5",
     "error: r must be an integer >= 0, got -5"),
    # a whole catalog run refuses a bad r before its first entry, as one
    # entry does, and a value that is not an integer as the parser does
    ("verify --n-max 3 --r-set -5", "error: r must be an integer >= 0, got -5"),
    ("verify --n-max 3 --m-set 1,x",
     "error: --m-set must be a comma-separated integer list, got '1,x'"),
    ("verify --n-max x --m-set a",
     "dowlab verify: error: argument --n-max: invalid int value: 'x'"),
    ("dobinski --m 1 --n 1 --x 1 --lambda 1/0 --terms 0", NOT_RATIONAL.format("--lambda", "1/0")),
    ("dobinski --m 1 --n 1 --x 1 --lambda 0 --terms 0 --tol -1", "error: --terms must be >= 1"),
    ("dobinski --m 1 --n 1 --x y --lambda symbolic --terms 0", NOT_RATIONAL.format("--x", "y")),
    ("dobinski --m 1 --n 1 --x 1 --lambda symbolic --terms 0",
     "error: dobinski needs a numeric --lambda"),
    ("dobinski --m 0 --n -1 --x 1 --lambda 0 --tol -1",
     "error: --tol must be positive and finite"),
    ("dobinski --m 0 --n -1 --x 1 --lambda 0", "error: m must be a positive integer, got 0"),
    ("dobinski --m 0 --n 99999999999999999999 --x 1 --lambda 0",
     f"error: --n must be below {sys.maxsize}"),
    ("dobinski --m 0 --n 1 --x 1 --lambda 0 --terms 99999999999999999999",
     f"error: --terms must be below {sys.maxsize}"),
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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_out_of_memory_exits_2():
    # a catalog run at n_max 10^8 builds series until the address space runs
    # out, in well under a second; the cap is set in the child process only
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))

    done = subprocess.run(
        [sys.executable, "-m", "dowlab.cli", "verify", "--n-max", "100000000", "--id", "eq17"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


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
            value = triangle[n][k]
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
        triangle = build_triangle(*args[:4])  # held here from now on, outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main([*triangle_argv(*args), "--out", str(target)]) == 0
            added = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        longest_row = max(len(", ".join(map(str, row))) for row in triangle)
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


class TestExportFillsNoStore:
    def test_memory_is_about_one_row_without_a_held_triangle(self, capsys, tmp_path):
        target = tmp_path / "w.csv"
        main(triangle_argv("Wdeg", 3, 1, 1, None, "csv"))  # imports and the parser, untraced
        store = st._second_kind_rows  # W is its key (m, 1, 1)
        store.cache_clear()
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
        assert store.cache_info().currsize == 0

    @pytest.mark.parametrize("command", ["triangle", "eval"])
    @pytest.mark.parametrize("family", [f.value for f in Family])
    def test_every_store_stays_empty(self, capsys, family, command, clear_caches):
        clear_caches()  # an export or an entry evaluation leaves every cache empty
        if command == "triangle":
            argv = triangle_argv(family, 3, 2, 12, None, "csv")
        else:
            argv = ["eval", "--family", family, "--m", "3", "--r", "2", "--n", "12", "--k", "5"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out
        held = {cache.__name__: cache.cache_info().currsize for cache in CACHES}
        assert held == dict.fromkeys(held, 0)


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
    def test_out_gets_the_mode_of_a_new_file(self, monkeypatch, capsys, tmp_path, command, umask):
        # the write never sets the umask, not even to read it and set it back:
        # a thread that makes a file meanwhile would get a mode of 0o666
        calls = []
        set_umask = os.umask
        old = set_umask(umask)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "umask", lambda mask: calls.append(mask) or set_umask(mask))
                code, _, _ = run(capsys, *OUT_COMMANDS[command], "--out", str(tmp_path / "x"))
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            set_umask(old)
        assert calls == []
        assert code == 0
        mode = (tmp_path / "x").stat().st_mode & 0o777
        assert mode == 0o666 & ~umask == (tmp_path / "plain").stat().st_mode & 0o777
