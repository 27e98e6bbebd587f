"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

Classical reference triangles for the limit checks are recomputed here from
scratch over plain rationals (integer convolutions and synthetic division on
coefficient lists), so they share no code with the library paths they judge.
"""

from contextlib import contextmanager
from fractions import Fraction
from dowlab.exact import LAMBDA, LambdaPoly
from dowlab import bernoulli_euler as be
from dowlab import identities as idn
from dowlab import stirling as st
from dowlab import whitney as wh

M_SET = (1, 2, 3)
R_SET = (1, 2, 3)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


# -- independent classical oracles (plain coefficient lists) --------------------


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def synth_div(coeffs: list[Fraction], node: Fraction) -> tuple[list[Fraction], Fraction]:
    if len(coeffs) == 1:
        return [Fraction(0)], coeffs[0]
    quot = [Fraction(0)] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        quot[i] = carry
        carry = coeffs[i] + node * carry
    return quot, carry


def falling_basis_coeffs(coeffs: list[Fraction]) -> list[Fraction]:
    """Expand a one-variable polynomial in the basis x(x-1)...(x-k+1)."""
    out = []
    current = coeffs[:]
    for node in range(len(coeffs) - 1):
        current, rem = synth_div(current, Fraction(node))
        out.append(rem)
    out.append(current[0])
    return out


def classical_w(m: int, n: int) -> list[Fraction]:
    poly = [Fraction(1)]
    for _ in range(n):
        poly = poly_mul(poly, [Fraction(1), Fraction(m)])  # (mx + 1)
    converted = falling_basis_coeffs(poly)
    return [c / Fraction(m) ** k for k, c in enumerate(converted)]


def classical_v(m: int, n: int) -> list[Fraction]:
    poly = [Fraction(1)]
    for j in range(n):
        poly = poly_mul(poly, [Fraction(-(1 + j * m)), Fraction(1)])  # (u - 1 - jm)
    return poly


def classical_s1(n_max: int) -> list[list[int]]:
    rows = []
    for n in range(n_max + 1):
        poly = [1]
        for j in range(n):
            poly = [a + b for a, b in zip([-j * c for c in poly] + [0], [0] + poly)]
        rows.append(poly)
    return rows


def classical_s2(n_max: int) -> list[list[Fraction]]:
    rows = []
    for n in range(n_max + 1):
        power = [Fraction(0)] * n + [Fraction(1)]
        rows.append(falling_basis_coeffs(power))
    return rows


# -- criteria -------------------------------------------------------------------


def test_criterion_1_triple_cross_check(converted_rows):
    # the third route converts each row's whole product, with no row step:
    # W has roots j l - 1 and nodes m k, V roots 1 + j m and nodes k l
    with criterion(1, "triple cross-check of both triangles, three routes"):
        n_max = 12
        steps = range(n_max)
        for m in M_SET:
            second = wh.whitney2_rows(m, n_max)
            roots, nodes = [j * LAMBDA - 1 for j in steps], [m * k for k in steps]
            assert converted_rows(roots, nodes, n_max) == second
            assert wh.whitney2_rows_gf(m, n_max) == second
            first = wh.whitney1_rows(m, n_max)
            roots, nodes = [1 + j * m for j in steps], [k * LAMBDA for k in steps]
            assert converted_rows(roots, nodes, n_max) == first
            assert wh.whitney1_rows_gf(m, n_max) == first


def test_criterion_2_explicit_formulas():
    with criterion(2, "explicit-formula equivalence"):
        n_max = 10
        for m in M_SET:
            for n in range(n_max + 1):
                for k in range(n + 1):
                    want2 = wh.whitney2(m, n, k)
                    assert wh.whitney2_alt(m, n, k, "sum_T12") == want2
                    assert wh.whitney2_alt(m, n, k, "stirling_T13") == want2
                    assert wh.whitney2_diff(m, n, k) == want2
                    want1 = wh.whitney1(m, n, k)
                    assert wh.whitney1_alt(m, n, k, "quad_T8") == want1
                    assert wh.whitney1_alt(m, n, k, "v0_T18") == want1
                    assert wh.whitney1_alt(m, n, k, "stirling_T19") == want1


STRUCTURAL_IDS = (
    "orthogonality",
    "cor2",
    "cor4",
    "cor11",
    "lemma15",
    "thm16",
    "thm17",
    "thm21",
    "cor22",
    "cor22_remark",
    "thm23",
    "lemma24",
    "thm25",
    "thm26",
    "eq29_30",
)


def test_criterion_3_structural_identities():
    with criterion(3, "structural identities at n <= 10"):
        for ident in STRUCTURAL_IDS:
            report = idn.run_identity(ident, 10, M_SET, R_SET, 0)
            assert report.status != "fail", (ident, report.counterexample)
            assert report.params_tested > 0


def test_criterion_4_r_generalization():
    with criterion(4, "r-generalization reductions and GF routes"):
        n_max = 10
        for m in M_SET:
            assert wh.r_whitney2_rows(m, 1, n_max) == wh.whitney2_rows(m, n_max)
            assert wh.r_whitney1_rows(m, 1, n_max) == wh.whitney1_rows(m, n_max)
        for r in R_SET:
            braces = st.deg_r_stirling2_rows(r, n_max)
            assert wh.r_whitney2_rows(1, r, n_max) == braces
            brackets = st.deg_r_stirling1_unsigned_rows(r, n_max)
            signed = wh.r_whitney1_rows(1, r, n_max)
            for n in range(n_max + 1):
                for k in range(n + 1):
                    sign = -1 if (n - k) % 2 else 1
                    assert signed[n][k] == brackets[n][k] * sign
        for ident in ("eq68", "eq71", "eq73", "eq74", "eq75", "eq77"):
            report = idn.run_identity(ident, n_max, M_SET, R_SET, 0)
            assert report.status == "pass", (ident, report.counterexample)


def test_criterion_5_classical_limits():
    with criterion(5, "classical limits at lambda = 0"):
        n_max = 12
        s1 = classical_s1(n_max)
        s2 = classical_s2(n_max)
        for n in range(n_max + 1):
            for k in range(n + 1):
                assert st.deg_stirling1(n, k).eval(0) == s1[n][k]
                assert st.deg_stirling2(n, k).eval(0) == s2[n][k]
        for m in M_SET:
            for n in range(n_max + 1):
                w_row = classical_w(m, n)
                v_row = classical_v(m, n)
                for k in range(n + 1):
                    assert wh.whitney2(m, n, k).eval(0) == w_row[k]
                    assert wh.whitney1(m, n, k).eval(0) == v_row[k]


def test_criterion_6_higher_order_numbers():
    with criterion(6, "order-k Bernoulli and order-alpha Euler sums vs GFs"):
        n_max = 10
        for k in range(5):
            gf = be.deg_bernoulli_gf(n_max, k)
            for n in range(n_max + 1):
                assert be.deg_bernoulli(n, k) == gf[n]
        for alpha in (1, 2, 3):
            gf = be.deg_euler_gf(n_max, alpha)
            for n in range(n_max + 1):
                assert be.deg_euler(n, alpha) == gf[n]
        assert be.deg_bernoulli(1, 1) == LambdaPoly((Fraction(-1, 2), Fraction(1, 2)))
        assert be.deg_bernoulli(2, 1) == LambdaPoly((Fraction(1, 6), 0, Fraction(-1, 6)))


def test_criterion_7_dobinski():
    with criterion(7, "Dobinski truncation within 1e-9"):
        for m in M_SET:
            for n in range(9):
                for x in (Fraction(1, 2), Fraction(1), Fraction(2)):
                    for lam in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
                        req = wh.DobinskiRequest(m=m, n=n, x=x, lam=lam, terms=200)
                        res = wh.dobinski_eval(req)
                        assert res.passed, (m, n, x, lam)
                        assert abs(res.truncated - res.exact) < 1e-9, (m, n, x, lam)


def test_criterion_8_discrepancy_findings():
    with criterion(8, "discrepancy findings present and decided"):
        reports = {r.id: r for r in idn.verify_all(8, M_SET, R_SET, 0)}
        thm20 = reports["thm20"]
        assert thm20.status == "paper-discrepancy"
        assert thm20.finding and "fails at" in thm20.finding
        assert "C(i,k)" in thm20.finding or "i,k" in thm20.finding
        eq81 = reports["eq81"]
        assert eq81.status == "paper-discrepancy"
        assert eq81.finding and "fails at" in eq81.finding
        assert "alpha+l-1" in eq81.finding
        # no identity in the whole catalog may fail at acceptance scale
        failures = [r.id for r in reports.values() if r.status == "fail"]
        assert not failures, failures
