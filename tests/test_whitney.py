"""Whitney triangles, Dowling polynomials, r-variants and the Dobinski series."""

import decimal
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import ceil, e, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from dowlab.exact import LAMBDA, LambdaPoly
from dowlab import bases
from dowlab import stirling as st
from dowlab import whitney as wh

l = LAMBDA


class TestSecondKind:
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_row_two(self, m):
        assert wh.whitney2(m, 2, 1) == LambdaPoly((m + 2, -1))

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_column_zero(self, m):
        from dowlab.bases import lambda_falling

        for n in range(9):
            assert wh.whitney2(m, n, 0) == lambda_falling(1, n, l)

    def test_classical_limit_row(self):
        values = [wh.whitney2(1, 3, k).eval(0) for k in range(4)]
        assert values == [1, 7, 6, 1]
        assert values == [st.stirling2(4, k + 1) for k in range(4)]

    def test_index_error(self):
        with pytest.raises(IndexError):
            wh.whitney2(1, 2, 3)

    def test_or_zero_accessors(self):
        assert wh.whitney2_or_zero(2, 1, 2) == LambdaPoly()
        assert wh.whitney2_or_zero(2, 3, -1) == LambdaPoly()
        assert wh.whitney2_or_zero(2, 2, 1) == wh.whitney2(2, 2, 1)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            wh.whitney2(0, 1, 0)
        with pytest.raises(ValueError):
            wh.WhitneyParams(1, 0)

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_three_routes_agree(self, m):
        n_max = 8
        assert wh.whitney2_rows(m, n_max) == wh.whitney2_rows_newton(m, n_max)
        assert wh.whitney2_rows(m, n_max) == wh.whitney2_rows_gf(m, n_max)


class TestFirstKind:
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_diagonal_is_one(self, m):
        for n in range(9):
            assert wh.whitney1(m, n, n) == LambdaPoly((1,))

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_row_two(self, m):
        assert wh.whitney1(m, 2, 1) == LambdaPoly((-m - 2, 1))
        assert wh.whitney1(m, 2, 0) == LambdaPoly((m + 1,))

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_column_zero_closed_form(self, m):
        for n in range(9):
            assert wh.whitney1(m, n, 0) == wh.v0(m, n)

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_three_routes_agree(self, m):
        n_max = 8
        assert wh.whitney1_rows(m, n_max) == wh.whitney1_rows_newton(m, n_max)
        assert wh.whitney1_rows(m, n_max) == wh.whitney1_rows_gf(m, n_max)


class TestAlternativeFormulas:
    @pytest.mark.parametrize("path", ("sum_T12", "stirling_T13"))
    def test_second_kind_sample(self, path):
        assert wh.whitney2_alt(2, 2, 1, path) == LambdaPoly((4, -1))

    @pytest.mark.parametrize("path", ("quad_T8", "v0_T18", "stirling_T19"))
    def test_first_kind_sample(self, path):
        assert wh.whitney1_alt(1, 2, 1, path) == LambdaPoly((-3, 1))

    def test_sum_vanishes_above_diagonal(self):
        for m in (1, 2):
            for k in range(1, 6):
                for n in range(k):
                    assert wh.whitney2_alt(m, n, k, "sum_T12").is_zero()

    def test_m_one_note(self):
        # second-kind at m=1: binomial sum of (1)_{n-i,l} against plain S2deg
        from dowlab.bases import binom, lambda_falling

        for n in range(7):
            for k in range(n + 1):
                acc = LambdaPoly()
                for i in range(k, n + 1):
                    acc = acc + st.deg_stirling2(i, k) * lambda_falling(1, n - i, l) * binom(n, i)
                assert acc == wh.whitney2(1, n, k)

    def test_forward_difference_path(self):
        for m in (1, 2):
            for n in range(7):
                for k in range(n + 1):
                    assert wh.whitney2_diff(m, n, k) == wh.whitney2(m, n, k)

    def test_forward_difference_path_is_independent(self, monkeypatch):
        # the chain of differences must not lean on the recurrence or on the
        # alternating sum of thm12, or thm14 would check nothing
        def forbidden(*args):
            raise AssertionError("forward differences reached another route")

        expected = {(3, n, k): wh.whitney2(3, n, k) for n in range(11) for k in range(n + 1)}
        wh._forward_differences.cache_clear()
        monkeypatch.setattr(wh, "whitney2_rows", forbidden)
        monkeypatch.setattr(wh, "whitney2_alt", forbidden)
        for (m, n, k), value in expected.items():
            assert wh.whitney2_diff(m, n, k) == value

    def test_forward_difference_rejects_bad_m(self):
        with pytest.raises(ValueError):
            wh.whitney2_diff(0, 2, 1)

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            wh.whitney2_alt(1, 2, 1, "nosuch")
        with pytest.raises(ValueError):
            wh.whitney1_alt(1, 2, 1, "nosuch")

    def test_classical_limit_of_quad_path(self):
        from dowlab.bases import binom

        m, n, k = 2, 5, 2
        got = wh.whitney1_alt(m, n, k, "quad_T8").eval(0)
        expect = sum(
            binom(q, k) * (-1) ** (q - k) * st.stirling1(n, q) * m ** (n - q)
            for q in range(k, n + 1)
        )
        assert got == expect


class TestStructural:
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_orthogonality_to_twelve(self, m):
        n_max = 12
        v_rows = wh.whitney1_rows(m, n_max)
        w_rows = wh.whitney2_rows(m, n_max)
        for n in range(n_max + 1):
            for j in range(n + 1):
                acc = LambdaPoly()
                for k in range(j, n + 1):
                    acc = acc + v_rows[n][k] * w_rows[k][j]
                assert acc == LambdaPoly.const(1 if n == j else 0)

    def test_second_kind_stirling_link_to_twelve(self):
        # m = 1 rows against shifted second-kind degenerate Stirling numbers
        for n in range(13):
            for k in range(n + 1):
                rhs = st.deg_stirling2(n + 1, k + 1)
                if k + 1 <= n:
                    rhs = rhs + l * n * st.deg_stirling2(n, k + 1)
                assert wh.whitney2(1, n, k) == rhs


class TestDowling:
    def test_row_polynomial(self):
        assert wh.dowling_poly(1, 2, 1) == LambdaPoly((5, -2))
        assert wh.dowling_poly(3, 0, Fraction(7, 2)) == LambdaPoly((1,))

    def test_bell_relation_spot(self):
        n = 2
        lhs = wh.dowling_number(1, n)
        rhs = st.deg_bell_number(n + 1) + l * n * st.deg_bell_number(n)
        assert lhs == rhs == LambdaPoly((5, -2))

    def test_tanny_dowling(self):
        assert wh.tanny_dowling_poly(1, 0, Fraction(1, 3)) == LambdaPoly((1,))
        assert wh.tanny_dowling_poly(1, 2, 1) == LambdaPoly((6, -2))

    def test_tanny_dowling_gf_oracle(self):
        series = wh.tanny_dowling_gf(1, 1, 4)
        assert series.coeff(2) == LambdaPoly((6, -2))
        for n in range(5):
            assert series.coeff(n) == wh.tanny_dowling_poly(1, n, 1)

    @pytest.mark.parametrize("oracle", (wh.dowling_gf, wh.tanny_dowling_gf))
    def test_gf_oracle_refuses_a_bad_m(self, oracle):
        for m in (0, -1):
            with pytest.raises(ValueError, match=f"^m must be a positive integer, got {m}$"):
                oracle(m, 1, 3)
        for m in (1.0, True):
            with pytest.raises(TypeError):
                oracle(m, 1, 3)

    @pytest.mark.parametrize("poly", (wh.dowling_poly, wh.tanny_dowling_poly))
    def test_inexact_x_refused(self, poly):
        poly(1, 2, 1)
        poly(1, 3, Fraction(1, 10))
        # an equal float or bool must not hit the cached value of x = 1
        for x in (1.0, True, 0.1, False):
            with pytest.raises(TypeError):
                poly(1, 2, x)
        with pytest.raises(TypeError):
            poly(1, 3, 0.1)


class TestRWhitney:
    def test_row_one(self):
        for m in (1, 2, 3):
            for r in (1, 2, 3):
                assert wh.r_whitney2(m, r, 1, 0) == LambdaPoly((r,))
                assert wh.r_whitney2(m, r, 1, 1) == LambdaPoly((1,))
                assert wh.r_whitney1(m, r, 1, 0) == LambdaPoly((-r,))
                assert wh.r_whitney1(m, r, 1, 1) == LambdaPoly((1,))

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_r_one_reduction(self, m):
        assert wh.r_whitney2_rows(m, 1, 8) == wh.whitney2_rows(m, 8)
        assert wh.r_whitney1_rows(m, 1, 8) == wh.whitney1_rows(m, 8)

    @pytest.mark.parametrize("r", (1, 2, 3))
    def test_m_one_reduction(self, r):
        assert wh.r_whitney2_rows(1, r, 8) == st.deg_r_stirling2_rows(r, 8)
        signs = wh.r_whitney1_rows(1, r, 8)
        brackets = st.deg_r_stirling1_unsigned_rows(r, 8)
        for n in range(9):
            for k in range(n + 1):
                sign = -1 if (n - k) % 2 else 1
                assert signs[n][k] == brackets[n][k] * sign

    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("r", (1, 2, 3))
    def test_direct_route_matches_substitution(self, m, r):
        assert wh.r_whitney1_rows_direct(m, r, 6) == wh.r_whitney1_rows(m, r, 6)

    @pytest.mark.parametrize("m", (1, 2))
    @pytest.mark.parametrize("r", (1, 2))
    def test_gf_routes(self, m, r):
        assert wh.r_whitney2_rows_gf(m, r, 6) == wh.r_whitney2_rows(m, r, 6)
        assert wh.r_whitney1_rows_gf(m, r, 6) == wh.r_whitney1_rows(m, r, 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            wh.r_whitney2(1, 0, 1, 0)
        with pytest.raises(ValueError):
            wh.r_whitney1(0, 1, 1, 0)


ROUNDINGS = (
    decimal.ROUND_HALF_EVEN, decimal.ROUND_HALF_UP, decimal.ROUND_HALF_DOWN,
    decimal.ROUND_UP, decimal.ROUND_DOWN, decimal.ROUND_CEILING, decimal.ROUND_FLOOR,
    decimal.ROUND_05UP,
)


@st_.composite
def quotient_cases(draw):
    """``(num, den, prec)``: either sign, |num| < den or |num| >> den,
    terminating quotients, exact ties at the rounding digit and values just
    beside them, operands of up to 40k bits, precisions 1..100."""
    prec = draw(st_.integers(1, 100))
    sign = draw(st_.sampled_from((1, -1)))
    kind = draw(st_.sampled_from(("below", "above", "terminating", "tie")))
    # hypothesis draws the sizes; the bits of a 40k-bit operand come from a seeded PRNG
    rng = random.Random(draw(st_.integers(0, 2**32)))
    if kind == "tie":
        # (10c + d) 10^s with c of prec digits is a value of prec digits (d = 0)
        # or halfway between two of them (d = 5): hit it exactly with
        # den = 2^i 5^j, or miss it by 1/den with a large den
        c = draw(st_.integers(10 ** (prec - 1), 10**prec - 1))
        point = 10 * c + draw(st_.sampled_from((0, 5)))
        if draw(st_.booleans()):
            i, j = draw(st_.integers(0, 300)), draw(st_.integers(0, 300))
            s = draw(st_.integers(-min(i, j), 40))
            return sign * point * 2 ** (i + s) * 5 ** (j + s), 2**i * 5**j, prec
        base = rng.getrandbits(draw(st_.integers(1, 40000))) | 1
        num = point * base + draw(st_.sampled_from((-1, 1)))
        return sign * num, base * 10 ** draw(st_.integers(0, 60)), prec
    if kind == "terminating":
        den = 2 ** draw(st_.integers(0, 3000)) * 5 ** draw(st_.integers(0, 3000))
        return sign * rng.getrandbits(draw(st_.integers(0, 40000))), den, prec
    if kind == "below":
        den = rng.getrandbits(draw(st_.integers(1, 40000))) | 1
        return sign * rng.randrange(den), den, prec
    den = rng.getrandbits(draw(st_.integers(1, 20000))) | 1
    num = den * rng.getrandbits(draw(st_.integers(1, 20000))) + rng.randrange(den)
    return sign * num, den, prec


def dobinski_series(m: int, n: int, x: Fraction, lam: Fraction, terms: int) -> Fraction:
    """Oracle: sum_{k < terms} z^k/k! prod_{j < n} (mk + 1 - j lam), z = x/m, in Fractions."""
    z, total, power = x / m, Fraction(0), Fraction(1)  # power = z^k / k!
    for k in range(terms):
        value = power
        for j in range(n):
            value *= m * k + 1 - j * lam
        total += value
        power = power * z / (k + 1)
    return total


def dobinski_horner(m: int, n: int, p: int, q: int, a: int, b: int, terms: int) -> Fraction:
    """Oracle: S b^n by the backward Horner pass that binary splitting replaced."""
    num, den = 0, 1
    for k in reversed(range(terms)):
        base = b * (m * k + 1)
        num = num * p + prod([base - j * a for j in range(n)]) * den
        den *= q * k or 1
    return Fraction(num, den)


def check_dobinski_split(m: int, n: int, x: Fraction, lam: Fraction, terms: int) -> None:
    # S b^n from the split truncated exponential, against both oracles
    z = x / m
    p, q, a, b = z.numerator, z.denominator, lam.numerator, lam.denominator
    num, den = wh._dobinski_sum(m, n, p, q, a, b, terms)
    split = Fraction(num, den) * b**n
    assert split == dobinski_horner(m, n, p, q, a, b, terms)
    assert split == dobinski_series(m, n, x, lam, terms) * b**n


# both signs and zero
signed_fractions = st_.one_of(
    st_.just(Fraction(0)), st_.fractions(min_value=-40, max_value=40, max_denominator=12)
)
# terms either side of one leaf and of two and four leaves
SPLIT_EDGES = (1, 2, 31, 32, 33, 63, 64, 65, 128, 129)


class TestDobinski:
    def test_closed_form_two(self):
        req = wh.DobinskiRequest(m=1, n=1, x=Fraction(1), lam=Fraction(0), terms=50)
        truncated, exact = wh.dobinski_eval(req)
        assert exact == 2.0
        assert abs(truncated - exact) < 1e-9

    def test_order_zero_is_one(self):
        for m in (1, 2, 3):
            req = wh.DobinskiRequest(m=m, n=0, x=Fraction(3), lam=Fraction(1, 2), terms=100)
            truncated, exact = wh.dobinski_eval(req)
            assert exact == 1.0
            assert abs(truncated - 1.0) < 1e-9

    def test_quarter_lambda(self):
        req = wh.DobinskiRequest(m=2, n=4, x=Fraction(1), lam=Fraction(1, 4), terms=200)
        truncated, exact = wh.dobinski_eval(req)
        assert abs(truncated - exact) < 1e-9

    def test_request_validation(self):
        with pytest.raises(ValueError):
            wh.DobinskiRequest(m=0, n=1, x=Fraction(1), lam=Fraction(0))
        with pytest.raises(ValueError):
            wh.DobinskiRequest(m=1, n=1, x=Fraction(1), lam=Fraction(0), terms=0)
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                wh.DobinskiRequest(m=1, n=1, x=Fraction(1), lam=Fraction(0), tol=tol)
        for bad in (
            {"m": 1.0},
            {"n": True},
            {"terms": 50.0},
            {"x": 0.5},
            {"lam": 0.25},
            {"x": True},
            {"lam": False},
        ):
            with pytest.raises(TypeError):
                wh.DobinskiRequest(**{"m": 1, "n": 1, "terms": 50, "x": 1, "lam": 0, **bad})

    def test_pass_rule_is_a_strict_tolerance(self):
        req = wh.DobinskiRequest(m=1, n=1, x=Fraction(1), lam=Fraction(0), tol=0.5)
        assert req.passes(2.0, 2.0)
        assert req.passes(2.25, 2.0) and req.passes(2.0, 2.25)
        assert not req.passes(2.5, 2.0)
        assert not req.passes(2.0, 2.5)

    @pytest.mark.parametrize(
        "m, x, terms",
        [
            (1, Fraction(260), 807),  # x/m = 260: the old Taylor exp returned -1.65e73
            (2, Fraction(520), 807),
            (1, Fraction(300), 1500),
            (1, Fraction(900), 2600),  # the old float conversion overflowed here
            (3, Fraction(0), 1),
            (1, Fraction(-5, 2), 200),
        ],
    )
    def test_regressions(self, m, x, terms):
        req = wh.DobinskiRequest(m=m, n=3, x=x, lam=Fraction(1, 3), terms=terms)
        truncated, _ = wh.dobinski_eval(req)
        assert abs(truncated - float(wh.dowling_poly(m, 3, x).eval(Fraction(1, 3)))) < req.tol

    @settings(deadline=None, max_examples=40)
    @given(
        st_.integers(min_value=1, max_value=3),
        st_.integers(min_value=0, max_value=8),
        st_.fractions(min_value=0, max_value=1000, max_denominator=10**4).filter(bool),
        st_.fractions(min_value=0, max_value=1, max_denominator=9).filter(lambda q: q < 1),
    )
    def test_matches_exact_value(self, m, n, x, lam):
        terms = ceil(e * x / m) + 100
        req = wh.DobinskiRequest(m=m, n=n, x=x, lam=lam, terms=terms)
        truncated, _ = wh.dobinski_eval(req)
        assert abs(truncated - float(wh.dowling_poly(m, n, x).eval(lam))) < req.tol

    def test_beyond_double_range_raises(self):
        big = wh.DobinskiRequest(m=1, n=40, x=Fraction(10**8), lam=Fraction(0), terms=1)
        with pytest.raises(OverflowError):
            wh.dobinski_eval(big)
        # e^{-x} itself leaves the decimal exponent range
        huge = wh.DobinskiRequest(m=1, n=0, x=Fraction(10**19), lam=Fraction(0), terms=1)
        with pytest.raises(OverflowError, match="decimal exponent range"):
            wh.dobinski_eval(huge)

    @settings(deadline=None, max_examples=150)
    @given(
        st_.integers(min_value=1, max_value=3),
        st_.integers(min_value=0, max_value=8),
        signed_fractions,
        signed_fractions,
        st_.one_of(st_.sampled_from((31, 32, 33, 64, 65)), st_.integers(1, 300)),
    )
    def test_split_sum_is_the_exact_series(self, m, n, x, lam, terms):
        check_dobinski_split(m, n, x, lam, terms)

    @pytest.mark.parametrize("terms", SPLIT_EDGES)
    @pytest.mark.parametrize(
        "m, n, x, lam",
        [(1, 0, Fraction(3), Fraction(0)), (2, 5, Fraction(-7, 3), Fraction(1, 3)),
         (3, 8, Fraction(25, 2), Fraction(-5, 4)), (1, 4, Fraction(0), Fraction(2))],
    )
    def test_split_sum_across_leaf_boundaries(self, m, n, x, lam, terms):
        check_dobinski_split(m, n, x, lam, terms)

    @pytest.mark.parametrize(
        "m, n, x, lam",
        [(1, 8, Fraction(3), Fraction(0)), (2, 5, Fraction(-7, 3), Fraction(1, 3)),
         (3, 8, Fraction(25, 2), Fraction(-5, 4)), (1, 4, Fraction(0), Fraction(2))],
    )
    def test_split_sum_with_no_more_terms_than_n(self, m, n, x, lam):
        # only the differences of F up to order terms - 1 take part
        for terms in range(1, n + 1):
            check_dobinski_split(m, n, x, lam, terms)

    @settings(deadline=None, max_examples=300)
    @given(quotient_cases(), st_.sampled_from(ROUNDINGS))
    def test_quotient_is_decimal_division(self, case, rounding):
        num, den, prec = case
        with localcontext() as ctx:
            ctx.prec, ctx.rounding = prec, rounding
            assert wh._decimal_quotient(num, den) == Decimal(num) / Decimal(den)

    def test_quotient_digit_estimate_at_wide_bit_gaps(self):
        # 0.3 for log10(2) would lose a digit per ~1000 bits of den over num
        for gap in (1, 999, 3322, 10**4, 4 * 10**4):
            for num, den in ((3, 7 << gap), (-(7 << gap), 3)):
                with localcontext() as ctx:
                    ctx.prec = 30
                    assert wh._decimal_quotient(num, den) == Decimal(num) / Decimal(den)


class TestTriangleBuilder:
    def test_families(self):
        samples = {
            "S1": LambdaPoly((2,)),
            "S2": LambdaPoly((1,)),
            "S1deg": l - 1,
            "S2deg": 1 - l,
            "Wdeg": LambdaPoly((3, -1)),
            "Vdeg": LambdaPoly((-3, 1)),
        }
        spots = {"S1": (3, 1), "S2": (3, 1), "S1deg": (2, 1), "S2deg": (2, 1),
                 "Wdeg": (2, 1), "Vdeg": (2, 1)}
        for family, expect in samples.items():
            n, k = spots[family]
            tri = wh.build_triangle(family, 1, 1, 3)
            assert tri.value(n, k) == expect

    def test_r_families(self):
        tri = wh.build_triangle("WdegR", 2, 3, 2)
        assert tri.value(1, 0) == LambdaPoly((3,))
        tri1 = wh.build_triangle("VdegR", 2, 3, 2)
        assert tri1.value(1, 0) == LambdaPoly((-3,))

    def test_bad_family(self):
        with pytest.raises(ValueError):
            wh.build_triangle("nosuch", 1, 1, 2)
        with pytest.raises(ValueError):
            wh.family_rows("nosuch", 1, 1)

    @pytest.mark.parametrize("family", [f.value for f in st.Family])
    def test_rows_are_the_store_rows(self, family):
        # the export's rows and the catalog's store rows come from one generator
        store, params = {
            "S1": (st._stirling1_rows, ()),
            "S2": (st._stirling2_rows, ()),
            "S1deg": (st.deg_stirling1_rows, ()),
            "S2deg": (st.deg_r_stirling2_rows, (0,)),
            "S1degR": (st.deg_r_stirling1_unsigned_rows, (2,)),
            "S2degR": (st.deg_r_stirling2_rows, (2,)),
            "Wdeg": (wh.whitney2_rows, (3,)),
            "Vdeg": (wh.whitney1_rows, (3,)),
            "WdegR": (wh.r_whitney2_rows, (3, 2)),
            "VdegR": (wh.r_whitney1_rows, (3, 2)),
        }[family]
        tri = wh.build_triangle(family, 3, 2, 12)
        assert tri.rows == tuple(tuple(map(LambdaPoly.coerce, row)) for row in store(*params, 12))
        assert (tri.m, tri.r) == (
            3 if family.startswith(("W", "V")) else 1,
            2 if family.endswith("R") else 0,
        )

    def test_argument_errors_come_before_any_row(self):
        for m, r in ((0, 1), (1, 0), (-2, 3)):
            with pytest.raises(ValueError):
                wh.family_rows("VdegR", m, r)
        with pytest.raises(ValueError, match="r must be >= 0"):
            wh.family_rows("S1degR", 1, -1)
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            wh.build_triangle("Wdeg", 1, 1, -1)


# Each accessor with int arguments; every one of them must refuse an equal
# float or bool even after the int call has filled the caches.
INT_ONLY = {
    "whitney2": (wh.whitney2, (1, 3, 1)),
    "whitney1": (wh.whitney1, (1, 3, 1)),
    "whitney2_or_zero": (wh.whitney2_or_zero, (1, 3, 1)),
    "whitney2_rows": (wh.whitney2_rows, (1, 3)),
    "whitney1_rows": (wh.whitney1_rows, (1, 3)),
    "whitney2_rows_newton": (wh.whitney2_rows_newton, (1, 3)),
    "whitney1_rows_newton": (wh.whitney1_rows_newton, (1, 3)),
    "whitney2_diff": (wh.whitney2_diff, (1, 3, 1)),
    "r_whitney2": (wh.r_whitney2, (1, 1, 3, 1)),
    "r_whitney1": (wh.r_whitney1, (1, 1, 3, 1)),
    "r_whitney2_rows": (wh.r_whitney2_rows, (1, 1, 3)),
    "r_whitney1_rows": (wh.r_whitney1_rows, (1, 1, 3)),
    "WhitneyParams": (wh.WhitneyParams, (1, 1)),
    "dowling_poly": (wh.dowling_poly, (1, 3, 1)),
    "tanny_dowling_poly": (wh.tanny_dowling_poly, (1, 3, 1)),
    "build_triangle": (lambda m, r, n_max: wh.build_triangle("WdegR", m, r, n_max), (1, 1, 3)),
    "family_rows": (lambda m, r: wh.family_rows("WdegR", m, r), (1, 1)),
}


def equal_non_ints(value: int) -> list:
    """The float equal to ``value``, and the bool too where one is equal."""
    return [float(value)] + ([bool(value)] if value in (0, 1) else [])


class TestIntArguments:
    @pytest.mark.parametrize("name", sorted(INT_ONLY))
    def test_equal_float_or_bool_refused_after_int(self, name):
        fn, args = INT_ONLY[name]
        fn(*args)
        for i, value in enumerate(args):
            for bad in equal_non_ints(value):
                with pytest.raises(TypeError):
                    fn(*args[:i], bad, *args[i + 1 :])

    def test_negative_index_is_still_an_index_error(self):
        for fn in (wh.whitney2, wh.whitney1):
            with pytest.raises(IndexError):
                fn(1, -1, 0)
        with pytest.raises(IndexError):
            wh.r_whitney1(1, 1, 2, -1)


class TestRowStore:
    def test_one_store_extends_by_prefix(self):
        wh.whitney2_rows.cache_clear()
        built = [wh.whitney2_rows(3, n) for n in range(25)]
        assert wh.whitney2_rows.cache_info().currsize == 1
        assert wh.whitney2_rows(3, 7) == built[7]
        for n, rows in enumerate(built):
            wh.whitney2_rows.cache_clear()
            assert rows == wh.whitney2_rows(3, n)

    @pytest.mark.parametrize(
        "rows, good, bad",
        [
            pytest.param(wh.whitney2_rows, (2, 3), (0, 3), id="whitney2_rows"),
            pytest.param(wh.whitney1_rows, (2, 3), (-1, 3), id="whitney1_rows"),
            pytest.param(wh.r_whitney1_rows, (2, 1, 3), (2, 0, 3), id="r_whitney1_rows"),
            pytest.param(wh.r_whitney2_rows, (2, 1, 3), (0, 1, 3), id="r_whitney2_rows"),
        ],
    )
    def test_refused_call_stores_nothing(self, rows, good, bad):
        rows.cache_clear()
        rows(*good)
        with pytest.raises(ValueError):
            rows(*bad)
        assert rows.cache_info().currsize == 1
        assert len(rows(*good[:-1], 5)) == 6


def forbidden(*args, **kwargs):
    raise AssertionError("one triangle route reached the code of another")


class TestRouteIndependence:
    # The identity catalog compares the recurrence, Newton and GF routes;
    # that only checks something while no route leans on another's code.
    M_SET = (1, 2, 3)
    N_MAX = 8

    def test_recurrence_needs_no_newton_conversion(self, monkeypatch):
        expected = {
            m: (wh.r_whitney2_rows(m, 1, self.N_MAX), wh.r_whitney1_rows(m, 1, self.N_MAX))
            for m in self.M_SET
        }
        for module in (bases, st, wh):
            monkeypatch.setattr(module, "newton_rows", forbidden)
        monkeypatch.setattr(bases, "newton_convert", forbidden)
        wh.whitney2_rows.cache_clear()
        wh.whitney1_rows.cache_clear()
        for m, (second, first) in expected.items():
            assert wh.whitney2_rows(m, self.N_MAX) == second
            assert wh.whitney1_rows(m, self.N_MAX) == first

    def test_newton_route_needs_no_recurrence(self, monkeypatch):
        expected = {
            m: (wh.whitney2_rows(m, self.N_MAX), wh.whitney1_rows(m, self.N_MAX))
            for m in self.M_SET
        }
        monkeypatch.setattr(st, "_recurrence", forbidden)
        monkeypatch.setattr(wh, "_recurrence", forbidden)
        wh.r_whitney2_rows.cache_clear()
        wh.r_whitney1_rows.cache_clear()
        for m, (second, first) in expected.items():
            assert wh.r_whitney2_rows(m, 1, self.N_MAX) == second
            assert wh.r_whitney1_rows(m, 1, self.N_MAX) == first

    def test_gf_route_needs_neither(self, monkeypatch):
        expected = {
            m: (wh.whitney2_rows(m, self.N_MAX), wh.whitney1_rows(m, self.N_MAX))
            for m in self.M_SET
        }
        for module in (bases, st, wh):
            monkeypatch.setattr(module, "newton_rows", forbidden)
        monkeypatch.setattr(bases, "newton_convert", forbidden)
        monkeypatch.setattr(st, "_recurrence", forbidden)
        monkeypatch.setattr(wh, "_recurrence", forbidden)
        stores = [
            fn
            for module in (st, wh)
            for name, fn in vars(module).items()
            if name.endswith("_rows") and hasattr(fn, "cache_clear")
        ]
        for store in stores:
            store.cache_clear()
        for m, (second, first) in expected.items():
            assert wh.whitney2_rows_gf(m, self.N_MAX) == second
            assert wh.whitney1_rows_gf(m, self.N_MAX) == first
        assert stores and all(store.cache_info().currsize == 0 for store in stores)
