"""Whitney triangles, Dowling polynomials, r-variants and the Dobinski series."""

import decimal
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice
from math import ceil, e, exp, factorial, inf, nextafter, prod, ulp

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from dowlab.bases import binom
from dowlab.exact import CACHES, LAMBDA, LambdaPoly
from dowlab import dobinski as dob
from dowlab import identities as idn
from dowlab import newton, series
from dowlab.families import Family
from dowlab import stirling as st
from dowlab import whitney as wh

l = LAMBDA


def examples(tier1: int) -> int:
    """A test's own Hypothesis count: ``tier1`` under the tier-1 profile (100
    a test unless set), scaled by the active profile's count, so that the
    explore profile's 500 draws five times as many."""
    return tier1 * settings.default.max_examples // 100


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
        # m is checked before (n, k) is found outside the triangle
        for n, k in ((1, 2), (3, 1)):
            with pytest.raises(ValueError):
                wh.whitney2_or_zero(0, n, k)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            wh.whitney2(0, 1, 0)

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_three_routes_agree(self, m, converted_rows):
        # roots j l - 1 and nodes m k, each row converted from its whole product
        n_max = 8
        roots, nodes = [j * l - 1 for j in range(n_max)], [m * k for k in range(n_max)]
        assert wh.whitney2_rows(m, n_max) == converted_rows(roots, nodes, n_max)
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

    def test_v0_refuses_a_negative_n(self):
        # as the column k = 0 of the triangle does
        for column_zero in (wh.v0, lambda m, n: wh.whitney1(m, n, 0)):
            with pytest.raises(IndexError, match=r"^\(-1, 0\) outside triangle$"):
                column_zero(2, -1)

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_three_routes_agree(self, m, converted_rows):
        # roots 1 + j m and nodes k l, each row converted from its whole product
        n_max = 8
        roots, nodes = [1 + j * m for j in range(n_max)], [k * l for k in range(n_max)]
        assert wh.whitney1_rows(m, n_max) == converted_rows(roots, nodes, n_max)
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

    def test_forward_difference_path_is_independent(self, monkeypatch, forbid_route):
        # the chain of differences must not lean on the row route or on the
        # alternating sum of thm12, or thm14 would check nothing
        def forbidden(*args):
            raise AssertionError("forward differences reached another route")

        expected = {(3, n, k): wh.whitney2(3, n, k) for n in range(11) for k in range(n + 1)}
        wh._forward_differences.cache_clear()
        forbid_route("newton")
        monkeypatch.setattr(wh, "whitney2_alt", forbidden)
        for (m, n, k), value in expected.items():
            assert wh.whitney2_diff(m, n, k) == value

    def test_forward_differences_take_no_binomial_sum(self, monkeypatch, forbidden):
        # the differences come from the difference table, not from the
        # binomial sum sum_i (-1)^(k-i) C(k,i) f(i), which is thm12's formula
        expected = {(3, n, k): wh.whitney2(3, n, k) for n in range(11) for k in range(n + 1)}
        wh._forward_differences.cache_clear()
        monkeypatch.setattr(wh, "binom", forbidden)
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
                assert acc == LambdaPoly.coerce(1 if n == j else 0)

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

    @pytest.mark.parametrize("oracle", (wh.dowling_gf, wh.tanny_dowling_gf))
    def test_gf_oracle_refuses_an_inexact_x(self, oracle):
        # as the row polynomials do: a bool is no x = 1, a float no rational
        for x in (True, False, 1.0, 0.5):
            with pytest.raises(TypeError, match="^expected an exact rational, got "):
                oracle(1, x, 3)

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
    # an r-Whitney number is an entry of a Newton kernel: the second kind's
    # at (m, r, 1), the first kind's at (m, r)
    def test_row_one(self):
        second, first = newton._second_kind_rows.entry, newton._first_kind_rows.entry
        for m in (1, 2, 3):
            for r in (1, 2, 3):
                assert second(m, r, 1, 1, 0) == LambdaPoly((r,))
                assert second(m, r, 1, 1, 1) == LambdaPoly((1,))
                assert first(m, r, 1, 0) == LambdaPoly((-r,))
                assert first(m, r, 1, 1) == LambdaPoly((1,))

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
        with pytest.raises(ValueError, match="^r must be an integer >= 0, got -1$"):
            newton._second_kind_rows.entry(1, -1, 1, 1, 0)
        with pytest.raises(ValueError, match="^m must be a positive integer, got 0$"):
            newton._first_kind_rows.entry(0, 1, 1, 0)


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
    num, den = dob._dobinski_sum(m, n, p, q, a, b, terms)
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
        res = wh.dobinski_eval(req)
        assert res.passed and res.exact == 2.0
        assert abs(res.truncated - res.exact) < 1e-9

    def test_order_zero_is_one(self):
        for m in (1, 2, 3):
            req = wh.DobinskiRequest(m=m, n=0, x=Fraction(3), lam=Fraction(1, 2), terms=100)
            res = wh.dobinski_eval(req)
            assert res.passed and res.exact == 1.0
            assert abs(res.truncated - 1.0) < 1e-9

    def test_quarter_lambda(self):
        req = wh.DobinskiRequest(m=2, n=4, x=Fraction(1), lam=Fraction(1, 4), terms=200)
        res = wh.dobinski_eval(req)
        assert res.passed and abs(res.truncated - res.exact) < 1e-9

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
            {"tol": True},
        ):
            with pytest.raises(TypeError):
                wh.DobinskiRequest(**{"m": 1, "n": 1, "terms": 50, "x": 1, "lam": 0, **bad})

    def test_whitney_binds_the_evaluator(self):
        # the catalog's thm10 and the benchmark's tracer read it through whitney
        assert wh.dobinski_eval is dob.dobinski_eval
        assert wh.DobinskiRequest is dob.DobinskiRequest

    @pytest.mark.parametrize(
        "m, n, x, lam, terms",
        [
            (1, 3, Fraction(-1), Fraction(0), 10),
            (1, 8, Fraction(101), Fraction(0), 375),
            (2, 5, Fraction(7, 3), Fraction(1, 2), 6),
            (3, 4, Fraction(-5, 2), Fraction(-1, 3), 1),
            (2, 2, Fraction(0), Fraction(1, 4), 3),
            (1, 3, Fraction(5), Fraction(11, 2), 10),  # F(10) = 0
        ],
    )
    def test_omitted_term_is_the_next_term_of_the_series(self, m, n, x, lam, terms):
        # |e^{-z} z^T/T! F(T)| with T = terms, from Fractions and one exp at 80 digits
        z = x / m
        rest = z**terms / factorial(terms) * prod(m * terms + 1 - j * lam for j in range(n))
        got = dob.omitted_term(dob.DobinskiRequest(m=m, n=n, x=x, lam=lam, terms=terms))
        with localcontext() as ctx:
            ctx.prec = 80
            want = abs((Decimal(-z.numerator) / z.denominator).exp() * rest.numerator / rest.denominator)
            assert abs(got - want) <= want * Decimal("1e-55")

    @pytest.mark.parametrize(
        "m, n, x, lam, terms, bounded",
        [
            (1, 3, Fraction(-1), Fraction(0), 10, True),
            (1, 8, Fraction(101), Fraction(0), 375, True),  # rho about 0.274
            (2, 5, Fraction(7, 3), Fraction(1, 2), 6, True),
            (2, 2, Fraction(0), Fraction(1, 4), 3, True),
            (1, 0, Fraction(-3), Fraction(0), 5, True),  # F = 1, rho = 1/2
            (1, 3, Fraction(1000), Fraction(0), 10, False),  # rho about 118
            (1, 3, Fraction(5), Fraction(11, 2), 10, False),  # mT + 1 - 2 lambda = 0
            (1, 2, Fraction(1), Fraction(-30), 1, False),  # rho about 0.77
        ],
    )
    def test_tail_bound_holds_all_the_omitted_terms(self, m, n, x, lam, terms, bounded):
        # diff, the upper end of the exact bracket, is at least e^{-z} times the
        # whole omitted tail, |e^{-z} S - D|; where every mT + 1 - j*lambda is
        # positive and the term ratio rho is at most 1/2, that tail is at most
        # twice the first omitted term
        req = dob.DobinskiRequest(m=m, n=n, x=x, lam=lam, terms=terms)
        tail = self.exact_diff(m, n, x, lam, terms)
        assert Decimal(dob.dobinski_eval(req).diff) >= tail * (1 - Decimal("1e-15"))
        if bounded:
            assert tail <= 2 * dob.omitted_term(req)

    def test_the_callers_decimal_context_is_neither_read_nor_changed(self, clear_caches):
        grid = [
            dob.DobinskiRequest(m=m, n=n, x=x, lam=lam, terms=150)
            for m in (1, 2)
            for n in (0, 5)
            for x in (Fraction(7, 3), Fraction(-5, 2), Fraction(40))
            for lam in (Fraction(0), Fraction(1, 2), Fraction(-1, 3))
        ]
        clear_caches()
        expected = [dob.dobinski_eval(req) for req in grid]
        clear_caches()
        with localcontext() as ctx:
            ctx.prec, ctx.rounding = 12, decimal.ROUND_FLOOR
            ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
            state = (ctx.prec, ctx.rounding, ctx.Emin, ctx.Emax, ctx.clamp)
            traps, flags = dict(ctx.traps), dict(ctx.flags)
            got = [dob.dobinski_eval(req) for req in grid]
            assert decimal.getcontext() is ctx
            assert (ctx.prec, ctx.rounding, ctx.Emin, ctx.Emax, ctx.clamp) == state
            assert dict(ctx.traps) == traps and dict(ctx.flags) == flags
        assert got == expected
        # the memo of e^{-z}, filled under that context, serves the default one alike
        assert [dob.dobinski_eval(req) for req in grid] == expected

    @staticmethod
    def exact_diff(m, n, x, lam, terms) -> Decimal:
        """|e^{-z} S - D| from Fractions and one exp at 200 digits."""
        z, total = x / m, dobinski_series(m, n, x, lam, terms)
        dowling = wh.dowling_poly(m, n, x).eval(lam)
        with localcontext() as ctx:
            ctx.prec = 200
            weight = (Decimal(-z.numerator) / z.denominator).exp()
            value = weight * Decimal(total.numerator) / total.denominator
            return abs(value - Decimal(dowling.numerator) / dowling.denominator)

    def test_pass_rule_is_a_strict_tolerance(self):
        # tol the doubles just above and just below the exact difference
        # 7089.54...: the verdict is pass, then fail
        diff = self.exact_diff(1, 6, Fraction(2), Fraction(0), 2)
        near = float(diff)
        above, below = (near, nextafter(near, 0)) if near > diff else (nextafter(near, inf), near)
        for tol, passed in ((above, True), (below, False)):
            req = wh.DobinskiRequest(m=1, n=6, x=Fraction(2), lam=Fraction(0), terms=2, tol=tol)
            res = wh.dobinski_eval(req)
            assert res.passed is passed
            assert abs(Decimal(res.diff) - diff) <= diff * Decimal("1e-15")

    @pytest.mark.parametrize("tol, passed", [(1e-70, True), (1e-80, False)])
    def test_a_tolerance_below_the_first_bracket_takes_more_digits(self, tol, passed):
        # the halfway point, whose value is near 1.5e16 and whose omitted tail
        # is near 2.6e-76: at 63 digits the bracket of the difference is about
        # 1.5e-43 wide, so either tolerance needs a second, wider precision;
        # diff then bounds the difference to within its last printed digits
        req = wh.DobinskiRequest(m=1, n=8, x=Fraction(101), lam=Fraction(0), terms=375, tol=tol)
        res = wh.dobinski_eval(req)
        diff = self.exact_diff(1, 8, Fraction(101), Fraction(0), 375)
        assert res.passed is passed
        assert abs(Decimal(res.diff) - diff) <= diff * Decimal("1e-15")
        assert 2.5e-76 < res.diff < 2.7e-76

    def test_zero_z_below_any_tolerance(self):
        # at x = 0 both sides are prod_j (1 - j lambda), so even the least
        # positive double passes, after as many doublings of the precision as it takes
        req = wh.DobinskiRequest(m=2, n=5, x=Fraction(0), lam=Fraction(2, 7), terms=7, tol=5e-324)
        res = wh.dobinski_eval(req)
        assert res.passed and res.diff <= 5e-324
        assert res.truncated == res.exact == -15 / 2401

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
        res = wh.dobinski_eval(req)
        assert res.passed
        assert abs(res.truncated - float(wh.dowling_poly(m, 3, x).eval(Fraction(1, 3)))) < req.tol

    @settings(deadline=None, max_examples=examples(40))
    @given(
        st_.integers(min_value=1, max_value=3),
        st_.integers(min_value=0, max_value=8),
        st_.fractions(min_value=0, max_value=1000, max_denominator=10**4).filter(bool),
        st_.fractions(min_value=0, max_value=1, max_denominator=9).filter(lambda q: q < 1),
    )
    def test_matches_exact_value(self, m, n, x, lam):
        terms = ceil(e * x / m) + 100
        req = wh.DobinskiRequest(m=m, n=n, x=x, lam=lam, terms=terms)
        res = wh.dobinski_eval(req)
        # the exact verdict, and two doubles at most one rounding of each apart:
        # an exact value halfway between two doubles passes too
        assert res.passed and res.exact == float(wh.dowling_poly(m, n, x).eval(lam))
        assert abs(res.truncated - res.exact) <= req.tol + 2 * ulp(res.exact)

    def test_beyond_double_range_raises(self):
        big = wh.DobinskiRequest(m=1, n=40, x=Fraction(10**8), lam=Fraction(0), terms=1)
        with pytest.raises(OverflowError, match="^Dowling value 1.000008e"):
            wh.dobinski_eval(big)
        # e^{-x} itself leaves the decimal exponent range
        huge = wh.DobinskiRequest(m=1, n=0, x=Fraction(10**19), lam=Fraction(0), terms=1)
        with pytest.raises(OverflowError, match="decimal exponent range"):
            wh.dobinski_eval(huge)

    @settings(deadline=None, max_examples=examples(150))
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

    @settings(deadline=None, max_examples=examples(300))
    @given(quotient_cases(), st_.sampled_from(ROUNDINGS))
    def test_quotient_is_decimal_division(self, case, rounding):
        num, den, prec = case
        with localcontext() as ctx:
            ctx.prec, ctx.rounding = prec, rounding
            assert dob._decimal_quotient(num, den) == Decimal(num) / Decimal(den)

    def test_quotient_digit_estimate_at_wide_bit_gaps(self):
        # 0.3 for log10(2) would lose a digit per ~1000 bits of den over num
        for gap in (1, 999, 3322, 10**4, 4 * 10**4):
            for num, den in ((3, 7 << gap), (-(7 << gap), 3)):
                with localcontext() as ctx:
                    ctx.prec = 30
                    assert dob._decimal_quotient(num, den) == Decimal(num) / Decimal(den)


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
            assert tri[n][k] == expect

    def test_r_families(self):
        tri = wh.build_triangle("WdegR", 2, 3, 2)
        assert tri[1][0] == LambdaPoly((3,))
        tri1 = wh.build_triangle("VdegR", 2, 3, 2)
        assert tri1[1][0] == LambdaPoly((-3,))

    def test_bad_family(self):
        with pytest.raises(ValueError):
            wh.build_triangle("nosuch", 1, 1, 2)
        with pytest.raises(ValueError):
            wh.family_rows("nosuch", 1, 1)

    @pytest.mark.parametrize("family", [f.value for f in Family])
    def test_rows_are_the_store_rows(self, family):
        # the export's rows and the catalog's store rows come from one generator
        store, params = {
            "S1": (st._stirling1_rows, ()),
            "S2": (st._stirling2_rows, ()),
            "S1deg": (st._first_kind_rows, (1, 0)),
            "S2deg": (st._second_kind_rows, (1, 0, 1)),
            "S1degR": (st.deg_r_stirling1_unsigned_rows, (2,)),
            "S2degR": (st._second_kind_rows, (1, 2, 1)),
            "Wdeg": (st._second_kind_rows, (3, 1, 1)),
            "Vdeg": (st._first_kind_rows, (3, 1)),
            "WdegR": (st._second_kind_rows, (3, 2, 1)),
            "VdegR": (st._first_kind_rows, (3, 2)),
        }[family]
        tri = wh.build_triangle(family, 3, 2, 12)
        assert tri == tuple(tuple(map(LambdaPoly.coerce, row)) for row in store(*params, 12))

    def test_argument_errors_come_before_any_row(self):
        for m, r in ((0, 1), (1, -1), (-2, 3)):
            with pytest.raises(ValueError):
                wh.family_rows("VdegR", m, r)
        with pytest.raises(ValueError, match="^r must be an integer >= 0, got -1$"):
            wh.family_rows("S1degR", 1, -1)
        with pytest.raises(ValueError, match="^n_max must be an integer >= 0, got -1$"):
            wh.build_triangle("Wdeg", 1, 1, -1)


# The builders that take the first rows of an endless row generator, as
# functions of n_max.
FIRST_ROWS = {
    "classical_whitney2_rows": lambda n_max: wh.classical_whitney2_rows(2, n_max),
    "classical_whitney1_rows": lambda n_max: wh.classical_whitney1_rows(2, n_max),
    "r_whitney1_rows_direct": lambda n_max: wh.r_whitney1_rows_direct(2, 1, n_max),
    "build_triangle": lambda n_max: wh.build_triangle("Wdeg", 2, 1, n_max),
}


@pytest.mark.parametrize("name", sorted(FIRST_ROWS))
def test_first_rows_refuse_a_bad_n_max(name):
    # as the row stores do, instead of an empty triangle or islice's message
    build = FIRST_ROWS[name]
    assert len(build(0)) == 1
    for n_max in (-1, -2):
        with pytest.raises(ValueError, match=f"^n_max must be an integer >= 0, got {n_max}$"):
            build(n_max)
    with pytest.raises(TypeError, match="^expected an int, got float$"):
        build(2.0)


# The GF oracle of each family that reads m or r, as a function of (m, r, n_max).
GF_ORACLES = {
    "Wdeg": lambda m, r, n_max: wh.whitney2_rows_gf(m, n_max),
    "Vdeg": lambda m, r, n_max: wh.whitney1_rows_gf(m, n_max),
    "WdegR": wh.r_whitney2_rows_gf,
    "VdegR": wh.r_whitney1_rows_gf,
    "S1degR": lambda m, r, n_max: st.deg_r_stirling1_unsigned_rows_gf(r, n_max),
    "S2degR": lambda m, r, n_max: st.deg_r_stirling2_rows_gf(r, n_max),
}


@pytest.mark.parametrize("family", sorted(GF_ORACLES))
@settings(deadline=None, max_examples=examples(40))
@given(m=st_.integers(1, 12), n_max=st_.integers(0, 10), data=st_.data())
def test_routes_agree_over_the_accepted_domain(family, m, n_max, data):
    # the catalog checks m, r in {1, 2, 3} only; the CLI exports every family
    # over the one domain m >= 1, r >= 0
    r = data.draw(st_.integers(0, 12))
    rows = tuple(islice(wh.family_rows(family, m, r), n_max + 1))
    assert rows == GF_ORACLES[family](m, r, n_max)


# Each rescaled triangle of the catalog, as rows(m, n_max), and its
# definition: an entry of the original triangle at (m, n, k) with l rescaled,
# times the power of m or m+1 that clears the rescaling.  All are rows of the
# Newton kernels: the Stirling ones at r = 0, whose keys name the stores that
# held them before the kernels did, and the W one at (m(m+1), m+1, m).
RESCALED = {
    "_stirling2_over_m_rows": (
        lambda m, n_max: st._second_kind_rows(m, 0, 1, n_max),
        lambda m, n, k: st.deg_stirling2(n, k).scale_lambda(Fraction(1, m)) * m ** (n - k),
    ),
    "_stirling1_over_m_rows": (
        lambda m, n_max: st._first_kind_rows(m, 0, n_max),
        lambda m, n, k: st.deg_stirling1(n, k).scale_lambda(Fraction(1, m)) * m ** (n - k),
    ),
    "whitney2_rescaled": (
        lambda m, n_max: st._second_kind_rows(m * (m + 1), m + 1, m, n_max),
        lambda m, n, k: wh.whitney2(m, n, k).scale_lambda(Fraction(m, m + 1)) * (m + 1) ** (n - k),
    ),
}


@pytest.mark.parametrize("name", sorted(RESCALED))
@settings(deadline=None, max_examples=examples(15))
@given(m=st_.integers(1, 12), n_max=st_.integers(0, 16))
def test_rescaled_store_is_the_rescaled_triangle(name, m, n_max):
    rows, definition = RESCALED[name]
    expected = tuple(
        tuple(definition(m, n, k) for k in range(n + 1)) for n in range(n_max + 1)
    )
    assert rows(m, n_max) == expected


@settings(deadline=None, max_examples=examples(15))
@given(m=st_.integers(1, 12), n=st_.integers(0, 16), x=st_.fractions(max_denominator=10))
def test_rescaled_bell_value_is_a_row_sum(m, n, x):
    # m^n Bdeg_n(x/m) at l -> l/m, which thm23 transforms and thm26 compares
    expected = st.deg_bell(n, x / m).scale_lambda(Fraction(1, m)) * m**n
    assert wh._row_sum((m, 0, 1), n, x, False) == expected


# The keys of the second-kind kernel whose row sums the package reads: the
# Bell store at (1, 0, 1), the W store at (2, 1, 1), the rescaled Bell store
# at (3, 0, 1), the rescaled W store of cor22 at m = 2.
ROW_SUM_KEYS = ((1, 0, 1), (2, 1, 1), (3, 0, 1), (6, 3, 2))


@pytest.mark.parametrize("ordered", (False, True))
@pytest.mark.parametrize(
    "x", (Fraction(0), Fraction(1), Fraction(-3), Fraction(-7, 4), Fraction(2, 3)), ids=str
)
def test_row_sum_is_the_fraction_power_sum(x, ordered):
    # the int weights p^k q^(n-k) k! over q^n give the canonical form of
    # sum_k T(n,k) x^k k! taken with Fraction powers
    row_sum = wh._row_sum.__wrapped__  # past the memo
    for params in ROW_SUM_KEYS:
        for n in range(10):
            row = newton._second_kind_rows(*params, n)[n]
            want = LambdaPoly()
            for k in range(n + 1):
                want = want + row[k] * (x**k * (factorial(k) if ordered else 1))
            got = row_sum(params, n, x, ordered)
            assert (got.nums, got.den) == (want.nums, want.den)


# Each accessor with int arguments, and the two readers of an int index that
# the identity sums use (binom, a series coefficient); every one of them must
# refuse an equal float or bool even after the int call has filled the caches.
INT_ONLY = {
    "whitney2": (wh.whitney2, (1, 3, 1)),
    "whitney1": (wh.whitney1, (1, 3, 1)),
    "whitney2_or_zero": (wh.whitney2_or_zero, (1, 3, 1)),
    # outside the triangle too: m is checked before the range test
    "whitney2_or_zero_outside": (wh.whitney2_or_zero, (1, 3, 5)),
    "whitney2_rows": (wh.whitney2_rows, (1, 3)),
    "whitney1_rows": (wh.whitney1_rows, (1, 3)),
    "whitney2_rows_newton": (wh.whitney2_rows_newton, (1, 3)),
    "whitney1_rows_newton": (wh.whitney1_rows_newton, (1, 3)),
    "whitney2_diff": (wh.whitney2_diff, (1, 3, 1)),
    # the r-Whitney numbers, read off their kernels at (m, r, 1) and (m, r)
    "r_whitney2": (newton._second_kind_rows.entry, (1, 1, 1, 3, 1)),
    "r_whitney1": (newton._first_kind_rows.entry, (1, 1, 3, 1)),
    "r_whitney2_rows": (wh.r_whitney2_rows, (1, 1, 3)),
    "r_whitney1_rows": (wh.r_whitney1_rows, (1, 1, 3)),
    "dowling_poly": (wh.dowling_poly, (1, 3, 1)),
    "tanny_dowling_poly": (wh.tanny_dowling_poly, (1, 3, 1)),
    "build_triangle": (lambda m, r, n_max: wh.build_triangle("WdegR", m, r, n_max), (1, 1, 3)),
    "family_rows": (lambda m, r: wh.family_rows("WdegR", m, r), (1, 1)),
    "binom": (binom, (3, 1)),
    "TruncatedSeries.coeff": (series.t_series(3).coeff, (1,)),
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
            newton._first_kind_rows.entry(1, 1, 2, -1)
        for n, k in ((-1, 0), (0, -1)):
            with pytest.raises(IndexError, match=rf"^\({n}, {k}\) outside domain$"):
                wh.whitney2_alt(1, n, k, "sum_T12")


class TestRowStore:
    def test_one_store_extends_by_prefix(self):
        store = st._second_kind_rows  # W is its key (m, 1, 1)
        store.cache_clear()
        built = [wh.whitney2_rows(3, n) for n in range(25)]
        assert store.cache_info().currsize == 1
        assert wh.whitney2_rows(3, 7) == built[7]
        for n, rows in enumerate(built):
            store.cache_clear()
            assert rows == wh.whitney2_rows(3, n)

    # (the store, the rows function that reads it, a good and a bad call);
    # the ids of the kernel's r = 0 rows name the stores that held them before
    @pytest.mark.parametrize(
        "store, rows, good, bad",
        [
            pytest.param(st._second_kind_rows, wh.whitney2_rows, (2, 3), (0, 3),
                         id="whitney2_rows"),
            pytest.param(st._first_kind_rows, wh.whitney1_rows, (2, 3), (-1, 3),
                         id="whitney1_rows"),
            pytest.param(st._first_kind_rows, wh.r_whitney1_rows, (2, 1, 3), (2, -1, 3),
                         id="r_whitney1_rows"),
            pytest.param(st._second_kind_rows, wh.r_whitney2_rows, (2, 1, 3), (0, 1, 3),
                         id="r_whitney2_rows"),
            pytest.param(st._second_kind_rows, st._second_kind_rows, (2, 0, 1, 3), (0, 0, 1, 3),
                         id="_stirling2_over_m_rows"),
            pytest.param(st._first_kind_rows, st._first_kind_rows, (2, 0, 3), (0, 0, 3),
                         id="_stirling1_over_m_rows"),
            pytest.param(st._second_kind_rows, st._second_kind_rows, (6, 3, 2, 3), (0, 1, 0, 3),
                         id="whitney2_rescaled"),
        ],
    )
    def test_refused_call_stores_nothing(self, store, rows, good, bad):
        store.cache_clear()
        rows(*good)
        with pytest.raises(ValueError):
            rows(*bad)
        assert store.cache_info().currsize == 1
        assert len(rows(*good[:-1], 5)) == 6

    @pytest.mark.parametrize("store, step", [
        pytest.param(st._second_kind_rows, (1,), id="_second_kind_rows-r_whitney2"),
        pytest.param(st._first_kind_rows, (), id="_first_kind_rows-r_whitney1"),
    ])
    def test_r_whitney_entry_refuses_what_its_store_takes(self, store, step):
        # the r-Whitney numbers, the entries at (m, r) with the second kind's
        # step 1, take the kernel's one domain, r = 0 included; they refuse
        # r < 0 after (n, k) and m, and store nothing
        read = lambda m, r, n, k: store.entry(m, r, *step, n, k)
        store.cache_clear()
        for r in (-1, -2):
            with pytest.raises(ValueError, match=f"^r must be an integer >= 0, got {r}$"):
                read(2, r, 3, 1)
        with pytest.raises(IndexError):
            read(0, -1, 1, 3)
        with pytest.raises(ValueError, match="^m must be a positive integer, got 0$"):
            read(0, -1, 3, 1)
        assert store.cache_info().currsize == 0


# Each scalar accessor, as (its row store, the store parameters it reads,
# the accessor called with those parameters and (n, k)).
M_ = st_.integers(1, 4)
R_ = st_.integers(1, 3)
READERS = {
    "stirling1": (st._stirling1_rows, st_.tuples(), st.stirling1),
    "stirling2": (st._stirling2_rows, st_.tuples(), st.stirling2),
    "deg_stirling1": (
        st._first_kind_rows, st_.just((1, 0)), lambda m, r, n, k: st.deg_stirling1(n, k)
    ),
    "deg_stirling2": (
        st._second_kind_rows, st_.just((1, 0, 1)), lambda m, r, s, n, k: st.deg_stirling2(n, k)
    ),
    # the degenerate r-Stirling numbers are the kernels' entries at m = 1
    # (the unsigned first kind up to the sign (-1)^(n-k))
    "deg_r_stirling2": (
        st._second_kind_rows,
        st_.tuples(st_.just(1), st_.integers(0, 3), st_.just(1)),
        st._second_kind_rows.entry,
    ),
    "deg_r_stirling1_unsigned": (
        st._first_kind_rows, st_.tuples(st_.just(1), st_.integers(0, 3)), st._first_kind_rows.entry
    ),
    # W and V are the kernels at r = 1
    "whitney2": (
        st._second_kind_rows,
        st_.tuples(M_, st_.just(1), st_.just(1)),
        lambda m, r, s, n, k: wh.whitney2(m, n, k),
    ),
    "whitney1": (
        st._first_kind_rows, st_.tuples(M_, st_.just(1)), lambda m, r, n, k: wh.whitney1(m, n, k)
    ),
    # and so are the r-Whitney numbers, at (m, r)
    "r_whitney2": (
        st._second_kind_rows, st_.tuples(M_, R_, st_.just(1)), st._second_kind_rows.entry
    ),
    "r_whitney1": (st._first_kind_rows, st_.tuples(M_, R_), st._first_kind_rows.entry),
    # the rescaled triangles of the catalog are read through their entry alone
    "stirling2_over_m": (
        st._second_kind_rows, st_.tuples(M_, st_.just(0), st_.just(1)), st._second_kind_rows.entry
    ),
    "stirling1_over_m": (
        st._first_kind_rows, st_.tuples(M_, st_.just(0)), st._first_kind_rows.entry
    ),
    "whitney2_rescaled": (
        st._second_kind_rows,
        M_.map(lambda m: (m * (m + 1), m + 1, m)),
        st._second_kind_rows.entry,
    ),
}


# The positions of the store parameters that an accessor fixes: m = 1 and
# r = 0 for the degenerate Stirling numbers, r = 1 for W and V, and the step
# s = 1 of the second-kind kernel for each of its accessors.
FIXED_PARAMS = {"deg_stirling1": (0, 1), "deg_stirling2": (0, 1, 2), "whitney2": (1, 2),
                "whitney1": (1,)}


def refusal(call, *args) -> tuple:
    """The type and message of the exception ``call(*args)`` raises."""
    with pytest.raises((TypeError, IndexError)) as info:
        call(*args)
    return info.type, str(info.value)


class TestEntryReader:
    def test_every_store_has_an_accessor(self):
        stores = {fn for fn in vars(newton).values() if hasattr(fn, "entry")}
        assert stores == {store for store, _, _ in READERS.values()}

    @pytest.mark.parametrize("name", sorted(READERS))
    @settings(deadline=None, max_examples=examples(30))
    @given(data=st_.data())
    def test_entry_is_the_store_entry(self, name, data):
        store, params, accessor = READERS[name]
        p = data.draw(params)
        n = data.draw(st_.integers(0, 30))
        k = data.draw(st_.integers(0, n))
        assert store.entry(*p, n, k) == store(*p, n)[n][k] == accessor(*p, n, k)

    @pytest.mark.parametrize("name", sorted(READERS))
    @settings(deadline=None, max_examples=examples(30))
    @given(data=st_.data())
    def test_refusals_match_the_accessor(self, name, data):
        store, params, accessor = READERS[name]
        p = data.draw(params)
        n, k = data.draw(st_.integers(-3, 33)), data.draw(st_.integers(-3, 33))
        if not 0 <= k <= n:
            expected = (IndexError, f"({n}, {k}) outside triangle")
            assert refusal(store.entry, *p, n, k) == refusal(accessor, *p, n, k) == expected
        args = (*p, abs(n), abs(k))
        # an accessor that fixes store parameters does not take them
        fixed = FIXED_PARAMS.get(name, ())
        i = data.draw(st_.sampled_from([i for i in range(len(args)) if i not in fixed]))
        bad = data.draw(st_.sampled_from(equal_non_ints(args[i])))
        args = (*args[:i], bad, *args[i + 1 :])
        expected = (TypeError, f"expected an int, got {type(bad).__name__}")
        assert refusal(store.entry, *args) == refusal(accessor, *args) == expected

    @pytest.mark.parametrize("name", sorted(READERS))
    @settings(deadline=None, max_examples=examples(5))
    @given(data=st_.data())
    def test_entry_fills_the_store_that_rows_reads(self, name, data):
        store, params, _ = READERS[name]
        p = data.draw(params)
        store.cache_clear()
        store.entry(*p, 20, 7)
        before = store.cache_info()
        assert len(store(*p, 20)) == 21
        after = store.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert after.currsize == before.currsize == 1


def _eq74_gf(r: int, n_max: int) -> tuple:
    """The rows of eq74's GF side, read off the catalog's declared row."""
    read = idn.ROWS["eq74"].lhs.values(r, n_max)
    return tuple(tuple(read(n, k) for k in range(n + 1)) for n in range(n_max + 1))


# Each triangle reader of the Newton and GF routes: its arguments before
# n_max, its kernel and the parameters it reads that kernel at, and a call
# that it refuses.  S1degR reads the first-kind kernel under X -> -X.
NEWTON_2, NEWTON_1 = newton._second_kind_rows, newton._first_kind_rows
GF_2, GF_1 = series._second_kind_gf, series._first_kind_gf
KERNEL_READERS = {
    "deg_stirling2_rows": (st.deg_stirling2_rows, (), NEWTON_2, (1, 0, 1), (-1,)),
    "deg_r_stirling2_rows": (st.deg_r_stirling2_rows, (2,), NEWTON_2, (1, 2, 1), (-1, 4)),
    "whitney2_rows_newton": (wh.whitney2_rows_newton, (3,), NEWTON_2, (3, 1, 1), (0, 4)),
    "r_whitney2_rows": (wh.r_whitney2_rows, (3, 2), NEWTON_2, (3, 2, 1), (3, -1, 4)),
    "deg_stirling1_rows": (st.deg_stirling1_rows, (), NEWTON_1, (1, 0), (-1,)),
    "deg_r_stirling1_unsigned_rows": (
        st.deg_r_stirling1_unsigned_rows, (2,), NEWTON_1, (1, 2), (-1, 4)
    ),
    "whitney1_rows_newton": (wh.whitney1_rows_newton, (3,), NEWTON_1, (3, 1), (0, 4)),
    "r_whitney1_rows": (wh.r_whitney1_rows, (3, 2), NEWTON_1, (3, 2), (3, -1, 4)),
    "deg_stirling2_rows_gf": (st.deg_stirling2_rows_gf, (), GF_2, (1, 0), (-1,)),
    "deg_r_stirling2_rows_gf": (st.deg_r_stirling2_rows_gf, (2,), GF_2, (1, 2), (-1, 4)),
    "whitney2_rows_gf": (wh.whitney2_rows_gf, (3,), GF_2, (3, 1), (0, 4)),
    "r_whitney2_rows_gf": (wh.r_whitney2_rows_gf, (3, 2), GF_2, (3, 2), (3, -1, 4)),
    "deg_stirling1_rows_gf": (st.deg_stirling1_rows_gf, (), GF_1, (1, 0), (-1,)),
    "eq74_gf": (_eq74_gf, (2,), GF_1, (1, 2), (-1, 4)),
    "whitney1_rows_gf": (wh.whitney1_rows_gf, (3,), GF_1, (3, 1), (0, 4)),
    "r_whitney1_rows_gf": (wh.r_whitney1_rows_gf, (3, 2), GF_1, (3, 2), (3, -1, 4)),
}


@pytest.mark.parametrize("name", sorted(KERNEL_READERS))
def test_reader_is_its_kernel_at_its_parameters(name, clear_caches):
    reader, args, kernel, params, refused = KERNEL_READERS[name]
    clear_caches()
    with pytest.raises(ValueError):
        reader(*refused)
    # a refused call stores nothing, in its kernel or in any other cache
    assert [cache.cache_info().currsize for cache in CACHES] == [0] * len(CACHES)
    rows = kernel(*params, 9)
    if name == "deg_r_stirling1_unsigned_rows":
        rows = tuple(tuple(v * (-1) ** (n - k) for k, v in enumerate(row))
                     for n, row in enumerate(rows))
    assert reader(*args, 9) == rows


def test_four_row_stores():
    # the classical Stirling tables and one kernel per kind, all of the Newton
    # route; every other triangle reads one of them.  A store is counted by its
    # entry reader, since newton also holds the row-sum memo over its kernel
    readers = {
        fn.cache_info.__self__
        for name, module in sorted(sys.modules.items()) if name.startswith("dowlab.")
        for fn in vars(module).values() if hasattr(fn, "entry")
    }
    stores = [c for c in CACHES if c in readers]
    assert len(stores) == 4 and set(stores) == readers
    assert {c.__module__ for c in stores} == {"dowlab.newton"}
    others = [c for c in CACHES if c.__module__ == "dowlab.newton" and c not in readers]
    assert others == [newton._row_sum]


class TestRouteIndependence:
    # The identity catalog compares the Newton and GF routes; that only
    # checks something while neither route leans on the other's code.
    M_SET = (1, 2, 3)
    N_MAX = 8

    def test_gf_route_needs_neither(self, forbid_route, clear_caches):
        expected = {
            m: (wh.whitney2_rows(m, self.N_MAX), wh.whitney1_rows(m, self.N_MAX))
            for m in self.M_SET
        }
        forbid_route("newton")
        clear_caches()
        for m, (second, first) in expected.items():
            assert wh.whitney2_rows_gf(m, self.N_MAX) == second
            assert wh.whitney1_rows_gf(m, self.N_MAX) == first
        # no row store and no memo was read: only the GF route's own stores,
        # its two kernels, hold anything, a triangle per kind and m
        held = {cache.__name__: cache.cache_info().currsize for cache in CACHES}
        assert held["_second_kind_gf"] == held["_first_kind_gf"] == len(self.M_SET)
        gf_stores = {"_second_kind_gf", "_first_kind_gf"}
        assert gf_stores <= set(held)
        assert all(size == 0 for name, size in held.items() if name not in gf_stores)
