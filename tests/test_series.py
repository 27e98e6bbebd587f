"""Truncated EGF ring: products, division, composition, special series."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from dowlab.exact import LAMBDA, LambdaPoly
from dowlab.series import (
    TruncatedSeries,
    binomial_series,
    deg_exp,
    deg_log,
    deg_log_of_one_plus,
    gf_triangle,
    one_series,
    power_of_one_plus,
    t_series,
)
from dowlab.whitney import v0

l = LAMBDA


def test_deg_exp_coefficients():
    e = deg_exp(1, 3)
    assert list(e.coeffs) == [
        LambdaPoly((1,)),
        LambdaPoly((1,)),
        LambdaPoly((1, -1)),
        LambdaPoly((1, -3, 2)),
    ]


def test_deg_exp_zero_exponent():
    assert deg_exp(0, 4) == one_series(4)


def test_deg_exp_constant_exponent():
    assert deg_exp(2, 2).coeff(2) == LambdaPoly((4, -2))  # 2(2-l)


def test_mul_square_of_exp():
    n = 6
    assert deg_exp(1, n) * deg_exp(1, n) == deg_exp(2, n)


def test_mul_identity():
    f = deg_exp(3, 5).scale_t(2)
    assert f * one_series(5) == f


@pytest.mark.parametrize("n", (0, 1, 5, 12))
def test_gf_triangle_costs_one_product_per_column(monkeypatch, n):
    base, prefactor = deg_exp(1, n) - one_series(n), deg_exp(2, n)
    products = []
    mul = TruncatedSeries.__mul__

    def counted(self, other):
        products.append((self.order, other.order))
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    gf_triangle(base, prefactor, n)
    assert len(products) == n


def test_gf_triangle_refuses_short_inputs():
    with pytest.raises(ValueError):
        gf_triangle(t_series(3), one_series(3), -1)
    with pytest.raises(IndexError):
        gf_triangle(t_series(3), one_series(2), 3)


def test_pow_is_repeated_product():
    e = deg_exp(1, 5)
    assert e**0 == one_series(5)
    assert e**3 == e * e * e


@pytest.mark.parametrize("bad", [True, False, 2.0, 0.0])
def test_pow_refuses_a_bool_or_float_exponent(bad):
    with pytest.raises(TypeError, match="expected an int"):
        deg_exp(1, 5) ** bad


def test_mul_t_squared():
    tt = t_series(4) * t_series(4)
    assert list(tt.coeffs) == [LambdaPoly(), LambdaPoly(), LambdaPoly((2,)), LambdaPoly(), LambdaPoly()]


class TestDivision:
    def test_bernoulli_generator(self):
        n = 4
        q = t_series(n).divide(deg_exp(1, n) - one_series(n), 1)
        assert q.coeff(0) == LambdaPoly((1,))
        assert q.coeff(1) == LambdaPoly((Fraction(-1, 2), Fraction(1, 2)))

    def test_self_division(self):
        f = deg_exp(1, 5) - one_series(5)
        assert f.divide(f, 1) == one_series(4)

    def test_shifted_numerator(self):
        # (e_l(t)-1)/t: true function division, so a_1 = (1-l)/2
        n = 4
        q = (deg_exp(1, n) - one_series(n)).divide(t_series(n), 1)
        assert q.coeff(0) == LambdaPoly((1,))
        assert q.coeff(1) == LambdaPoly((Fraction(1, 2), Fraction(-1, 2)))

    def test_rejects_noninvertible_constant(self):
        f = one_series(3)
        g = deg_exp(1, 3) - one_series(3)  # constant term 0
        with pytest.raises(ValueError):
            f.divide(g, 0)

    def test_rejects_polynomial_constant(self):
        g = TruncatedSeries.from_coeffs((LambdaPoly((1, 1)),), 3)  # 1 + l
        with pytest.raises(ValueError):
            one_series(3).divide(g, 0)

    def test_rejects_missing_zeros(self):
        with pytest.raises(ValueError):
            one_series(3).divide(t_series(3), 1)


class TestComposition:
    def test_log_inverts_exp(self):
        n = 16
        comp = deg_log(n).compose(deg_exp(1, n) - one_series(n))
        assert comp == t_series(n)

    def test_identity_inner(self):
        f = deg_exp(2, 6)
        assert f.compose(t_series(6)) == f

    def test_bell_numbers(self):
        n = 3
        exp_t = TruncatedSeries.from_coeffs([1] * (n + 1), n)  # e^t
        bell = exp_t.compose(deg_exp(1, n) - one_series(n))
        assert bell.coeff(2) == LambdaPoly((2, -1))
        assert bell.coeff(3) == LambdaPoly((5, -6, 2))

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError):
            deg_log(4).compose(one_series(4))


class TestExp:
    def test_exp_zero(self):
        zero = TruncatedSeries.from_coeffs((), 5)
        assert zero.exp() == one_series(5)

    def test_exp_t(self):
        assert t_series(6).exp() == TruncatedSeries.from_coeffs([1] * 7, 6)

    def test_exp_matches_compose(self):
        n = 8
        inner = deg_exp(1, n) - one_series(n)
        exp_t = TruncatedSeries.from_coeffs([1] * (n + 1), n)
        assert inner.exp() == exp_t.compose(inner)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError):
            one_series(4).exp()


def test_deg_log_closed_form():
    lg = deg_log(5)
    assert lg.coeff(0) == LambdaPoly()
    assert lg.coeff(1) == LambdaPoly((1,))
    assert lg.coeff(3) == (l - 1) * (l - 2)
    # classical limit: a_n -> (-1)^(n-1) (n-1)!
    for n in range(1, 6):
        expect = Fraction((-1) ** (n - 1) * factorial(n - 1))
        assert lg.coeff(n).eval(0) == expect


def test_binomial_series_linear():
    s = binomial_series(1, 1, 4)
    assert s.coeff(0) == LambdaPoly((1,))
    assert s.coeff(1) == LambdaPoly((1,))
    assert all(s.coeff(n).is_zero() for n in range(2, 5))


def test_binomial_series_half():
    s = binomial_series(Fraction(1, 2), 2, 2)
    assert s.coeff(1) == LambdaPoly((1,))
    assert s.coeff(2) == LambdaPoly((-1,))


@pytest.mark.parametrize("alpha, c", [(0.5, 1), (1, 0.5), (True, 1), (1, True)])
def test_binomial_series_refuses_inexact_arguments(alpha, c):
    with pytest.raises(TypeError):
        binomial_series(alpha, c, 2)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_binomial_series_whitney1_column(m):
    s = binomial_series(Fraction(-1, m), m, 6)
    for n in range(7):
        assert s.coeff(n) == v0(m, n)


def test_coeff_bounds():
    f = one_series(3)
    assert f.coeff(0) == LambdaPoly((1,))
    assert f.coeff(3) == LambdaPoly()
    with pytest.raises(IndexError):
        f.coeff(4)
    with pytest.raises(IndexError):
        f.coeff(-1)


def test_scale_t():
    lg = deg_log(4)
    neg = lg.scale_t(-1)
    for n in range(5):
        assert neg.coeff(n) == lg.coeff(n) * ((-1) ** n)


@pytest.mark.parametrize("factor", [0.5, -1.0, True])
def test_scale_t_refuses_inexact_factor(factor):
    with pytest.raises(TypeError):
        deg_log(4).scale_t(factor)


def test_truncation_to_min_order():
    a = deg_exp(1, 6)
    b = one_series(3)
    assert (a * b).order == 3
    assert (a + b).order == 3


small_polys = st_.lists(
    st_.fractions(min_value=-4, max_value=4, max_denominator=4), min_size=0, max_size=3
).map(LambdaPoly)
series = st_.lists(small_polys, min_size=1, max_size=5).map(
    lambda cs: TruncatedSeries.from_coeffs(cs, 4)
)


@settings(deadline=None)
@given(series, series)
def test_mul_commutative(f, g):
    assert f * g == g * f


@settings(deadline=None)
@given(series, series, series)
def test_mul_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


unit_series = st_.lists(small_polys, min_size=0, max_size=4).map(
    lambda cs: TruncatedSeries.from_coeffs([LambdaPoly((1,))] + cs, 4)
)


@settings(deadline=None)
@given(series, unit_series)
def test_div_inverts_mul(f, g):
    assert (f * g).divide(g, 0) == f


# An inner series for the first-order solver: zero constant term, rational
# or low-degree coefficients, any order from 0 to 12.
inner_series = st_.integers(min_value=0, max_value=12).flatmap(
    lambda order: st_.lists(small_polys, min_size=order, max_size=order).map(
        lambda cs: TruncatedSeries.from_coeffs([LambdaPoly()] + cs, order)
    )
)
rational_inner_series = st_.integers(min_value=0, max_value=12).flatmap(
    lambda order: st_.lists(
        st_.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=order, max_size=order
    ).map(lambda cs: TruncatedSeries.from_coeffs([0] + cs, order))
)
exponents = st_.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestFirstOrderSolver:
    """Powers and log_l of 1 + g from the first-order recurrence, against
    the Horner composition ``compose`` as reference."""

    @settings(deadline=None)
    @given(st_.one_of(rational_inner_series, inner_series), exponents)
    def test_power_equals_composition(self, g, beta):
        assert power_of_one_plus(g, beta) == binomial_series(beta, 1, g.order).compose(g)

    @settings(deadline=None)
    @given(st_.one_of(rational_inner_series, inner_series))
    def test_deg_log_equals_composition(self, g):
        assert deg_log_of_one_plus(g) == deg_log(g.order).compose(g)

    def test_order_zero(self):
        zero = TruncatedSeries.from_coeffs((), 0)
        assert power_of_one_plus(zero, Fraction(-1, 2)) == one_series(0)
        assert deg_log_of_one_plus(zero) == zero

    def test_log_inverts_exp(self):
        n = 16
        assert deg_log_of_one_plus(deg_exp(1, n) - one_series(n)) == t_series(n)

    def test_rejects_nonzero_constant_like_compose(self):
        g = deg_exp(1, 4)  # constant term 1
        with pytest.raises(ValueError) as reference:
            deg_log(4).compose(g)
        for solve in (lambda: power_of_one_plus(g, 2), lambda: deg_log_of_one_plus(g)):
            with pytest.raises(ValueError) as refused:
                solve()
            assert str(refused.value) == str(reference.value)
