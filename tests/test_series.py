"""Truncated EGF ring: products, division, composition, special series."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from dowlab.bases import lambda_falling
from dowlab.bernoulli_euler import deg_bernoulli_gf, deg_euler_gf
from dowlab.exact import LAMBDA, ZERO, LambdaPoly
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
from dowlab.stirling import deg_r_stirling2_rows
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
    gf_triangle(base, prefactor)
    assert len(products) == n
    # gf_triangle holds nothing (the GF kernels hold their triangles), so a
    # second call costs its products again
    gf_triangle(base, prefactor)
    assert len(products) == 2 * n


def test_gf_triangle_divides_no_leading_zero(monkeypatch):
    # column k has k leading zeros, which stay as the product wrote them, so
    # only its coefficients k..n_max are divided by k: 10 + 9 + ... + 1
    base, prefactor = deg_exp(1, 10) - one_series(10), deg_exp(2, 10)
    divisions = []
    div = LambdaPoly.__truediv__

    def counted(self, other):
        divisions.append(other)
        return div(self, other)

    monkeypatch.setattr(LambdaPoly, "__truediv__", counted)
    rows = gf_triangle(base, prefactor)  # it holds no triangle, so each call divides
    assert len(divisions) == 55
    # the coefficients of (e_l(t)-1)^k e_l^2(t) / k!, by the Newton route
    assert rows == deg_r_stirling2_rows(2, 10)


@pytest.mark.parametrize("short", ("base", "prefactor"))
def test_gf_triangle_is_as_long_as_its_shorter_series(short):
    # the triangle's n_max is the smaller order of its two series, and its
    # rows are the leading rows of the triangle at the larger order
    base, prefactor = deg_exp(1, 10) - one_series(10), deg_exp(2, 10)
    full = gf_triangle(base, prefactor)
    assert len(full) == 11
    for n_max in (0, 1, 6):
        if short == "base":
            rows = gf_triangle(base.truncate(n_max), prefactor)
        else:
            rows = gf_triangle(base, prefactor.truncate(n_max))
        assert rows == full[: n_max + 1]


@pytest.mark.parametrize("bad", [True, False, 2.0, 0.0])
def test_pow_refuses_a_bool_or_float_exponent(bad):
    with pytest.raises(TypeError, match="expected an int"):
        deg_exp(1, 5) ** bad


def test_mul_t_squared():
    tt = t_series(4) * t_series(4)
    assert list(tt.coeffs) == [LambdaPoly(), LambdaPoly(), LambdaPoly((2,)), LambdaPoly(), LambdaPoly()]


def bernoulli_quotient(order: int) -> TruncatedSeries:
    """t/(e_l(t)-1) to t^order, as 1 over (e_l(t)-1)/t: coefficient n of that
    divisor is a_{n+1}/(n+1), for the coefficients a_n of e_l(t)."""
    a = deg_exp(1, order + 1).coeffs
    divisor = TruncatedSeries(tuple(a[n + 1] / (n + 1) for n in range(order + 1)))
    return one_series(order).divide(divisor)


def euler_quotient(order: int) -> TruncatedSeries:
    """2/(e_l(t)+1) to t^order."""
    return one_series(order).scaled(2).divide(deg_exp(1, order) + one_series(order))


class TestDivision:
    def test_bernoulli_generator(self):
        q = bernoulli_quotient(4)  # t/(e_l(t)-1), as 1 over (e_l(t)-1)/t
        assert q.coeff(0) == LambdaPoly((1,))
        assert q.coeff(1) == LambdaPoly((Fraction(-1, 2), Fraction(1, 2)))

    @pytest.mark.parametrize("k", range(7))
    def test_bernoulli_and_euler_oracles_are_powers_of_the_quotients(self, k):
        # the oracles solve (1 + g)^(-k) term by term; the reference divides
        # once and multiplies k times
        n = 12
        for oracle, quotient in ((deg_bernoulli_gf, bernoulli_quotient(n)),
                                 (deg_euler_gf, euler_quotient(n))):
            powered = one_series(n)
            for _ in range(k):
                powered = powered * quotient
            assert oracle(n, k) == list(powered.coeffs)

    def test_self_division(self):
        f = deg_exp(1, 4)
        assert f.divide(f) == one_series(4)

    def test_rejects_noninvertible_constant(self):
        f = one_series(3)
        g = deg_exp(1, 3) - one_series(3)  # constant term 0
        with pytest.raises(ValueError):
            f.divide(g)

    def test_rejects_polynomial_constant(self):
        g = TruncatedSeries.from_coeffs((LambdaPoly((1, 1)),), 3)  # 1 + l
        with pytest.raises(ValueError):
            one_series(3).divide(g)


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
    assert (a + b).order == 3 and (b - a).order == 3
    assert a.truncate(3) == deg_exp(1, 3)
    assert a.truncate(6) is a and a.truncate(9) is a
    # the order is the number of coefficients less one, and there is at least one
    assert TruncatedSeries(a.coeffs[:4]) == deg_exp(1, 3)
    assert TruncatedSeries(a.coeffs[:1]).order == 0
    with pytest.raises(ValueError, match="^a series holds at least its constant coefficient$"):
        TruncatedSeries(())


small_polys = st_.lists(
    st_.fractions(min_value=-4, max_value=4, max_denominator=4), min_size=0, max_size=3
).map(LambdaPoly)
series = st_.lists(small_polys, min_size=1, max_size=5).map(
    lambda cs: TruncatedSeries.from_coeffs(cs, 4)
)


@settings(deadline=None)
@given(series, st_.integers(0, 7))
@example(deg_exp(1, 5), 3)
def test_pow_is_repeated_product(f, n):
    want = one_series(f.order)
    for _ in range(n):
        want = want * f
    assert f**n == want


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
    assert (f * g).divide(g) == f


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


def exp_series(order: int) -> TruncatedSeries:
    """e^t to t^order: every EGF coefficient 1."""
    return TruncatedSeries.from_coeffs([1] * (order + 1), order)


class TestExp:
    def test_exp_zero(self):
        zero = TruncatedSeries.from_coeffs((), 5)
        assert zero.exp() == one_series(5)

    def test_exp_t(self):
        assert t_series(6).exp() == exp_series(6)

    # exp is the first-order solver at s = 0; the composition shares no code with it
    @settings(deadline=None)
    @given(st_.one_of(rational_inner_series, inner_series))
    @example(deg_exp(1, 8) - one_series(8))
    def test_exp_matches_compose(self, g):
        assert g.exp() == exp_series(g.order).compose(g)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError, match="^series exponential needs zero constant term$"):
            one_series(4).exp()


# The three series whose coefficients are one running product, against the
# product of bases, coefficient by coefficient: x rational or a polynomial in l.
@settings(deadline=None)
@given(st_.one_of(exponents, small_polys), exponents, exponents, st_.integers(0, 12))
@example(0, 0, 0, 12)
@example(Fraction(1, 2), 0, 3, 5)
@example(LAMBDA, 2, 0, 5)
def test_running_products_are_lambda_falling(x, alpha, c, order):
    n = range(order + 1)
    assert deg_exp(x, order).coeffs == tuple(lambda_falling(x, k, LAMBDA) for k in n)
    log_coeffs = (ZERO, *(lambda_falling(LAMBDA - 1, k - 1, 1) for k in n[1:]))
    assert deg_log(order).coeffs == log_coeffs
    assert binomial_series(alpha, c, order).coeffs == tuple(lambda_falling(c * alpha, k, c) for k in n)


class TestFirstOrderSolver:
    """Powers and log_l of 1 + g from the first-order recurrence, against
    the Horner composition ``compose`` as reference."""

    @settings(deadline=None)
    @given(st_.one_of(rational_inner_series, inner_series), exponents)
    def test_power_equals_composition(self, g, beta):
        assert power_of_one_plus(g, beta) == binomial_series(beta, 1, g.order).compose(g)

    @settings(deadline=None)
    @given(st_.one_of(rational_inner_series, inner_series), st_.one_of(exponents, small_polys))
    @example(t_series(6), LAMBDA)
    def test_power_equals_exp_of_log(self, g, beta):
        # a polynomial beta takes the solver's general branch, which no
        # binomial series can check: (1 + g)^beta = exp(beta ln(1 + g)), with
        # ln(1 + g) the ordinary log series ln(1 + t) composed with g, and exp
        # the series e^t composed with that, since exp() is the solver too
        n = g.order
        log = TruncatedSeries.from_coeffs(
            [0, *((-1) ** (i - 1) * factorial(i - 1) for i in range(1, n + 1))], n
        )
        assert power_of_one_plus(g, beta) == exp_series(n).compose(log.compose(g).scaled(beta))

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
