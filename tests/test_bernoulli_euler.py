"""Higher-order Bernoulli/Euler numbers against their generating functions
and against classical values from independent oracles."""

from fractions import Fraction

import pytest

from dowlab.exact import LambdaPoly
from dowlab import bernoulli_euler as be


def bernoulli_numbers(n: int) -> list[Fraction]:
    """Akiyama-Tanigawa oracle, first convention (B_1 = -1/2)."""
    table = [Fraction(0)] * (n + 1)
    out = []
    for i in range(n + 1):
        table[i] = Fraction(1, i + 1)
        for j in range(i, 0, -1):
            table[j - 1] = j * (table[j - 1] - table[j])
        out.append(table[0])
    if n >= 1:
        out[1] = -out[1]
    return out


def euler_at_zero(n: int) -> Fraction:
    """E_n(0) = 2(1 - 2^(n+1)) B_(n+1) / (n+1) for n >= 1."""
    if n == 0:
        return Fraction(1)
    b = bernoulli_numbers(n + 1)[n + 1]
    return Fraction(2) * (1 - 2 ** (n + 1)) * b / (n + 1)


def test_spot_values():
    assert be.deg_bernoulli(1, 1) == LambdaPoly((Fraction(-1, 2), Fraction(1, 2)))
    assert be.deg_bernoulli(2, 1) == LambdaPoly((Fraction(1, 6), 0, Fraction(-1, 6)))
    assert be.deg_euler(1, 1) == LambdaPoly((Fraction(-1, 2),))
    assert be.deg_euler(2, 1) == LambdaPoly((0, Fraction(1, 2)))


def test_order_zero_bernoulli_is_delta():
    assert be.deg_bernoulli(0, 0) == LambdaPoly((1,))
    for n in range(1, 8):
        assert be.deg_bernoulli(n, 0).is_zero()


def test_constant_terms_are_one():
    for k in range(4):
        assert be.deg_bernoulli(0, k) == LambdaPoly((1,))
    for alpha in (1, 2, Fraction(1, 2)):
        assert be.deg_euler(0, alpha) == LambdaPoly((1,))


@pytest.mark.parametrize("k", range(5))
def test_bernoulli_sum_equals_gf(k):
    gf = be.deg_bernoulli_gf(10, k)
    for n in range(11):
        assert be.deg_bernoulli(n, k) == gf[n]


@pytest.mark.parametrize("alpha", (1, 2, 3))
def test_euler_sum_equals_gf(alpha):
    gf = be.deg_euler_gf(10, alpha)
    for n in range(11):
        assert be.deg_euler(n, alpha) == gf[n]


@pytest.mark.parametrize("alpha", (Fraction(1, 2), Fraction(3, 2), Fraction(2)))
def test_euler_binomial_route(alpha):
    gf = be.deg_euler_gf_binomial(8, alpha)
    for n in range(9):
        assert be.deg_euler(n, alpha) == gf[n]


def test_misprinted_binomial_top_fails():
    alpha = Fraction(1, 2)
    oracle = be.deg_euler_gf_binomial(4, alpha)
    mismatches = [
        n for n in range(5) if be.deg_euler_sum_variant(n, alpha, +1) != oracle[n]
    ]
    assert mismatches, "the alpha+l+1 variant should not match the oracle"


def test_classical_bernoulli_limit():
    oracle = bernoulli_numbers(12)
    for n in range(13):
        assert be.deg_bernoulli(n, 1).eval(0) == oracle[n]


def test_classical_euler_limit():
    for n in range(13):
        assert be.deg_euler(n, 1).eval(0) == euler_at_zero(n)


def test_gf_kind_zero():
    assert be.deg_bernoulli_gf(4, 0) == [LambdaPoly((1,))] + [LambdaPoly()] * 4


def test_validation():
    with pytest.raises(ValueError):
        be.deg_bernoulli(-1, 0)
    with pytest.raises(ValueError):
        be.deg_euler(-1, 1)


@pytest.mark.parametrize("alpha", [0.5, 1.0, True])
def test_euler_refuses_inexact_order(alpha):
    with pytest.raises(TypeError):
        be.deg_euler(3, alpha)
    with pytest.raises(TypeError):
        be.deg_euler_sum_variant(3, alpha, 1)
    with pytest.raises(TypeError):
        be.deg_euler_gf_binomial(3, alpha)


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(fn, args, id=f"{fn.__name__}{args}")
        for fn, args in [
            (be.deg_bernoulli, (3, True)),
            (be.deg_bernoulli, (3, 1.0)),
            (be.deg_bernoulli, (True, 1)),
            (be.deg_bernoulli, (3.0, 1)),
            (be.deg_bernoulli_gf, (2, True)),
            (be.deg_bernoulli_gf, (2, 1.0)),
            (be.deg_bernoulli_gf, (True, 1)),
            (be.deg_bernoulli_gf, (2.0, 1)),
            (be.deg_euler_gf, (3, True)),
            (be.deg_euler_gf, (3, 1.0)),
            (be.deg_euler_gf, (True, 1)),
            (be.deg_euler_gf, (3.0, 1)),
            (be.deg_euler_sum_variant, (True, 1, -1)),
            (be.deg_euler_sum_variant, (3.0, 1, -1)),
            (be.deg_euler, (True, 1)),
            (be.deg_euler, (3.0, 1)),
            (be.deg_euler_gf_binomial, (True, 1)),
            (be.deg_euler_gf_binomial, (3.0, 1)),
        ]
    ],
)
def test_integer_orders_and_indices_refuse_float_and_bool(fn, args):
    # an equal float or bool is refused before any work, as by the triangle
    # accessors, instead of being read as the int it equals
    with pytest.raises(TypeError, match="expected an int"):
        fn(*args)
