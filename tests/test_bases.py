"""Falling/rising factorials and Newton-form conversion."""

import random
from fractions import Fraction
from itertools import islice
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from dowlab import newton
from dowlab.exact import LAMBDA, ONE, LambdaPoly
from dowlab import stirling as st
from dowlab import whitney as wh
from dowlab.bases import (
    XPoly,
    basis_poly,
    binom,
    falling_transform,
    gen_binom,
    int_nodes,
    lambda_falling,
    lambda_nodes,
    lambda_rising,
    newton_convert,
    rising_transform,
)
from dowlab.newton import newton_rows

l = LAMBDA


def examples(tier1: int) -> int:
    """A test's own Hypothesis count: ``tier1`` under the tier-1 profile (100
    a test unless set), scaled by the active profile's count, so that the
    explore profile's 500 draws five times as many."""
    return tier1 * settings.default.max_examples // 100


def test_falling_symbolic():
    assert lambda_falling(1, 3, l) == LambdaPoly((1, -3, 2))


def test_falling_empty_product():
    assert lambda_falling(LambdaPoly((7, 5)), 0, l) == LambdaPoly((1,))


def test_falling_ordinary():
    assert lambda_falling(5, 2, 1) == LambdaPoly((20,))
    # literal step 0 degenerates to the plain power
    assert lambda_falling(5, 2, 0) == LambdaPoly((25,))


def test_rising():
    assert lambda_rising(1, 2, l) == LambdaPoly((1, 1))
    assert lambda_rising(LambdaPoly((3,)), 0, l) == LambdaPoly((1,))
    assert lambda_rising(1, 3, l) == LambdaPoly((1, 3, 2))


# x and step of every kind the products take: ints, rationals with large and
# coprime denominators, degree-1 polynomials, and negative and zero steps
FACTOR_XS = (
    3, 0, -2, Fraction(5, 2), Fraction(-5, 10**12 + 39), Fraction(10**30 + 1, 3**40),
    l, LambdaPoly((Fraction(1, 6), Fraction(-3, 4))),
)
FACTOR_STEPS = (
    l, -l, 2 * l, 0, 1, -3, Fraction(-2, 7), Fraction(1, 10**15 + 37),
    LambdaPoly((Fraction(1, 2), Fraction(-3, 5))),
)


def product_of_factors(x, n, step):
    """x(x + step)...(x + (n-1) step), one LambdaPoly product per factor."""
    out = ONE
    for j in range(n):
        out = out * (LambdaPoly.coerce(x) + LambdaPoly.coerce(step) * j)
    return out


def test_rising_is_falling_with_negated_step():
    # one memo cache keyed by the step as given plus a separate sign, so
    # lambda_rising(x, n, s) and lambda_falling(x, n, -s) are two entries;
    # each is the canonical product of its factors, n = 0 included
    for x in FACTOR_XS:
        for step in FACTOR_STEPS:
            for n in range(6):
                want = product_of_factors(x, n, step)
                assert lambda_rising(x, n, step) == lambda_falling(x, n, -step) == want


def test_factorial_arguments_are_validated():
    for fn in (lambda_falling, lambda_rising):
        with pytest.raises(ValueError):
            fn(1, -1, l)
        for bad in ((1.0, 2, l), (1, 2, 0.5), (True, 2, l), (1, 2.0, l), (1, True, l)):
            with pytest.raises(TypeError):
                fn(*bad)


def test_cached_factorial_does_not_admit_an_equal_float():
    assert lambda_falling(2, 3, 1) == LambdaPoly((0,))
    assert lambda_rising(2, 3, l) == LambdaPoly((8, 12, 4))
    with pytest.raises(TypeError):
        lambda_falling(2.0, 3, 1)
    with pytest.raises(TypeError):
        lambda_rising(2, 3.0, l)


def test_basis_poly():
    assert basis_poly(2, [LambdaPoly(), l]) == XPoly((0, -l, 1))
    assert basis_poly(0, []) == XPoly((1,))
    assert basis_poly(2, int_nodes(2)) == XPoly((0, -1, 1))
    with pytest.raises(ValueError):
        basis_poly(3, int_nodes(2))


def test_newton_convert_power_basis():
    # x^2 = 0 + (x) + x(x-1)
    coeffs = newton_convert(XPoly((0, 0, 1)), int_nodes(2))
    assert coeffs == [LambdaPoly(), LambdaPoly((1,)), LambdaPoly((1,))]


def test_newton_convert_lambda_basis():
    # x(x-1) = (l-1) x + x(x-l)
    coeffs = newton_convert(basis_poly(2, int_nodes(2)), lambda_nodes(2))
    assert coeffs == [LambdaPoly(), LambdaPoly((-1, 1)), LambdaPoly((1,))]


def test_newton_convert_constant():
    assert newton_convert(XPoly((1,)), []) == [LambdaPoly((1,))]
    assert newton_convert(XPoly(), []) == [LambdaPoly()]


def test_newton_convert_needs_enough_nodes():
    with pytest.raises(ValueError):
        newton_convert(XPoly((0, 0, 1)), int_nodes(1))


def test_binom():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(3, 7) == 0


def test_gen_binom():
    assert gen_binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert gen_binom(7, 3) == comb(7, 3)


@pytest.mark.parametrize("alpha", [0.1, 0.5, True, False])
def test_gen_binom_refuses_inexact_top(alpha):
    with pytest.raises(TypeError):
        gen_binom(alpha, 2)


def test_xpoly_compose_shift():
    p = XPoly((0, 0, 1))  # X^2
    shifted = p.compose(XPoly((1, 1)))  # (X+1)^2
    assert shifted == XPoly((1, 2, 1))


def test_xpoly_eval():
    p = XPoly((1, l, 1))  # 1 + l X + X^2
    assert p.eval(LambdaPoly((2,))) == LambdaPoly((5, 2))


small_polys = st_.lists(
    st_.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=0, max_size=2
).map(LambdaPoly)
xpolys = st_.lists(small_polys, min_size=0, max_size=8).map(XPoly)
node_kinds = st_.sampled_from(["int", "lambda", "mixed"])


def _nodes_for(kind: str, count: int, rng: random.Random):
    nodes = []
    for j in range(count):
        if kind == "int" or (kind == "mixed" and j % 2 == 0):
            nodes.append(LambdaPoly((Fraction(rng.randint(-4, 4), rng.randint(1, 3)),)))
        else:
            nodes.append(l * Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return nodes


@settings(deadline=None, max_examples=examples(60))
@given(xpolys, node_kinds, st_.integers(min_value=0, max_value=2**30))
def test_newton_roundtrip(p, kind, seed):
    rng = random.Random(seed)
    deg = max(p.degree, 0)
    nodes = _nodes_for(kind, deg, rng)
    coeffs = newton_convert(p, nodes)
    rebuilt = XPoly()
    for k, c in enumerate(coeffs):
        rebuilt = rebuilt + basis_poly(k, nodes) * c
    assert rebuilt == p


@given(st_.integers(min_value=0, max_value=8))
def test_newton_monicity(n):
    p = basis_poly(n, int_nodes(n))
    coeffs = newton_convert(p, lambda_nodes(n))
    assert coeffs[-1] == LambdaPoly((1,))


@pytest.mark.parametrize("n", range(11))
def test_falling_at_lambda_zero_is_power(n):
    x0 = Fraction(7, 3)
    assert lambda_falling(x0, n, l).eval(0) == x0**n


@pytest.mark.parametrize("n", range(11))
def test_alternating_falling_sum_is_factorial(n):
    # sum_j (-1)^j C(n,j) (z-j)(z-j-l)...(z-j-(n-1)l) == n!, any rational z
    rng = random.Random(7)
    for _ in range(5):
        z = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        acc = LambdaPoly()
        for j in range(n + 1):
            sign = -1 if j % 2 else 1
            acc = acc + lambda_falling(z - j, n, l) * (sign * binom(n, j))
        assert acc == LambdaPoly((factorial(n),))


@settings(deadline=None, max_examples=examples(60))
@given(
    st_.lists(st_.tuples(st_.integers(-4, 4), small_polys), min_size=1, max_size=8),
    st_.integers(min_value=1, max_value=5),
)
def test_transform_pair_inverts_at_steps_l_and_ml(weighted, m):
    # Theorem 25 at step m*l, where m = 1 is the step l itself: either
    # transform of the weighted sequence c_j v_j, transformed back by the
    # other one, gives that sequence again
    step = l * m
    seq = [v * c for c, v in weighted]

    def plain(values, n):
        return ((j, 1, values[j]) for j in range(n + 1))

    def weights(n):
        return ((j, c, v) for j, (c, v) in enumerate(weighted[: n + 1]))

    span = range(len(seq))
    forward = [falling_transform(n, weights(n), step) for n in span]
    assert [rising_transform(n, plain(forward, n), step) for n in span] == seq
    inverse = [rising_transform(n, weights(n), step) for n in span]
    assert [falling_transform(n, plain(inverse, n), step) for n in span] == seq


pairs = st_.tuples(st_.integers(-4, 4), st_.integers(-4, 4))


@st_.composite
def newton_row_cases(draw):
    roots = draw(st_.lists(pairs, min_size=0, max_size=6))
    nodes = draw(st_.lists(pairs, min_size=len(roots), max_size=len(roots)))
    scale = draw(st_.sampled_from([1, 3, -2, 5]))
    return roots, nodes, scale


@settings(deadline=None, max_examples=examples(80))
@given(newton_row_cases())
def test_newton_rows_extend_like_a_full_conversion(case):
    # row n, extended from row n - 1, equals one conversion of the whole
    # product; the roots s*b_j and nodes s*a_k multiply c_k by s^(n-k)
    roots, nodes, s = case
    n_rows = len(roots) + 1
    rows = list(islice(newton_rows(ONE, roots.__getitem__, nodes.__getitem__), n_rows))
    scaled = newton_rows(
        ONE,
        lambda j: (s * roots[j][0], s * roots[j][1]),
        lambda k: (s * nodes[k][0], s * nodes[k][1]),
    )
    for n, (row, scaled_row) in enumerate(zip(rows, islice(scaled, n_rows))):
        # the pair (c0, c1) is the LambdaPoly c0 + c1 l
        product = basis_poly(n, [*map(LambdaPoly, roots)])
        expected = newton_convert(product, [*map(LambdaPoly, nodes[:n])])
        assert row == tuple(expected)
        assert scaled_row == tuple(c * s ** (n - k) for k, c in enumerate(row))


small_ints = st_.integers(min_value=-5, max_value=5)


@settings(deadline=None, max_examples=examples(60))
@given(
    st_.lists(small_ints, min_size=0, max_size=7),
    st_.lists(small_ints, min_size=7, max_size=7),
)
def test_newton_rows_over_the_integers_are_the_constants_over_q_lambda(roots, nodes):
    # one kernel, two rings: int roots and nodes c give the constants of the
    # rows over the pairs (c, 0)
    n_rows = len(roots) + 1
    ints = list(islice(newton_rows(1, roots.__getitem__, nodes.__getitem__), n_rows))
    polys = list(islice(newton_rows(ONE, lambda j: (roots[j], 0), lambda k: (nodes[k], 0)), n_rows))
    assert all(type(c) is int for row in ints for c in row)
    assert all(type(c) is LambdaPoly and len(c.nums) <= 1 for row in polys for c in row)
    assert ints == [tuple(c.constant() for c in row) for row in polys]


def count_products(monkeypatch, store, read):
    """The entries of the triangle ``read()`` builds in the cleared ``store``,
    and the polynomial products made while it builds them."""
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(None)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(LambdaPoly, "__mul__", counted(LambdaPoly.__mul__))
    monkeypatch.setattr(LambdaPoly, "__rmul__", counted(LambdaPoly.__rmul__))
    store.cache_clear()
    return sum(len(row) for row in read()), len(calls)


def test_newton_rows_cost_a_few_multiplications_per_entry(monkeypatch):
    # each row extends the previous one with one multiplication per entry;
    # a full re-conversion per row costs O(n^2) multiplications per row
    # (14760 for this triangle)
    read = lambda: wh.r_whitney1_rows(3, 2, 40)  # reads the first kind's Newton kernel
    entries, products = count_products(monkeypatch, st._first_kind_rows, read)
    assert entries == 861
    assert products <= entries


@pytest.mark.parametrize("store, rows", [
    pytest.param(newton._second_kind_rows, wh.whitney2_rows, id="whitney2_rows"),
    pytest.param(newton._first_kind_rows, wh.whitney1_rows, id="whitney1_rows"),
])
def test_recurrence_rows_cost_a_few_multiplications_per_entry(monkeypatch, store, rows):
    # the same bound for the W and V rows, which the kernels build at r = 1 by
    # the paper's two-term recurrence
    entries, products = count_products(monkeypatch, store, lambda: rows(3, 40))
    assert entries == 861
    assert products <= entries
