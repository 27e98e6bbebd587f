"""Ring, evaluation and serialization behaviour of the exact scalar layer."""

import copy
import dataclasses
import pickle
import threading
import tracemalloc
from fractions import Fraction
from itertools import count
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st_

from dowlab import bernoulli_euler as be
from dowlab import exact, identities, stirling
from dowlab import whitney as wh
from dowlab.bases import basis_poly, gen_binom, int_nodes, lambda_falling, lambda_nodes
from dowlab.exact import LAMBDA, ONE, ZERO, LambdaPoly, dot
from dowlab.newton import row_step
from dowlab.series import (TruncatedSeries, binomial_series, deg_exp, deg_log, gf_triangle,
                           one_series, t_series)
from dowlab.dobinski import DobinskiRequest, DobinskiResult

l = LAMBDA

rationals = st_.fractions(
    min_value=-20, max_value=20, max_denominator=10
)
# Operands of the sizes the package multiplies: 8-40 coefficients, ints wider
# than a machine word, over a common denominator other than 1.
long_int_lists = st_.lists(
    st_.integers(min_value=-(2**70), max_value=2**70), min_size=8, max_size=40
)
long_lists = st_.tuples(long_int_lists, st_.integers(min_value=2, max_value=10**4)).map(
    lambda nums_den: [Fraction(n, nums_den[1]) for n in nums_den[0]]
)
long_polys = long_lists.map(LambdaPoly)
polys = st_.one_of(st_.lists(rationals, min_size=0, max_size=5), long_lists).map(LambdaPoly)


def test_additive_cancellation():
    assert (1 - l) + l == LambdaPoly((1,))


def test_hand_expansion():
    assert (1 - l) * (1 - 2 * l) == LambdaPoly((1, -3, 2))


def test_absorbing_zero():
    m_plus = LambdaPoly((5, -1))  # m + 2 - l at m = 3
    assert LambdaPoly() * m_plus == LambdaPoly()


def test_eval_constant_term():
    assert LambdaPoly((1, -3, 2)).eval(0) == 1


def test_eval_direct_substitution():
    assert LambdaPoly((1, -3, 2)).eval(Fraction(1, 2)) == 0


def test_eval_zero_poly():
    assert LambdaPoly().eval(Fraction(7, 3)) == 0


def test_equality_ring_identity():
    assert (1 - l) * (1 + l) == 1 - l * l


def test_inequality():
    assert (1 - l) != (1 + l)


def test_truediv_scalar():
    assert (l * 3) / 3 == l
    with pytest.raises(ZeroDivisionError):
        (l * 3) / 0


def test_pow():
    assert (1 + l) ** 2 == LambdaPoly((1, 2, 1))
    assert (1 + l) ** 0 == LambdaPoly((1,))


@pytest.mark.parametrize("bad", [True, False, 2.0, 0.0])
def test_pow_refuses_a_bool_or_float_exponent(bad):
    for base in (l, 1 + l, LambdaPoly()):
        with pytest.raises(TypeError, match="expected an int"):
            base**bad


def test_scale_lambda():
    p = LambdaPoly((1, 2, 4))
    assert p.scale_lambda(Fraction(1, 2)) == LambdaPoly((1, 1, 1))


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        LambdaPoly((0.5,))


class TestGrammar:
    def test_canonical_examples(self):
        assert str(LambdaPoly((1, -3, 2))) == "1 - 3*l + 2*l^2"
        assert str(LambdaPoly((4, -1))) == "4 - l"
        assert str(LambdaPoly((0, -1))) == "-l"
        assert str(LambdaPoly()) == "0"
        assert str(LambdaPoly((Fraction(-1, 2), Fraction(1, 2)))) == "-1/2 + 1/2*l"
        # a coefficient of magnitude 1 at degree 0, 1 and 2
        assert str(LambdaPoly((1, 1, 1))) == "1 + l + l^2"
        assert str(LambdaPoly((-1, -1, -1))) == "-1 - l - l^2"
        assert str(LambdaPoly((-1, 0, 1))) == "-1 + l^2"
        assert str(LambdaPoly((0, 0, -1))) == "-l^2"
        # a negative leading term, and a zero constant term
        assert str(LambdaPoly((-7, 0, 3))) == "-7 + 3*l^2"
        assert str(LambdaPoly((0, -2, 5))) == "-2*l + 5*l^2"
        assert str(LambdaPoly((0, 3, 0, -4))) == "3*l - 4*l^3"
        # coefficients that end in 1 but are not 1
        assert str(LambdaPoly((0, 11))) == "11*l"
        assert str(LambdaPoly((0, 21))) == "21*l"
        assert str(LambdaPoly((0, -31))) == "-31*l"
        assert str(LambdaPoly((5, 11, -21, 31))) == "5 + 11*l - 21*l^2 + 31*l^3"
        # fractional polynomials with a coefficient whose gcd with den is den
        assert str(LambdaPoly((Fraction(3, 2), 3))) == "3/2 + 3*l"
        assert str(LambdaPoly((Fraction(1, 2), -1, 2))) == "1/2 - l + 2*l^2"
        assert str(LambdaPoly((-2, Fraction(-1, 6), 1))) == "-2 - 1/6*l + l^2"

    def test_parse_examples(self):
        assert LambdaPoly.parse("1 - 3*l + 2*l^2") == LambdaPoly((1, -3, 2))
        assert LambdaPoly.parse("-l") == LambdaPoly((0, -1))
        assert LambdaPoly.parse("l^3") == LambdaPoly((0, 0, 0, 1))
        assert LambdaPoly.parse("3/4*l^2") == LambdaPoly((0, 0, Fraction(3, 4)))
        assert LambdaPoly.parse("0") == LambdaPoly()
        assert LambdaPoly.parse(" 1 -3*l+ 2*l^2 ") == LambdaPoly((1, -3, 2))
        assert LambdaPoly.parse("l - l") == LambdaPoly()
        assert LambdaPoly.parse("1 + l^2 - l^2") == LambdaPoly((1,))
        assert LambdaPoly.parse("1/6 + 1/4*l + 1/12*l") == LambdaPoly((Fraction(1, 6), Fraction(1, 3)))
        assert LambdaPoly.parse("2/4*l^2 + 3/6") == LambdaPoly((Fraction(1, 2), 0, Fraction(1, 2)))

    @pytest.mark.parametrize(
        "bad", ["", "1 +", "1++2", "x", "l^", "1//2", "2*", "1/0", "2*l^-1", "l^+2"]
    )
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError) as refused:
            LambdaPoly.parse(bad)
        # the message quotes the input as typed, not only a chunk of it
        assert repr(bad) in str(refused.value) if bad else "empty" in str(refused.value)

    @given(polys)
    def test_roundtrip(self, p):
        assert LambdaPoly.parse(str(p)) == p

    def test_parse_of_a_high_degree_stores_one_int_per_degree(self):
        # a Fraction or a (numerator, denominator) pair per degree costs
        # about 100 bytes each; one int list and its tuple cost about 24
        degree = 10**6
        tracemalloc.start()
        try:
            p = LambdaPoly.parse("3/2*l^1000000 - 1/3")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (p.nums[0], p.nums[-1], p.den, p.degree) == (-2, 9, 6, degree)
        assert peak < 40 * degree

    def test_parse_refuses_a_degree_past_its_ceiling_before_allocating(self):
        # a 10-character argument must not ask for a list of 10^7 entries
        degree = exact.MAX_DEGREE + 1
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^degree {degree} is too large for a polynomial$"):
                LambdaPoly.parse(f"1 + l^{degree}")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**5


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys, rationals, st_.one_of(st_.integers(-40, 40), st_.integers()))
def test_eval_is_ring_homomorphism(a, b, q, k):
    assert (a * b).eval(q) == a.eval(q) * b.eval(q)
    assert (a + b).eval(q) == a.eval(q) + b.eval(q)
    # an int goes through the same sum as a polynomial does
    for got, want in ((a + k, a.eval(q) + k), (k + a, a.eval(q) + k),
                      (a - k, a.eval(q) - k), (k - a, k - a.eval(q))):
        assert_canonical(got)
        assert got.eval(q) == want


@given(polys)
def test_canonical_idempotence(p):
    assert LambdaPoly(p.coeffs) == p
    assert LambdaPoly(p.coeffs).coeffs == p.coeffs


@given(polys, rationals)
def test_scale_lambda_roundtrip(p, q):
    if q != 0:
        assert p.scale_lambda(q).scale_lambda(1 / q) == p


# -- the integer-numerator kernel against a Fraction-list reference --------------
#
# The reference keeps one Fraction per coefficient, the obvious way; the
# kernel keeps int numerators over one common denominator.  Mixed
# denominators make the common denominator, and its reduction, do real work.

mixed = st_.fractions(min_value=-50, max_value=50, max_denominator=30)
ref_lists = st_.lists(mixed, max_size=6)
small_ints = st_.integers(min_value=-40, max_value=40)


def ref_strip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return ref_strip(x + y for x, y in zip(a, b))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_strip(out)


def ref_eval(a, q):
    return sum((c * q**i for i, c in enumerate(a)), Fraction(0))


def ref_str(a):
    parts = []
    for d, c in enumerate(a):
        if not c:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        elif mag == 1:
            body = "l" if d == 1 else f"l^{d}"
        else:
            body = f"{mag}*l" if d == 1 else f"{mag}*l^{d}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def assert_canonical(p):
    assert p.den > 0
    assert all(type(n) is int for n in p.nums)
    assert p.nums == () or p.nums[-1] != 0
    assert gcd(p.den, *p.nums) == 1
    if not p.nums:
        assert p.den == 1


@given(ref_lists, ref_lists)
def test_kernel_ring_ops_match_reference(a, b):
    pa, pb = LambdaPoly(a), LambdaPoly(b)
    neg_b = tuple(-c for c in ref_strip(b))
    for got, want in (
        (pa + pb, ref_add(a, b)),
        (pa - pb, ref_add(a, neg_b)),
        (pa * pb, ref_mul(a, b)),
        (-pa, tuple(-c for c in ref_strip(a))),
    ):
        assert got.coeffs == want
        assert_canonical(got)


@given(ref_lists, mixed, small_ints)
def test_kernel_scalar_ops_match_reference(a, q, k):
    p = LambdaPoly(a)
    for got, want in (
        (p * k, ref_mul(a, (k,))),
        (k * p, ref_mul(a, (k,))),
        (p * q, ref_mul(a, (q,))),
        (p + k, ref_add(a, (k,))),
        (k + p, ref_add(a, (k,))),
        (p - k, ref_add(a, (-k,))),
        (k - p, ref_add((k,), tuple(-c for c in a))),
        (q - p, ref_add((q,), tuple(-c for c in a))),
        (p.scale_lambda(q), ref_strip(c * q**i for i, c in enumerate(a))),
        (p.scale_lambda(k), ref_strip(c * k**i for i, c in enumerate(a))),
    ):
        assert got.coeffs == want
        assert_canonical(got)
    if q:
        got = p / q
        assert got.coeffs == ref_strip(c / q for c in a)
        assert_canonical(got)


@given(ref_lists, mixed)
# past degree 256, str() extends its tables of suffixes and units
@example([(i % 5) - 2 for i in range(300)] + [1], 3)
@example([Fraction((i % 7) - 3, 3) for i in range(300)] + [Fraction(5, 3)], Fraction(-1, 2))
def test_kernel_eval_and_str_match_reference(a, q):
    p = LambdaPoly(a)
    value = p.eval(q)
    assert type(value) is Fraction
    assert value == ref_eval(ref_strip(a), q)
    assert p.constant() == (ref_strip(a) or (Fraction(0),))[0]
    assert str(p) == ref_str(ref_strip(a))


@given(ref_lists, ref_lists)
def test_kernel_hash_and_roundtrip(a, b):
    for p in (LambdaPoly(a), LambdaPoly(a) * LambdaPoly(b), LambdaPoly(a) - LambdaPoly(b)):
        assert_canonical(p)
        assert hash(p) == (hash(p.coeffs) if p.degree >= 1 else hash(p.constant()))
        assert LambdaPoly.parse(str(p)) == p


@given(st_.one_of(
    st_.integers(),
    mixed,
    st_.integers(min_value=-(2**100), max_value=2**100),  # past the hash modulus 2^61 - 1
    st_.sampled_from([0, -1, Fraction(0), Fraction(-6, 3), Fraction(-7, 2)]),
))
def test_constant_hashes_like_the_number_it_equals(v):
    # an integral constant hashes through its int numerator, any other through
    # a Fraction; however it is built, it hashes like the int or Fraction it equals
    for p in (LambdaPoly.coerce(v), LambdaPoly((v,)), dot([(v, ONE, ONE)]), LAMBDA - LAMBDA + v):
        assert p == v
        assert hash(p) == hash(v)
        assert v in {p}
        assert p in {v}


def test_kernel_reduces_to_lowest_terms():
    half = LambdaPoly((Fraction(1, 2), Fraction(3, 2)))
    assert (half.nums, half.den) == ((1, 3), 2)
    assert ((half * 2).nums, (half * 2).den) == ((1, 3), 1)
    assert ((half - half).nums, (half - half).den) == ((), 1)
    third = LambdaPoly((Fraction(1, 3),))
    assert ((half + third).nums, (half + third).den) == ((5, 9), 6)
    assert hash(LambdaPoly((7, -1))) == hash((7, -1))


def test_inexact_scalars_rejected():
    with pytest.raises(TypeError):
        LambdaPoly((1,)) * 0.5
    with pytest.raises(TypeError):
        LambdaPoly((1,)) + True
    with pytest.raises(TypeError):
        LambdaPoly((1,)).eval(0.5)


# -- the fused multiply-accumulate kernel against the loop it replaces -----------

scalars = st_.one_of(small_ints, mixed, st_.just(0))
mixed_polys = ref_lists.map(LambdaPoly)
triples = st_.one_of(
    st_.lists(st_.tuples(scalars, mixed_polys, mixed_polys), max_size=6),
    # long sums whose first term cancels against its negation, appended last
    st_.lists(st_.tuples(scalars, long_polys, long_polys), min_size=1, max_size=4).map(
        lambda terms: [*terms, (-terms[0][0], *terms[0][1:])]
    ),
)


def loop_dot(terms):
    acc = LambdaPoly()
    for c, p, q in terms:
        acc = acc + p * q * c
    return acc


@given(triples)
def test_dot_matches_the_accumulate_loop(terms):
    got = dot(terms)
    assert got == loop_dot(terms)
    assert_canonical(got)
    assert dot(iter(terms)) == got
    assert dot(t for t in terms) == got


@given(mixed_polys, mixed_polys, mixed)
def test_dot_skips_zero_terms(p, q, c):
    assert dot([(0, p, q), (c, ZERO, q), (c, p, ZERO)]) == ZERO
    assert dot([(c, p, q), (0, p, q), (c, ZERO, q)]) == p * q * c
    assert dot([(c, p, q), (-c, p, q)]) == ZERO


def test_dot_of_nothing_is_zero():
    for empty in ([], (), iter([])):
        got = dot(empty)
        assert got == ZERO
        assert (got.nums, got.den) == ((), 1)


def test_dot_keeps_lowest_terms_across_denominators():
    half = LambdaPoly((Fraction(1, 2), Fraction(3, 2)))
    third = LambdaPoly((Fraction(1, 3),))
    got = dot([(Fraction(1, 5), half, third), (Fraction(-1, 5), half, third), (2, half, ONE)])
    assert (got.nums, got.den) == ((1, 3), 1)


@pytest.mark.parametrize("c", [0.5, 1.0, 0.0, True, False])
def test_dot_refuses_inexact_scalars(c):
    with pytest.raises(TypeError):
        dot([(c, LAMBDA, ONE)])
    with pytest.raises(TypeError):
        dot([(1, LAMBDA, ONE), (c, ZERO, ZERO)])


def test_coerce_int_fast_path():
    assert LambdaPoly.coerce(7) == LambdaPoly((7,))
    assert_canonical(LambdaPoly.coerce(-3))
    zero = LambdaPoly.coerce(0)
    assert (zero.nums, zero.den) == ((), 1)
    for bad in (True, False, 0.5, 1.0):
        with pytest.raises(TypeError):
            LambdaPoly.coerce(bad)


# -- fast paths of the kernel against the general path or the reference -----------
#
# Each fast path must give the canonical (nums, den) that the general path
# gives; the references below know nothing of the fast paths.

one_coeff_polys = mixed.map(lambda c: LambdaPoly((c,)))
int_lists = st_.one_of(st_.lists(small_ints, max_size=6), long_int_lists)
int_polys = int_lists.map(LambdaPoly)
exact_scalars = st_.one_of(small_ints, mixed)


def form(p):
    return p.nums, p.den


# operands whose interior coefficients are often zero, which the product loop
# multiplies like any other coefficient
gappy_polys = st_.lists(
    st_.one_of(st_.just(0), small_ints, mixed), min_size=3, max_size=7
).map(LambdaPoly)
operands = st_.one_of(one_coeff_polys, mixed_polys, int_polys, gappy_polys)
dot_terms = st_.tuples(exact_scalars, operands, operands)


# short sums, and sums of 12 or more terms whose scalars mix ints with
# Fractions of a different denominator per term
@given(st_.one_of(st_.lists(dot_terms, max_size=6), st_.lists(dot_terms, min_size=12, max_size=16)))
def test_dot_fast_paths_match_the_accumulate_loop(terms):
    # one-coefficient operands on either side, integral and mixed
    # denominators, int and Fraction scalars
    got = dot(terms)
    assert_canonical(got)
    assert form(got) == form(loop_dot(terms))
    assert form(dot([(c, q, p) for c, p, q in terms])) == form(got)
    want = ()
    for c, p, q in terms:
        want = ref_add(want, ref_mul(ref_mul(p.coeffs, q.coeffs), (Fraction(c),)))
    assert got.coeffs == want
    # the sum and its negation, in either order, cancel to the canonical zero
    negated = [(-c, p, q) for c, p, q in terms]
    assert form(dot(terms + negated)) == ((), 1)
    assert form(dot(negated[::-1] + terms)) == ((), 1)


@given(st_.sampled_from([0.5, 1.0, 0.0, True, False]), mixed_polys, one_coeff_polys,
       st_.lists(dot_terms, max_size=14))
def test_dot_fast_paths_refuse_inexact_scalars(c, p, q, before):
    # refused wherever it stands, also when a factor is zero and the term
    # would add nothing
    for terms in ([(c, p, q)], [(c, q, ONE)], [(1, q, p), (c, ONE, ONE)],
                  [(c, ZERO, q)], [(c, p, ZERO)], [*before, (c, ZERO, ZERO)]):
        with pytest.raises(TypeError):
            dot(terms)


@given(st_.one_of(ref_lists, st_.lists(mixed, max_size=1)), st_.lists(mixed, max_size=1))
def test_mul_by_one_coefficient_matches_reference(a, b):
    p, q = LambdaPoly(a), LambdaPoly(b)
    for got in (p * q, q * p):
        assert_canonical(got)
        assert got.coeffs == ref_mul(a, b)


@given(ref_lists, st_.one_of(st_.integers(), mixed))
def test_eq_against_numbers_matches_coerce(a, v):
    p = LambdaPoly(a)
    # the numerators of p as ints too: equal to p only where its denominator is 1
    for number in (v, *p.nums[:1]):
        want = form(p) == form(LambdaPoly((Fraction(number),)))
        assert (p == number) is want
        assert (number == p) is want
        assert (p != number) is (not want)
    assert LambdaPoly.coerce(v) == v
    assert LambdaPoly((Fraction(1, 3), 1)) != 1 and LambdaPoly((Fraction(1, 3),)) != 1


def test_eq_against_bools_and_floats():
    # neither is an exact rational, so neither equals a polynomial, even
    # where a set or dict compares them because their hashes agree
    for p, other in ((ONE, True), (ZERO, False), (ONE, 1.0), (ZERO, 0.0), (LAMBDA, 0.5)):
        assert p != other and other != p
        assert not p == other
        assert other not in {p} and p not in {other}


# monomials c*l^d, which take the shortcut, and any other polynomial, which
# goes through the binary powering
pow_bases = st_.one_of(
    st_.tuples(mixed, st_.integers(0, 4)).map(lambda cd: (Fraction(0),) * cd[1] + (cd[0],)),
    st_.lists(mixed, max_size=4),
)


@given(pow_bases, st_.integers(0, 6))
def test_pow_matches_repeated_product(a, n):
    p = LambdaPoly(a)
    want, ref = ONE, (Fraction(1),)
    for _ in range(n):
        want, ref = want * p, ref_mul(ref, a)
    got = p**n
    assert_canonical(got)
    assert form(got) == form(want)
    assert got.coeffs == ref_strip(ref)


def test_monomial_pow_of_negated_lambda():
    assert (-LAMBDA) ** 3 == LambdaPoly((0, 0, 0, -1))
    assert (-LAMBDA) ** 0 == ONE
    assert ZERO**0 == ONE and ZERO**3 == ZERO


@given(int_lists)
def test_int_tuple_construction_matches_fraction_construction(a):
    got = LambdaPoly(a)
    assert_canonical(got)
    assert form(got) == form(LambdaPoly(map(Fraction, a)))
    assert form(LambdaPoly(iter(a))) == form(got)
    assert got.coeffs == ref_strip(map(Fraction, a))


# -- the row step of the Newton route ---------------------------------------------
#
# Triangle entries grow past 2^64 within a few dozen rows, and their signs
# alternate.  Over Q[l] the entries are integral and the root and nodes are
# int pairs (c0, c1) for c0 + c1 l, zeros included; over the integers all
# are ints.  Each entry k of the next row is r_{k-1} + (a_k - b) r_k, with
# r_{-1} = 0, and the last one is the row's last entry.

wide_ints = st_.one_of(small_ints, st_.integers(min_value=-(2**70), max_value=2**70))
wide_polys = st_.lists(wide_ints, max_size=6).map(LambdaPoly)
wide_pairs = st_.tuples(wide_ints, wide_ints)


def rows_and_nodes(entries, values):
    """A row of 1 to 6 ``entries``, a root and one node per entry, of ``values``."""
    sized = st_.integers(min_value=1, max_value=6)
    return sized.flatmap(
        lambda n: st_.tuples(
            st_.lists(entries, min_size=n, max_size=n).map(tuple),
            values,
            st_.lists(values, min_size=n, max_size=n),
        )
    )


def assert_next_row(got, row, weights, zero):
    """``got`` is the row after ``row``, in the ring of ``zero``."""
    assert type(got) is tuple and len(got) == len(row) + 1
    assert got[-1] is row[-1]
    for p, w, q, entry in zip((zero, *row), weights, row, got):
        if type(zero) is LambdaPoly:
            assert_canonical(entry)
            assert form(entry) == form(p + w * q)
            assert entry.coeffs == ref_add(p.coeffs, ref_mul(w.coeffs, q.coeffs))
        else:
            assert type(entry) is int and entry == p + w * q


@given(rows_and_nodes(st_.one_of(st_.just(ZERO), wide_polys), wide_pairs))
def test_row_step_is_p_plus_w_times_q(case):
    row, (b0, b1), nodes = case
    weights = [LambdaPoly((a0 - b0, a1 - b1)) for a0, a1 in nodes]
    assert_next_row(row_step(row, (b0, b1), nodes), row, weights, ZERO)


@given(rows_and_nodes(wide_ints, wide_ints))
def test_row_step_serves_the_int_ring(case):
    row, b, nodes = case
    assert_next_row(row_step(row, b, nodes), row, [a - b for a in nodes], 0)


# Each Record class, the arguments of one instance, and the defaults of its
# trailing fields.  The sides and runners are builtins, so that they pickle.
_SIDE = identities.Side(identities.GF, abs)
_ROW = identities.Row(len, _SIDE, identities.Side(identities.NEWTON, abs))
RECORDS = {
    "TruncatedSeries": (TruncatedSeries, ((ONE, LAMBDA),), {}),
    "DobinskiRequest": (
        DobinskiRequest, (2, 3, Fraction(1, 2), Fraction(1, 3)), {"terms": 200, "tol": 1e-9}
    ),
    "DobinskiResult": (DobinskiResult, (2.5, 2.5, 1e-58, True), {}),
    "SweepParams": (identities.SweepParams, (6, (1, 2), (0, 3), 7), {}),
    "IdentityReport": (
        identities.IdentityReport, ("eq17", 28), {"counterexample": None, "finding": None}
    ),
    "Side": (identities.Side, (identities.EXPLICIT | identities.NEWTON, abs), {}),
    "Row": (identities.Row, (len, _SIDE, _SIDE), {"tail": {}}),
    "Parts": (identities.Parts, ((_ROW, _ROW),), {}),
    "Probe": (identities.Probe, (_ROW, _SIDE, "fails at %s", "agrees"), {}),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_behaves_as_a_frozen_dataclass(name):
    # the frozen dataclass with the same fields and defaults is the reference
    cls, args, defaults = RECORDS[name]
    fields = [
        (field, object, dataclasses.field(default_factory=lambda v=defaults[field]: v))
        if field in defaults else field
        for field in cls.__slots__
    ]
    twin = dataclasses.make_dataclass(name, fields, frozen=True)(*args)
    record = cls(*args)
    assert repr(record) == repr(twin)
    try:
        twin_hash = hash(twin)
    except TypeError:  # a dict field, as Row's tail, is unhashable in both
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == twin_hash
    assert record == cls(*args) and record != twin
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    for field in cls.__slots__:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == cls(*args)  # the refused writes changed nothing


# Every count of the package, each as (its name, a call through a public entry
# point that passes it the value), and each refused by exact._check_counts.
COUNTS = {
    "lambda_falling": ("n", lambda v: lambda_falling(1, v, LAMBDA)),
    "basis_poly": ("n", lambda v: basis_poly(v, [])),
    "int_nodes": ("n", int_nodes),
    "lambda_nodes": ("n", lambda_nodes),
    "gen_binom": ("n", lambda v: gen_binom(Fraction(1, 2), v)),
    "LambdaPoly.__pow__": ("n", lambda v: LAMBDA**v),
    # a series takes its order from its coefficients, so from_coeffs checks it
    "TruncatedSeries": ("order", lambda v: TruncatedSeries.from_coeffs((), v)),
    "TruncatedSeries.__pow__": ("n", lambda v: t_series(3) ** v),
    "TruncatedSeries.truncate": ("order", lambda v: t_series(3).truncate(v)),
    "one_series": ("order", one_series),
    "t_series": ("order", t_series),
    "deg_exp": ("order", lambda v: deg_exp(1, v)),
    "deg_log": ("order", deg_log),
    "binomial_series": ("order", lambda v: binomial_series(1, 1, v)),
    "gf_triangle": ("n_max", lambda v: gf_triangle(t_series(3), one_series(3), v)),
    "row store": ("n_max", lambda v: stirling.deg_stirling2_rows(v)),
    "first rows": ("n_max", lambda v: wh.classical_whitney2_rows(2, v)),
    "dowling_poly": ("n", lambda v: wh.dowling_poly(2, v, 1)),
    "tanny_dowling_poly": ("n", lambda v: wh.tanny_dowling_poly(2, v, 1)),
    "deg_bell": ("n", lambda v: stirling.deg_bell(v, 1)),
    "DobinskiRequest": ("n", lambda v: DobinskiRequest(1, v, 1, 0)),
    "deg_bernoulli n": ("n", lambda v: be.deg_bernoulli(v, 1)),
    "deg_bernoulli k": ("k", lambda v: be.deg_bernoulli(1, v)),
    "deg_euler": ("n", lambda v: be.deg_euler(v, 1)),
    "deg_bernoulli_gf n_max": ("n_max", lambda v: be.deg_bernoulli_gf(v, 1)),
    "deg_bernoulli_gf k": ("k", lambda v: be.deg_bernoulli_gf(1, v)),
    "deg_euler_gf n_max": ("n_max", lambda v: be.deg_euler_gf(v, 1)),
    "deg_euler_gf order_k": ("order_k", lambda v: be.deg_euler_gf(1, v)),
    "deg_euler_gf_binomial": ("n_max", lambda v: be.deg_euler_gf_binomial(v, 1)),
    "second-kind Newton kernel": ("r", lambda v: wh.r_whitney2_rows(2, v, 3)),
    "first-kind Newton kernel": ("r", lambda v: wh.r_whitney1_rows(2, v, 3)),
    "r_whitney1_rows_direct": ("r", lambda v: wh.r_whitney1_rows_direct(2, v, 3)),
    "second-kind GF kernel": ("r", lambda v: wh.r_whitney2_rows_gf(2, v, 3)),
    "first-kind GF kernel": ("r", lambda v: wh.r_whitney1_rows_gf(2, v, 3)),
    "unsigned r-Stirling GF": ("r", lambda v: stirling.deg_r_stirling1_unsigned_rows_gf(v, 3)),
    "run_identity n_max": ("n_max", lambda v: identities.run_identity("eq17", v)),
    "run_identity r_set": ("r", lambda v: identities.run_identity("eq75", 2, (1,), (v,))),
}


def held_entries() -> int:
    return sum(cache.cache_info().currsize for cache in exact.CACHES)


@pytest.mark.parametrize("site", sorted(COUNTS))
def test_every_count_is_refused_by_the_one_check(site):
    name, call = COUNTS[site]
    held = held_entries()
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got -1$"):
        call(-1)
    assert held_entries() == held
    for bad in (True, 2.0):
        with pytest.raises(TypeError, match=f"^expected an int, got {type(bad).__name__}$"):
            call(bad)
        assert held_entries() == held


@pytest.mark.parametrize("scale", [0.5, 1.0, True, False])
def test_lambda_nodes_refuses_an_inexact_scale(scale):
    # a bool is no scale 1, a float no rational, as for every exact scalar
    with pytest.raises(TypeError, match=f"^expected an exact rational, got {type(scale).__name__}$"):
        lambda_nodes(2, scale)


def test_a_reader_waiting_on_a_failed_build_builds_its_rows_afresh(monkeypatch):
    # Thread A's build fails at row 3 while thread B, which read the store
    # before it failed, waits on the store's lock.  The failed build clears
    # the store, so B must build from a new iterator, not resume A's dead one.
    # The order is forced by events, with no timing: A fails only once B is
    # at the lock.
    reader_waits = threading.Event()

    class Lock:
        """The store's lock, which says when the reader has come to it."""

        def __init__(self):
            self.lock = threading.Lock()

        def __enter__(self):
            if threading.current_thread() is reader:
                reader_waits.set()
            self.lock.acquire()

        def __exit__(self, *exc):
            self.lock.release()

    builds = []

    def rows_of(x):
        builds.append(x)
        for n in count():
            if n == 3 and len(builds) == 1:
                reader.start()
                assert reader_waits.wait(60)
                raise RuntimeError("interrupted")
            yield (x,) * (n + 1)

    monkeypatch.setattr(exact, "CACHES", [])  # the test's store stays out of the registry
    monkeypatch.setattr(exact, "Lock", Lock)
    rows = exact.row_store(rows_of)
    got = []

    def read():
        try:
            got.append(rows(1, 5))
        except Exception as exc:  # the outcome is the result
            got.append(exc)

    reader = threading.Thread(target=read)
    with pytest.raises(RuntimeError, match="^interrupted$"):
        rows(1, 5)
    reader.join(60)
    assert not reader.is_alive()
    assert got == [tuple((1,) * (n + 1) for n in range(6))]
    assert builds == [1, 1]


def test_a_failed_build_renews_only_the_store_of_its_params(monkeypatch):
    # The rows built at (1,) outlive a build at (2,) that fails at row 3, and
    # the next read at (2,) builds its rows afresh, from a new iterator.
    starts, built = [], []

    def rows_of(x):
        starts.append(x)
        for n in count():
            if (x, n) == (2, 3) and starts.count(2) == 1:
                raise RuntimeError("interrupted")
            built.append((x, n))
            yield (x,) * (n + 1)

    monkeypatch.setattr(exact, "CACHES", [])  # the test's store stays out of the registry
    rows = exact.row_store(rows_of)
    triangle = lambda x, n_max: tuple((x,) * (n + 1) for n in range(n_max + 1))
    assert rows(1, 50) == triangle(1, 50)
    assert rows(2, 1) == triangle(2, 1)
    with pytest.raises(RuntimeError, match="^interrupted$"):
        rows(2, 5)
    assert rows.cache_info().currsize == 2
    held = list(built)
    assert rows(1, 50) == triangle(1, 50) and rows.entry(1, 50, 7) == 1
    assert built == held  # no row of (1,) was built again
    assert rows(2, 5) == triangle(2, 5)
    assert starts == [1, 2, 2]
    assert built[len(held):] == [(2, n) for n in range(6)]
