"""Ring, evaluation and serialization behaviour of the exact scalar layer."""

import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st_

from dowlab.exact import LAMBDA, ONE, ZERO, LambdaPoly, dot

l = LAMBDA

rationals = st_.fractions(
    min_value=-20, max_value=20, max_denominator=10
)
polys = st_.lists(rationals, min_size=0, max_size=5).map(LambdaPoly)


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

    @pytest.mark.parametrize("bad", ["", "1 +", "1++2", "x", "l^", "1//2", "2*", "1/0"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            LambdaPoly.parse(bad)

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


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys, rationals)
def test_eval_is_ring_homomorphism(a, b, q):
    assert (a * b).eval(q) == a.eval(q) * b.eval(q)
    assert (a + b).eval(q) == a.eval(q) + b.eval(q)


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


@given(st_.one_of(st_.integers(), mixed))
def test_constant_hashes_like_the_number_it_equals(v):
    p = LambdaPoly.coerce(v)
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
triples = st_.lists(st_.tuples(scalars, mixed_polys, mixed_polys), max_size=6)


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
int_lists = st_.lists(small_ints, max_size=6)
int_polys = int_lists.map(LambdaPoly)
exact_scalars = st_.one_of(small_ints, mixed)


def form(p):
    return p.nums, p.den


@given(st_.lists(st_.tuples(exact_scalars, st_.one_of(one_coeff_polys, mixed_polys, int_polys),
                            st_.one_of(one_coeff_polys, int_polys)), max_size=8))
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


@given(st_.sampled_from([0.5, 1.0, True, False]), mixed_polys, one_coeff_polys)
def test_dot_fast_paths_refuse_inexact_scalars(c, p, q):
    for terms in ([(c, p, q)], [(c, q, ONE)], [(1, q, p), (c, ONE, ONE)]):
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


@given(mixed, st_.integers(0, 4), st_.integers(0, 6))
def test_monomial_pow_matches_repeated_product(c, d, n):
    p = LambdaPoly((0,) * d + (c,))
    want = LambdaPoly((1,))
    for _ in range(n):
        want = want * p
    got = p**n
    assert_canonical(got)
    assert form(got) == form(want)
    assert got.coeffs == ref_strip(((0,) * (d * n) + (c**n,)) if c else (Fraction(int(n == 0)),))


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
