"""Generalized falling factorials, the binomial transform pair over them, and
Newton-form basis conversion of one polynomial.

The basis machinery expresses a polynomial in a formal variable X as a
combination of products (X - a_0)(X - a_1)...; choosing the node sequence
a_j = j gives the ordinary falling-factorial basis, a_j = j*l the
step-l one, and so on.  ``newton_convert`` (one ``XPoly`` by repeated
synthetic division, O(n^2)) is no triangle's route: it is the tests'
reference for ``newton.newton_rows``.  This module reads only ``exact``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, lcm, prod
from typing import Iterable, Sequence, Union

from .exact import LAMBDA, LambdaPoly, Scalar, _check_counts, as_fraction, bounded, check_ints, dot
from .exact import _addmul, _canonical

# A node sequence is just the list a_0, a_1, ... defining the Newton basis.
NodeSequence = Sequence[LambdaPoly]

XScalar = Union[int, Fraction, LambdaPoly, "XPoly"]

# One term (j, c_j, v_j) of a binomial transform: an int weight and a value.
TransformTerms = Iterable[tuple[int, int, LambdaPoly]]


def binom(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside 0 <= k <= n (handy in identity sums)."""
    check_ints(n, k)
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def gen_binom(alpha: int | Fraction, n: int) -> Fraction:
    """Generalized binomial C(alpha, n) = alpha(alpha-1)...(alpha-n+1)/n! over Q."""
    _check_counts(n=n)
    a = as_fraction(alpha)
    return Fraction(prod(a - j for j in range(n)), factorial(n))


def lambda_falling(x: Scalar, n: int, step: Scalar) -> LambdaPoly:
    """Product x(x - step)(x - 2*step)...(x - (n-1)*step); n = 0 gives 1."""
    return _factorial_product(x, n, step, -1)


def lambda_rising(x: Scalar, n: int, step: Scalar) -> LambdaPoly:
    """Product x(x + step)(x + 2*step)...(x + (n-1)*step); n = 0 gives 1."""
    return _factorial_product(x, n, step, 1)


def falling_transform(n: int, terms: TransformTerms, step: Scalar = LAMBDA) -> LambdaPoly:
    """sum_j C(n,j) c_j v_j (1)_{n-j,step} over the (j, c_j, v_j) of ``terms``.

    With ``rising_transform`` at the same step, this is the degenerate
    binomial transform pair of Theorem 25: a_n = sum_k C(n,k) (1)_{n-k,l} b_k
    holds for all n exactly when b_n = sum_k (-1)^(n-k) C(n,k) <1>_{n-k,l} a_k
    does, with l the step.  Every explicit side of that shape calls the pair:
    ``stirling_T13`` (thm13), thm21, cor22 and its remark (step m l), thm23,
    thm26, both forms of lemma24 and thm25's round trips.
    """
    return dot((binom(n, j) * c, v, lambda_falling(1, n - j, step)) for j, c, v in terms)


def rising_transform(n: int, terms: TransformTerms, step: Scalar = LAMBDA) -> LambdaPoly:
    """sum_j (-1)^(n-j) C(n,j) c_j v_j <1>_{n-j,step}, the inverse of ``falling_transform``."""
    return dot(
        ((-1) ** (n - j) * binom(n, j) * c, v, lambda_rising(1, n - j, step)) for j, c, v in terms
    )


def _check_factorial(x: Scalar, n: int, step: Scalar) -> None:
    """Refuse what the cache must not hold: an order that is not an int >= 0
    (a negative one would cache 1), and a float or bool x or step."""
    _check_counts(n=n)
    for value in (x, step):
        if type(value) not in (int, Fraction) and not isinstance(value, LambdaPoly):
            as_fraction(value)  # refuses a float or bool with the usual message


# The identity catalog asks for a few hundred distinct products thousands of times,
# so the cache is keyed on the arguments as passed, with no coercion or check on a
# hit: its typed keys keep a float or bool from an equal int's entry.  The arguments
# are checked on a miss only, and a refused call caches nothing.
@bounded(4096)
def _factorial_product(x: Scalar, n: int, step: Scalar, sign: int) -> LambdaPoly:
    """x(x + sign*step)(x + 2*sign*step)...(x + (n-1)*sign*step): over one
    denominator D of x and step, every factor is a list of int numerators
    multiplied in by the kernel's product loop, and D^n divides out once."""
    _check_factorial(x, n, step)
    x, step = LambdaPoly.coerce(x), LambdaPoly.coerce(step)
    den = lcm(x.den, step.den)
    a = [c * (den // x.den) for c in x.nums]
    b = [c * sign * (den // step.den) for c in step.nums]
    out = [1]
    for j in range(n):
        factor = [u + j * v for u, v in zip_longest(a, b, fillvalue=0)]
        acc = [0] * (len(out) + len(factor) - 1)
        _addmul(acc, out, factor, 1)
        out = acc
    return _canonical(out, den**n)


class XPoly:
    """Polynomial in a formal variable X with LambdaPoly coefficients.

    Same canonical-form rules as LambdaPoly, one level up: coefficients
    ascending in X, trailing zeros stripped, immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [LambdaPoly.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs: tuple[LambdaPoly, ...] = tuple(cs)

    @classmethod
    def coerce(cls, value: XScalar) -> "XPoly":
        if isinstance(value, XPoly):
            return value
        return cls((LambdaPoly.coerce(value),))

    @classmethod
    def x(cls) -> "XPoly":
        return cls((LambdaPoly(), LambdaPoly((1,))))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, XPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, LambdaPoly)):
            return self == XPoly.coerce(other)
        return NotImplemented

    def __add__(self, other: XScalar) -> "XPoly":
        other = XPoly.coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "XPoly":
        return XPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: XScalar) -> "XPoly":
        return self + (-XPoly.coerce(other))

    def __rsub__(self, other: XScalar) -> "XPoly":
        return XPoly.coerce(other) + (-self)

    def __mul__(self, other: XScalar) -> "XPoly":
        other = XPoly.coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return XPoly()
        out = [LambdaPoly() for _ in range(len(a) + len(b) - 1)]
        for i, ca in enumerate(a):
            if ca.is_zero():
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return XPoly(out)

    __rmul__ = __mul__

    def eval(self, point: Scalar) -> LambdaPoly:
        """Horner evaluation at a LambdaPoly (or rational) value of X."""
        p = LambdaPoly.coerce(point)
        acc = LambdaPoly()
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def compose(self, inner: "XPoly") -> "XPoly":
        """Substitute X -> inner(X), by Horner over XPoly."""
        acc = XPoly()
        for c in reversed(self.coeffs):
            acc = acc * inner + XPoly.coerce(c)
        return acc

    def synth_div(self, node: LambdaPoly) -> tuple["XPoly", LambdaPoly]:
        """Divide by the monic linear (X - node): returns (quotient, remainder)."""
        if self.is_zero():
            return XPoly(), LambdaPoly()
        cs = self.coeffs
        if len(cs) == 1:
            return XPoly(), cs[0]
        q = [LambdaPoly()] * (len(cs) - 1)
        carry = cs[-1]
        for i in range(len(cs) - 2, -1, -1):
            q[i] = carry
            carry = cs[i] + node * carry
        return XPoly(q), carry

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.coeffs)
        return f"XPoly([{body}])"


def basis_poly(n: int, nodes: NodeSequence) -> XPoly:
    """Monic degree-n product (X - a_0)...(X - a_{n-1}); n = 0 gives 1."""
    _check_counts(n=n)
    if len(nodes) < n:
        raise ValueError(f"need at least {n} nodes, got {len(nodes)}")
    out = XPoly((LambdaPoly((1,)),))
    for j in range(n):
        out = out * XPoly((-LambdaPoly.coerce(nodes[j]), LambdaPoly((1,))))
    return out


def newton_convert(p: XPoly, nodes: NodeSequence) -> list[LambdaPoly]:
    """Coefficients c_0..c_deg of p in the Newton basis over ``nodes``.

    Returns c_k with p(X) = sum_k c_k * (X - a_0)...(X - a_{k-1}), computed
    by repeated synthetic division.  Exact; no distinctness assumption on
    the nodes is needed because the basis is triangular.
    """
    if p.is_zero():
        return [LambdaPoly()]
    deg = p.degree
    if len(nodes) < deg:
        raise ValueError(f"need at least {deg} nodes, got {len(nodes)}")
    out: list[LambdaPoly] = []
    q = p
    for k in range(deg):
        q, rem = q.synth_div(LambdaPoly.coerce(nodes[k]))
        out.append(rem)
    out.append(q.coeffs[0])
    return out


def int_nodes(n: int) -> list[LambdaPoly]:
    """Nodes 0, 1, ..., n-1 of the ordinary falling-factorial basis."""
    _check_counts(n=n)
    return [LambdaPoly.coerce(j) for j in range(n)]


def lambda_nodes(n: int, scale: int | Fraction = 1) -> list[LambdaPoly]:
    """Nodes 0, scale*l, 2*scale*l, ... of the step-l falling basis."""
    return [LAMBDA * Fraction(scale) * j for j in range(n)]
