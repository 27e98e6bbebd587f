"""Generalized falling factorials and Newton-form basis conversion.

The basis machinery expresses a polynomial in a formal variable X as a
combination of products (X - a_0)(X - a_1)...; choosing the node sequence
a_j = j gives the ordinary falling-factorial basis, a_j = j*l the
step-l one, and so on.  ``newton_convert`` converts one ``XPoly`` by
repeated synthetic division, exact and O(n^2) in ring operations;
``newton_rows`` extends the Newton rows of a product of monic linear
factors (X - b_j), given by their roots, row by row over any ring, with one
multiplication per entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Sequence, Union

from .exact import LAMBDA, LambdaPoly, Scalar, as_fraction, check_ints

# A node sequence is just the list a_0, a_1, ... defining the Newton basis.
NodeSequence = Sequence[LambdaPoly]

XScalar = Union[int, Fraction, LambdaPoly, "XPoly"]


def binom(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside 0 <= k <= n (handy in identity sums)."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def gen_binom(alpha: int | Fraction, n: int) -> Fraction:
    """Generalized binomial C(alpha, n) = alpha(alpha-1)...(alpha-n+1)/n! over Q."""
    a = as_fraction(alpha)
    num = Fraction(1)
    for j in range(n):
        num *= a - j
    return num / factorial(n)


def lambda_falling(x: Scalar, n: int, step: Scalar) -> LambdaPoly:
    """Product x(x - step)(x - 2*step)...(x - (n-1)*step); n = 0 gives 1."""
    _check_factorial(x, n, step)
    return _factorial_product(x, n, step, -1)


def lambda_rising(x: Scalar, n: int, step: Scalar) -> LambdaPoly:
    """Product x(x + step)(x + 2*step)...(x + (n-1)*step); n = 0 gives 1."""
    _check_factorial(x, n, step)
    return _factorial_product(x, n, step, 1)


def _check_factorial(x: Scalar, n: int, step: Scalar) -> None:
    """Refuse what the cache must not see: an order that is not an int >= 0,
    and a float or bool x or step, which could hit an equal int's entry."""
    check_ints(n)
    if n < 0:
        raise ValueError("factorial order must be >= 0")
    for value in (x, step):
        if type(value) not in (int, Fraction) and not isinstance(value, LambdaPoly):
            as_fraction(value)  # refuses a float or bool with the usual message


# The identity catalog asks for a few hundred distinct products thousands of
# times, so the cache is keyed on the arguments as passed, with no coercion
# on a hit; typed, so that an int and the constant polynomial equal to it
# keep separate entries.  The bound keeps a long-lived process from growing
# without limit.
@lru_cache(maxsize=4096, typed=True)
def _factorial_product(x: Scalar, n: int, step: Scalar, sign: int) -> LambdaPoly:
    """x(x + sign*step)(x + 2*sign*step)...(x + (n-1)*sign*step) for checked arguments."""
    x = LambdaPoly.coerce(x)
    step = LambdaPoly.coerce(step) * sign
    out = LambdaPoly((1,))
    for j in range(n):
        out = out * (x + step * j)
    return out


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
    if n < 0:
        raise ValueError("basis degree must be >= 0")
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


def newton_rows(
    one,
    root: Callable[[int], object],
    node: Callable[[int], object],
) -> Iterator[tuple]:
    """Endless rows of the monic products (X - b_0)...(X - b_{n-1}), n = 0, 1, ...

    Row n is the tuple of Newton coefficients c_0..c_n of the nth product
    over the nodes a_k = node(k), where b_j = root(j); row 0 is ``(one,)``.
    Roots, nodes and ``one`` share one ring: ``ONE`` for Q[l], ``1`` for
    plain integers.  Every triangle defined by a change of basis is one
    choice of root and node.  The kth node may not depend on the row.

    A product that is monic only in u = sX is passed as roots s b_j and
    nodes s a_k, and then c_k comes out times s^(n-k).

    Row n + 1 extends row n with one ring multiplication per entry:
    X N_k = N_{k+1} + a_k N_k in the basis N_k = (X - a_0)...(X - a_{k-1}),
    so multiplying by X - b_n gives c'_k = c_{k-1} + (a_k - b_n) c_k, with
    c'_{n+1} = c_n.
    """
    nodes = []
    row = (one,)
    for n in count():
        yield row
        b = root(n)
        nodes.append(node(n))
        row = (
            (nodes[0] - b) * row[0],
            *(row[k - 1] + (nodes[k] - b) * row[k] for k in range(1, n + 1)),
            row[n],
        )


def int_nodes(n: int) -> list[LambdaPoly]:
    """Nodes 0, 1, ..., n-1 of the ordinary falling-factorial basis."""
    return [LambdaPoly.const(j) for j in range(n)]


def lambda_nodes(n: int, scale: int | Fraction = 1) -> list[LambdaPoly]:
    """Nodes 0, scale*l, 2*scale*l, ... of the step-l falling basis."""
    return [LAMBDA * Fraction(scale) * j for j in range(n)]
