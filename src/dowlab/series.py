"""The generating-function route: truncated exponential generating
functions over LambdaPoly, and the triangles read off them.

A series of order N stores a_0..a_N with f(t) = sum a_n t^n / n!, so series
products are binomial convolutions and the nth coefficient of a generating
function IS the nth member of the number family it generates.  All binary
operations truncate to the smaller order of their operands.

``gf_triangle`` extracts the coefficients of prefactor * base^k / k!; every
degenerate Stirling and r-Whitney oracle reads its kind's kernel over that,
``_second_kind_gf`` or ``_first_kind_gf``, at its own (m, r).  The
coefficients of ``deg_exp``, ``deg_log`` and ``binomial_series`` are one
running product, ``_falling``, and every exponential, power and log_l of a
series that a command reads is solved term by term by ``_first_order``: exp
is its case s = 0, the powers and log_l of 1 + g its case s = 1.
Like the other two routes' modules, this one reads nothing of the package
but ``exact``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, repeat
from math import comb
from operator import add, mul, sub
from typing import Iterable, Union

from .exact import (
    LAMBDA,
    ONE,
    ZERO,
    LambdaPoly,
    Record,
    Rows,
    Scalar,
    _check_counts,
    _check_m,
    as_fraction,
    bounded,
    check_ints,
    dot,
)


def _leading_zeros(coeffs: tuple[LambdaPoly, ...]) -> int:
    """The number of zero coefficients before the first nonzero one."""
    return next((i for i, c in enumerate(coeffs) if c), len(coeffs))


class TruncatedSeries(Record):
    """EGF truncated at t^order; coeffs[n] multiplies t^n/n!, so the order is
    the length of ``coeffs`` less one."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[LambdaPoly, ...]) -> None:
        if not coeffs:
            raise ValueError("a series holds at least its constant coefficient")
        self._set(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_coeffs(coeffs: Iterable[Scalar], order: int) -> "TruncatedSeries":
        """The series of order ``order`` with the leading ``coeffs``, the rest zero;
        coefficients past ``order`` are dropped."""
        cs = [LambdaPoly.coerce(c) for c in coeffs]
        _check_counts(order=order)
        return TruncatedSeries((*cs, *repeat(ZERO, order + 1))[: order + 1])

    def coeff(self, n: int) -> LambdaPoly:
        """The coefficient of t^n/n!; raises IndexError past the truncation order."""
        check_ints(n)
        if n < 0 or n > self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        _check_counts(order=order)
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries(tuple(map(sub, self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        # EGF product = binomial convolution of the coefficient sequences.
        # Term k of coefficient i vanishes unless a[k] and b[i - k] are past
        # the leading zeros of their series, so the sum starts there, and the
        # coefficients below lo_a + lo_b are zero.  A fork: with dot's int test
        # gone, removing it too cost 10% more catalog CPU at n_max 20 (see exact).
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        lo_a, lo_b = _leading_zeros(a), _leading_zeros(b)
        lo = min(lo_a + lo_b, n + 1)
        out = (
            dot((comb(i, k), a[k], b[i - k]) for k in range(lo_a, i - lo_b + 1))
            for i in range(lo, n + 1)
        )
        return TruncatedSeries((*repeat(ZERO, lo), *out))

    def __pow__(self, n: int) -> "TruncatedSeries":
        _check_counts(n=n)
        return reduce(mul, repeat(self, n), one_series(self.order))

    def scaled(self, factor: Union[int, Fraction, LambdaPoly]) -> "TruncatedSeries":
        """Multiply every coefficient by a scalar."""
        f = LambdaPoly.coerce(factor)
        return TruncatedSeries(tuple(c * f for c in self.coeffs))

    def scale_t(self, factor: int | Fraction) -> "TruncatedSeries":
        """Substitute t -> factor*t."""
        q = as_fraction(factor)
        power = Fraction(1)
        out = []
        for c in self.coeffs:
            out.append(c * power)
            power *= q
        return TruncatedSeries(tuple(out))

    # -- division ------------------------------------------------------------

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact quotient self/other, solved term by term from other * quotient = self.

        The divisor's constant term must be a nonzero rational, the only
        units of the coefficient ring.  Only the Tanny-Dowling oracle,
        ``whitney.tanny_dowling_gf``, divides; a power of a series is
        ``power_of_one_plus``.
        """
        lead = other.coeffs[0]
        if lead.is_zero() or not lead.is_rational():
            raise ValueError(f"divisor constant term {lead} is not an invertible rational")
        g0 = lead.constant()
        n = min(self.order, other.order)
        out: list[LambdaPoly] = []
        for i in range(n + 1):
            terms = ((-comb(i, k), out[k], other.coeffs[i - k]) for k in range(i))
            out.append(dot(chain([(1, self.coeffs[i], ONE)], terms)) / g0)
        return TruncatedSeries(tuple(out))

    # -- composition and exponential ------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)), defined only when inner has zero constant term.

        The sum of a_k inner^k/k!, read off the columns of
        ``gf_triangle(inner, 1, n)``: O(order^3) coefficient products; powers
        and log_l of 1 + inner are cheaper by ``power_of_one_plus`` and
        ``deg_log_of_one_plus``.
        """
        if not inner.coeffs[0].is_zero():
            raise ValueError(_NONZERO_INNER)
        n = min(self.order, inner.order)
        a = self.coeffs
        rows = gf_triangle(inner, one_series(n), n)
        return TruncatedSeries(tuple(dot((1, a[k], c) for k, c in enumerate(row)) for row in rows))

    def exp(self) -> "TruncatedSeries":
        """exp(self), defined only for zero constant term: H = exp(g) solves
        H' = g'H, ``_first_order`` at s = 0, beta = 1, c = 0 and H(0) = 1."""
        if not self.coeffs[0].is_zero():
            raise ValueError("series exponential needs zero constant term")
        return _first_order(self, ONE, 0, 1, 0)


_NONZERO_INNER = "composition needs an inner series with zero constant term"


def _first_order(g: TruncatedSeries, beta: LambdaPoly, c: int, h0: int, s: int) -> TruncatedSeries:
    """H = F(g(t)) for the F with (1 + s u) F'(u) = beta F(u) + c and F(0) = h0.

    H satisfies (1 + s g) H' = g' (beta H + c).  In ordinary coefficients,
    n h_n = c n g_n + sum_{k=1}^{n} (beta k - s (n-k)) g_k h_{n-k} (Miller's
    recurrence for powers of a series); in the EGF coefficients a_k of g
    this reads H_n = c a_n + sum_k (beta C(n-1,k-1) - s C(n-1,k)) a_k H_{n-k},
    so each coefficient costs O(n) products and no series division (Knuth,
    *TAOCP* vol. 2, section 4.7).  At s = 1 it gives (1 + g)^beta and
    log_l(1 + g): the eq12 check, every Bernoulli and Euler oracle and the
    base of the first-kind GF kernel use it.  At s = 0 it gives exp(g),
    ``TruncatedSeries.exp``, which the Bell and Dowling oracles read.  A
    rational beta = p/q folds into each term's int scalar,
    p C(n-1,k-1) - q s C(n-1,k): one product per k, and one division by q per
    coefficient.
    """
    a = g.coeffs
    if not a[0].is_zero():
        raise ValueError(_NONZERO_INNER)
    h = [LambdaPoly.coerce(h0)]
    if beta.is_rational():  # fork: +2% catalog CPU at n_max 10 without it (see exact)
        b = beta.constant()
        p, q = b.numerator, b.denominator
        for n in range(1, g.order + 1):
            terms = (
                (p * comb(n - 1, k - 1) - q * s * comb(n - 1, k), a[k], h[n - k])
                for k in range(1, n + 1)
            )
            h.append(dot(chain(terms, [(q * c, a[n], ONE)])) / q)
        return TruncatedSeries(tuple(h))
    beta_a = [beta * x for x in a]
    for n in range(1, g.order + 1):
        terms = chain(
            ((comb(n - 1, k - 1), beta_a[k], h[n - k]) for k in range(1, n + 1)),
            ((-s * comb(n - 1, k), a[k], h[n - k]) for k in range(1, n)),
            [(c, a[n], ONE)],
        )
        h.append(dot(terms))
    return TruncatedSeries(tuple(h))


def power_of_one_plus(g: TruncatedSeries, beta: Scalar) -> TruncatedSeries:
    """(1 + g(t))^beta for an inner series g with zero constant term."""
    return _first_order(g, LambdaPoly.coerce(beta), 0, 1, 1)


def deg_log_of_one_plus(g: TruncatedSeries) -> TruncatedSeries:
    """log_l(1 + g(t)) = ((1 + g(t))^l - 1)/l, with zero constant term in g."""
    return _first_order(g, LAMBDA, 1, 0, 1)


def one_series(order: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs((1,), order)


def t_series(order: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs((0, 1), order)


def _falling(x: LambdaPoly, s: LambdaPoly, order: int) -> list[LambdaPoly]:
    """The running products x(x-s)...(x-(n-1)s) for n = 0..order, one factor
    per step: the coefficients of ``deg_exp``, ``deg_log`` and ``binomial_series``."""
    out = [ONE]
    for n in range(order):
        out.append(out[-1] * (x - s * n))
    return out


def deg_exp(x: Scalar, order: int) -> TruncatedSeries:
    """e_l^x(t) = (1 + l*t)^(x/l) truncated: a_n = x(x-l)...(x-(n-1)l)."""
    _check_counts(order=order)
    return TruncatedSeries(tuple(_falling(LambdaPoly.coerce(x), LAMBDA, order)))


def deg_log(order: int) -> TruncatedSeries:
    """Compositional inverse of deg_exp(1, .) - 1: a_n = (l-1)(l-2)...(l-(n-1))."""
    _check_counts(order=order)
    return TruncatedSeries((ZERO, *_falling(LAMBDA - 1, ONE, order - 1))[: order + 1])


def binomial_series(alpha: int | Fraction, c: int | Fraction, order: int) -> TruncatedSeries:
    """(1 + c*t)^alpha as an EGF: a_n = n! C(alpha, n) c^n, the running product
    at (c*alpha, c)."""
    _check_counts(order=order)
    a, q = as_fraction(alpha), as_fraction(c)
    x, s = LambdaPoly.coerce(a * q), LambdaPoly.coerce(q)
    return TruncatedSeries(tuple(_falling(x, s, order)))


# A default catalog run asks for 23 distinct triangles, so all of them stay held.
@bounded(32)  # memo: +30% catalog CPU at n_max 20 without it (see exact)
def gf_triangle(
    base: TruncatedSeries, prefactor: TruncatedSeries, n_max: int
) -> tuple[tuple[LambdaPoly, ...], ...]:
    """Lower triangle whose (n,k) entry is the nth coefficient of prefactor*base^k/k!.

    This is the shared extraction step for every generating function of the
    package: the running product starts at the prefactor and takes one more
    factor base/k per column, each coefficient divided by the int k, so the
    whole triangle costs n_max series products; the leading zeros (k of them
    when base(0) = 0) are left as they are.  Triangles are held by their
    (base, prefactor, n_max), so catalog entries share one build.
    """
    _check_counts(n_max=n_max)  # a refused call stores nothing
    acc = prefactor.truncate(n_max)
    columns = [acc.coeffs]
    for k in range(1, n_max + 1):
        acc = acc * base
        # fork: alone within noise, but the deleted set took 3% more at n_max 20 without it
        a, lo = acc.coeffs, _leading_zeros(acc.coeffs)
        acc = TruncatedSeries((*a[:lo], *(c / k for c in a[lo:])))
        columns.append(acc.coeffs)
    # a series shorter than n_max is an IndexError
    return tuple(tuple(column[n] for column in columns[: n + 1]) for n in range(n_max + 1))


# The bases of the generating functions, each built once per parameter set:
# every r of a kernel, and thm3 and thm9 at each x, read the same one.
# A fork: without this memo the catalog took 7% more CPU at n_max 10 (see exact).
@bounded(64)
def _gf_base(m: int, x: int | Fraction, n_max: int) -> TruncatedSeries:
    """x (e_l^m(t)-1)/m, the base of the second-kind generating functions."""
    _check_m(m)
    return (deg_exp(m, n_max) - one_series(n_max)).scaled(as_fraction(x) / m)


# A fork: without this memo the catalog took 5% more CPU at n_max 20 (see exact).
@bounded(64)
def _gf_log_base(m: int, n_max: int) -> TruncatedSeries:
    """log_l(e_m(t)), the base of the first-kind generating functions: log_l(1 + g),
    g = e_m(t) - 1, from its first-order recurrence rather than a composition."""
    e_m = binomial_series(Fraction(1, m), m, n_max)
    return deg_log_of_one_plus(e_m - one_series(n_max))


def _second_kind_gf(m: int, r: int, n_max: int) -> Rows:
    """Coefficients of ((e_l^m(t)-1)/m)^k e_l^r(t) / k!: W_{m,r}(n, k)."""
    _check_m(m)
    _check_counts(r=r)
    return gf_triangle(_gf_base(m, 1, n_max), deg_exp(r, n_max), n_max)


def _first_kind_gf(m: int, r: int, n_max: int) -> Rows:
    """Coefficients of (log_l e_m(t))^k e_m^{-r}(t) / k!: w_{m,r}(n, k)."""
    _check_m(m)
    _check_counts(r=r)
    prefactor = binomial_series(Fraction(-r, m), m, n_max)  # e_m(t) = (1+mt)^(1/m)
    return gf_triangle(_gf_log_base(m, n_max), prefactor, n_max)
