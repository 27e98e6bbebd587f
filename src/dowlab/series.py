"""Truncated exponential generating functions over LambdaPoly.

A series of order N stores a_0..a_N with f(t) = sum a_n t^n / n!, so series
products are binomial convolutions and the nth coefficient of a generating
function IS the nth member of the number family it generates.  All binary
operations truncate to the smaller order of their operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, factorial
from typing import Iterable, Union

from .exact import LAMBDA, ONE, LambdaPoly, Scalar, as_fraction, dot


@dataclass(frozen=True)
class TruncatedSeries:
    """EGF truncated at t^order; coeffs[n] multiplies t^n/n!."""

    order: int
    coeffs: tuple[LambdaPoly, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("series order must be >= 0")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient list must have length order + 1")

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_coeffs(coeffs: Iterable[Scalar], order: int | None = None) -> "TruncatedSeries":
        cs = [LambdaPoly.coerce(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        cs += [LambdaPoly()] * (order + 1 - len(cs))
        return TruncatedSeries(order, tuple(cs))

    def coeff(self, n: int) -> LambdaPoly:
        """The coefficient of t^n/n!; raises IndexError past the truncation order."""
        if n < 0 or n > self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(order, self.coeffs[: order + 1])

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            n, tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            n, tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1))
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        # EGF product = binomial convolution of the coefficient sequences.
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = (dot((comb(i, k), a[k], b[i - k]) for k in range(i + 1)) for i in range(n + 1))
        return TruncatedSeries(n, tuple(out))

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("negative series power")
        out = one_series(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scaled(self, factor: Union[int, Fraction, LambdaPoly]) -> "TruncatedSeries":
        """Multiply every coefficient by a scalar."""
        f = LambdaPoly.coerce(factor)
        return TruncatedSeries(self.order, tuple(c * f for c in self.coeffs))

    def scale_t(self, factor: int | Fraction) -> "TruncatedSeries":
        """Substitute t -> factor*t."""
        q = as_fraction(factor)
        power = Fraction(1)
        out = []
        for c in self.coeffs:
            out.append(c * power)
            power *= q
        return TruncatedSeries(self.order, tuple(out))

    # -- division ------------------------------------------------------------

    def divide(self, other: "TruncatedSeries", known_zero_order: int = 0) -> "TruncatedSeries":
        """Exact quotient self/other after shifting both down by t^known_zero_order.

        Both operands must vanish to order ``known_zero_order``; after the
        shift the divisor's constant term must be a nonzero rational, the
        only units of the coefficient ring.  The explicit argument (rather
        than auto-detected zeros) catches mis-built numerators early.
        """
        s = known_zero_order
        if s < 0:
            raise ValueError("known_zero_order must be >= 0")
        num = self._shift_down(s)
        den = other._shift_down(s)
        lead = den.coeffs[0]
        if lead.is_zero() or not lead.is_rational():
            raise ValueError(
                f"divisor constant term {lead} after shift by {s} is not an invertible rational"
            )
        g0 = lead.constant()
        n = min(num.order, den.order)
        out: list[LambdaPoly] = []
        for i in range(n + 1):
            terms = ((-comb(i, k), out[k], den.coeffs[i - k]) for k in range(i))
            out.append(dot(chain([(1, num.coeffs[i], ONE)], terms)) / g0)
        return TruncatedSeries(n, tuple(out))

    def _shift_down(self, s: int) -> "TruncatedSeries":
        """Divide by t^s as a function; errors unless the low coefficients vanish."""
        if s == 0:
            return self
        if s > self.order:
            raise ValueError(f"cannot shift a series of order {self.order} down by {s}")
        for i in range(s):
            if not self.coeffs[i].is_zero():
                raise ValueError(
                    f"series does not have {s} leading zero coefficients (a_{i} = {self.coeffs[i]})"
                )
        out = []
        for n in range(self.order - s + 1):
            out.append(self.coeffs[n + s] * Fraction(factorial(n), factorial(n + s)))
        return TruncatedSeries(self.order - s, tuple(out))

    # -- composition and exponential ------------------------------------------

    def _ordinary(self) -> list[LambdaPoly]:
        return [c / factorial(n) for n, c in enumerate(self.coeffs)]

    @staticmethod
    def _from_ordinary(coeffs: list[LambdaPoly], order: int) -> "TruncatedSeries":
        out = [coeffs[n] * factorial(n) if n < len(coeffs) else LambdaPoly() for n in range(order + 1)]
        return TruncatedSeries(order, tuple(out))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)), defined only when inner has zero constant term."""
        if not inner.coeffs[0].is_zero():
            raise ValueError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        f = self.truncate(n)._ordinary()
        g = inner.truncate(n)._ordinary()
        acc = [LambdaPoly()] * (n + 1)
        for c in reversed(f):
            acc = _ord_mul(acc, g, n)
            acc[0] = acc[0] + c
        return TruncatedSeries._from_ordinary(acc, n)

    def exp(self) -> "TruncatedSeries":
        """exp(self), via h' = f'h; defined only for zero constant term."""
        if not self.coeffs[0].is_zero():
            raise ValueError("series exponential needs zero constant term")
        n = self.order
        f = self._ordinary()
        h = [LambdaPoly() for _ in range(n + 1)]
        h[0] = LambdaPoly((1,))
        for i in range(n):
            h[i + 1] = dot((j + 1, f[j + 1], h[i - j]) for j in range(i + 1)) / (i + 1)
        return TruncatedSeries._from_ordinary(h, n)


def _ord_mul(a: list[LambdaPoly], b: list[LambdaPoly], order: int) -> list[LambdaPoly]:
    """The ordinary product of two coefficient lists, truncated at t^order."""
    return [
        dot((1, a[i], b[s - i]) for i in range(max(0, s - len(b) + 1), min(s, len(a) - 1) + 1))
        for s in range(order + 1)
    ]


def one_series(order: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs((1,), order)


def t_series(order: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs((0, 1), order)


def deg_exp(x: Scalar, order: int) -> TruncatedSeries:
    """e_l^x(t) = (1 + l*t)^(x/l) truncated: a_n = x(x-l)...(x-(n-1)l)."""
    xp = LambdaPoly.coerce(x)
    out = [LambdaPoly((1,))]
    cur = LambdaPoly((1,))
    for n in range(1, order + 1):
        cur = cur * (xp - LAMBDA * (n - 1))
        out.append(cur)
    return TruncatedSeries(order, tuple(out))


def deg_log(order: int) -> TruncatedSeries:
    """Compositional inverse of deg_exp(1, .) - 1: a_n = (l-1)(l-2)...(l-(n-1))."""
    out = [LambdaPoly()]
    cur = LambdaPoly((1,))
    for n in range(1, order + 1):
        if n >= 2:
            cur = cur * (LAMBDA - (n - 1))
        out.append(cur)
    return TruncatedSeries(order, tuple(out))


def binomial_series(alpha: int | Fraction, c: int | Fraction, order: int) -> TruncatedSeries:
    """(1 + c*t)^alpha as an EGF: a_n = n! * C(alpha, n) * c^n."""
    a = as_fraction(alpha)
    q = as_fraction(c)
    out = [LambdaPoly((1,))]
    cur = Fraction(1)
    for n in range(1, order + 1):
        cur = cur * (a - (n - 1)) * q
        out.append(LambdaPoly((cur,)))
    return TruncatedSeries(order, tuple(out))


def gf_triangle(
    base: TruncatedSeries, prefactor: TruncatedSeries, n_max: int
) -> tuple[tuple[LambdaPoly, ...], ...]:
    """Lower triangle whose (n,k) entry is the nth coefficient of prefactor*base^k/k!.

    This is the shared extraction step for every generating function of the
    package: the running product starts at the prefactor and takes one more
    factor base/k per column, so the whole triangle costs n_max series
    products.
    """
    rows = [[LambdaPoly() for _ in range(n + 1)] for n in range(n_max + 1)]
    acc = prefactor.truncate(n_max)  # a series of order n_max < 0 is a ValueError
    for k in range(n_max + 1):
        if k:
            acc = (acc * base).scaled(Fraction(1, k))
        for n in range(k, n_max + 1):
            rows[n][k] = acc.coeff(n)
    return tuple(tuple(row) for row in rows)
