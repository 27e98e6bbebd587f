"""Higher-order degenerate Bernoulli and Euler numbers.

The closed sums over the two degenerate Stirling triangles are the primary
route; extraction from the Carlitz generating functions is the independent
oracle.  For non-integer Euler order the generating function is the power
(1 + g)^(-alpha) of the series g = (e_l(t)-1)/2, whose constant term is 0,
solved term by term from (1 + g) H' = -alpha g' H; no fractional power of a
number is ever taken.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import ONE, LambdaPoly, _check_counts, as_fraction, bounded, dot
from .bases import binom
from .series import TruncatedSeries, deg_exp, one_series, power_of_one_plus, t_series
from .stirling import deg_stirling1_rows, deg_stirling2_rows


def deg_bernoulli(n: int, k: int) -> LambdaPoly:
    """Order-k degenerate Bernoulli number as a Stirling-pair sum."""
    _check_counts(n=n, k=k)
    s1 = deg_stirling1_rows(n + k)
    s2 = deg_stirling2_rows(n)
    return dot((Fraction(1, binom(l + k, k)), s1[l + k][k], s2[n][l]) for l in range(n + 1))


def deg_euler(n: int, alpha: int | Fraction) -> LambdaPoly:
    """Order-alpha degenerate Euler number; alpha may be any rational."""
    return deg_euler_sum_variant(n, alpha, -1)


def deg_euler_sum_variant(n: int, alpha: int | Fraction, shift: int) -> LambdaPoly:
    """The Euler sum with binomial top alpha + l + shift; shift = -1 is the
    theorem's form, shift = +1 the variant printed in the derivation."""
    _check_counts(n=n)
    x = as_fraction(alpha) + shift
    row = deg_stirling2_rows(n)[n]
    # (-1/2)^l C(x + l, l) l! = prod_{i <= l} -(x + i)/2, one product per l
    weights = [Fraction(1)]
    for i in range(1, n + 1):
        weights.append(weights[-1] * (x + i) / -2)
    return dot((w, s, ONE) for w, s in zip(weights, row))


def deg_bernoulli_gf(n_max: int, k: int) -> list[LambdaPoly]:
    """Oracle: coefficients 0..n_max of (t/(e_l(t)-1))^k."""
    _check_counts(n_max=n_max, k=k)
    powered = _bernoulli_quotient(n_max + 1) ** k
    return [powered.coeff(n) for n in range(n_max + 1)]


# Each order of the Bernoulli and Euler oracles powers the same quotient.
@bounded(16)
def _bernoulli_quotient(order: int) -> TruncatedSeries:
    """t/(e_l(t)-1) to t^order."""
    return t_series(order).divide(deg_exp(1, order) - one_series(order), 1)


def deg_euler_gf(n_max: int, order_k: int) -> list[LambdaPoly]:
    """Oracle for positive integer order: coefficients of (2/(e_l(t)+1))^k."""
    _check_counts(n_max=n_max, order_k=order_k)
    powered = _euler_quotient(n_max) ** order_k
    return [powered.coeff(n) for n in range(n_max + 1)]


@bounded(16)
def _euler_quotient(order: int) -> TruncatedSeries:
    """2/(e_l(t)+1) to t^order."""
    return one_series(order).scaled(2).divide(deg_exp(1, order) + one_series(order), 0)


def deg_euler_gf_binomial(n_max: int, alpha: int | Fraction) -> list[LambdaPoly]:
    """Oracle for any rational order: ((e_l(t)-1)/2 + 1)^(-alpha), solved from
    the first-order recurrence of a power of a series (``power_of_one_plus``)."""
    _check_counts(n_max=n_max)
    half = (deg_exp(1, n_max) - one_series(n_max)).scaled(Fraction(1, 2))
    powered = power_of_one_plus(half, -as_fraction(alpha))
    return [powered.coeff(n) for n in range(n_max + 1)]
