"""Higher-order degenerate Bernoulli and Euler numbers.

The closed sums over the two degenerate Stirling triangles are the primary
route; extraction from the Carlitz generating functions is the independent
oracle.  Every Bernoulli and Euler oracle is a power (1 + g)^beta of a series
g whose constant term is 0, solved term by term from (1 + g) H' = beta g' H
(``power_of_one_plus``): (t/(e_l(t)-1))^k has 1 + g = (e_l(t)-1)/t and
beta = -k, (2/(e_l(t)+1))^alpha has g = (e_l(t)-1)/2 and beta = -alpha.  No
series is divided and no fractional power of a number is ever taken.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import ONE, ZERO, LambdaPoly, _check_counts, as_fraction, dot
from .bases import binom
from .series import TruncatedSeries, deg_exp, one_series, power_of_one_plus
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
    """Oracle: coefficients 0..n_max of (t/(e_l(t)-1))^k = (1 + g)^(-k), where
    coefficient n of 1 + g = (e_l(t)-1)/t is a_{n+1}/(n+1), for the
    coefficients a_n of e_l(t)."""
    _check_counts(n_max=n_max, k=k)
    a = deg_exp(1, n_max + 1).coeffs
    g = TruncatedSeries((ZERO, *(a[n + 1] / (n + 1) for n in range(1, n_max + 1))))
    return list(power_of_one_plus(g, -k).coeffs)


def deg_euler_gf(n_max: int, order_k: int) -> list[LambdaPoly]:
    """Oracle for integer order: coefficients of (2/(e_l(t)+1))^k, the
    rational-order oracle at alpha = k."""
    _check_counts(n_max=n_max, order_k=order_k)
    return deg_euler_gf_binomial(n_max, order_k)


def deg_euler_gf_binomial(n_max: int, alpha: int | Fraction) -> list[LambdaPoly]:
    """Oracle for any rational order: ((e_l(t)-1)/2 + 1)^(-alpha), solved from
    the first-order recurrence of a power of a series (``power_of_one_plus``)."""
    _check_counts(n_max=n_max)
    half = (deg_exp(1, n_max) - one_series(n_max)).scaled(Fraction(1, 2))
    return list(power_of_one_plus(half, -as_fraction(alpha)).coeffs)
