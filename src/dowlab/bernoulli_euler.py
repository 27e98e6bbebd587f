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
from math import factorial

from .exact import ONE, LambdaPoly, as_fraction, check_ints, dot
from .bases import binom, gen_binom
from .series import deg_exp, one_series, power_of_one_plus, t_series
from .stirling import deg_stirling1_rows, deg_stirling2_rows


def deg_bernoulli(n: int, k: int) -> LambdaPoly:
    """Order-k degenerate Bernoulli number as a Stirling-pair sum."""
    check_ints(n, k)
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    s1 = deg_stirling1_rows(n + k)
    s2 = deg_stirling2_rows(n)
    return dot((Fraction(1, binom(l + k, k)), s1[l + k][k], s2[n][l]) for l in range(n + 1))


def deg_euler(n: int, alpha: int | Fraction) -> LambdaPoly:
    """Order-alpha degenerate Euler number; alpha may be any rational."""
    return deg_euler_sum_variant(n, alpha, -1)


def deg_euler_sum_variant(n: int, alpha: int | Fraction, shift: int) -> LambdaPoly:
    """The Euler sum with binomial top alpha + l + shift; shift = -1 is the
    theorem's form, shift = +1 the variant printed in the derivation."""
    check_ints(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    a = as_fraction(alpha)
    row = deg_stirling2_rows(n)[n]
    return dot(
        (Fraction(-1, 2) ** l * gen_binom(a + l + shift, l) * factorial(l), row[l], ONE)
        for l in range(n + 1)
    )


def deg_bernoulli_gf(n_max: int, k: int) -> list[LambdaPoly]:
    """Oracle: coefficients 0..n_max of (t/(e_l(t)-1))^k."""
    check_ints(n_max, k)
    if n_max < 0 or k < 0:
        raise ValueError("n_max and k must be >= 0")
    order = n_max + 1
    quotient = t_series(order).divide(deg_exp(1, order) - one_series(order), 1)
    powered = quotient**k
    return [powered.coeff(n) for n in range(n_max + 1)]


def deg_euler_gf(n_max: int, order_k: int) -> list[LambdaPoly]:
    """Oracle for positive integer order: coefficients of (2/(e_l(t)+1))^k."""
    check_ints(n_max, order_k)
    if n_max < 0 or order_k < 0:
        raise ValueError("n_max and the order must be >= 0")
    two = one_series(n_max).scaled(2)
    quotient = two.divide(deg_exp(1, n_max) + one_series(n_max), 0)
    powered = quotient**order_k
    return [powered.coeff(n) for n in range(n_max + 1)]


def deg_euler_gf_binomial(n_max: int, alpha: int | Fraction) -> list[LambdaPoly]:
    """Oracle for any rational order: ((e_l(t)-1)/2 + 1)^(-alpha), solved from
    the first-order recurrence of a power of a series (``power_of_one_plus``)."""
    check_ints(n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    half = (deg_exp(1, n_max) - one_series(n_max)).scaled(Fraction(1, 2))
    powered = power_of_one_plus(half, -as_fraction(alpha))
    return [powered.coeff(n) for n in range(n_max + 1)]
