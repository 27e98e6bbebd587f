"""Classical and degenerate Stirling numbers, Bell polynomials, r-variants.

Every triangle here is read off a kernel of one route, at its own
parameters: the classical tables and the degenerate (r-)Stirling numbers
off ``newton`` (the r-Whitney kernels at m = 1), and the ``*_gf`` oracles
off ``series``.
S1degR is the first-kind kernel at (1, r), signed (-1)^(n-k).  Each scalar
accessor reads one entry in place through its store's ``entry``.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import LambdaPoly, Rows, _check_counts, _row_sum, as_fraction, check_ints
from .families import _alternating
from .newton import _first_kind_rows, _second_kind_rows, _stirling1_rows, _stirling2_rows
from .series import _first_kind_gf, _second_kind_gf, binomial_series, deg_log, gf_triangle


# -- classical Stirling numbers ---------------------------------------------


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind."""
    return _stirling1_rows.entry(n, k)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind."""
    return _stirling2_rows.entry(n, k)


# -- degenerate Stirling numbers --------------------------------------------


def deg_stirling1_rows(n_max: int) -> Rows:
    """Rows of the first-kind degenerate triangle: (x)_n in the step-l basis."""
    return _first_kind_rows(1, 0, n_max)


def deg_stirling1(n: int, k: int) -> LambdaPoly:
    return _first_kind_rows.entry(1, 0, n, k)


def deg_stirling2_rows(n_max: int) -> Rows:
    """Rows of the second-kind degenerate triangle: (x)_{n,l} in the falling basis."""
    return _second_kind_rows(1, 0, 1, n_max)


def deg_stirling2(n: int, k: int) -> LambdaPoly:
    return _second_kind_rows.entry(1, 0, 1, n, k)


def deg_stirling2_or_zero(n: int, k: int) -> LambdaPoly:
    check_ints(n, k)
    if k < 0 or k > n:
        return LambdaPoly()
    return deg_stirling2(n, k)


def deg_bell(n: int, x: int | Fraction) -> LambdaPoly:
    """Degenerate Bell polynomial value: sum_k S2deg(n,k) x^k at rational x."""
    _check_counts(n=n)
    return _row_sum(_second_kind_rows, (1, 0, 1), n, as_fraction(x), False)


def deg_bell_number(n: int) -> LambdaPoly:
    return deg_bell(n, 1)


# -- degenerate r-Stirling numbers -------------------------------------------


def deg_r_stirling2_rows(r: int, n_max: int) -> Rows:
    """(x+r)_{n,l} in the ordinary falling basis (second kind, shift r)."""
    return _second_kind_rows(1, r, 1, n_max)


def deg_r_stirling1_unsigned_rows(r: int, n_max: int) -> Rows:
    """<x+r>_n in the rising step-l basis: the first-kind kernel at (1, r) under X -> -X."""
    return tuple(_alternating(_first_kind_rows(1, r, n_max)))


# -- generating-function oracles ------------------------------------------------


def deg_stirling2_rows_gf(n_max: int) -> Rows:
    """Oracle: coefficients of (e_l(t)-1)^k / k!."""
    return _second_kind_gf(1, 0, n_max)


def deg_stirling1_rows_gf(n_max: int) -> Rows:
    """Oracle: coefficients of (log_l(1+t))^k / k!."""
    return _first_kind_gf(1, 0, n_max)


def deg_r_stirling2_rows_gf(r: int, n_max: int) -> Rows:
    """Oracle: coefficients of (e_l(t)-1)^k e_l^r(t) / k!."""
    return _second_kind_gf(1, r, n_max)


def deg_r_stirling1_unsigned_rows_gf(r: int, n_max: int) -> Rows:
    """Oracle: coefficients of (1-t)^(-r) (-log_l(1-t))^k / k!, by a series of its own."""
    _check_counts(r=r)
    neg_log = deg_log(n_max).scale_t(-1).scaled(-1)
    prefactor = binomial_series(-r, -1, n_max)
    return gf_triangle(neg_log, prefactor, n_max)
