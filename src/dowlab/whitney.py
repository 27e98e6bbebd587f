"""Degenerate Whitney numbers, Dowling/Tanny-Dowling polynomials, r-variants.

W, V and the r-triangles are read off the kernels of ``newton`` (W and V are
their r = 1 case), and the ``*_gf`` oracles off ``series``, each at its own
(m, r).
The explicit formulas (``*_alt``, ``whitney2_diff``), the classical tables
and ``r_whitney1_rows_direct`` are computed here, over the products of
``bases`` (``v0`` is ``lambda_rising(1, n, m)`` with its sign).  The Dobinski
series is summed in ``dobinski``; ``DobinskiRequest`` and ``dobinski_eval``
are bound here as well, to the same objects.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import factorial
from typing import Iterator

from .exact import (LAMBDA, ONE, LambdaPoly, Rows, _check_counts, _check_index, _check_m,
                    as_fraction, bounded, check_ints, dot)
from . import dobinski
from .bases import binom, falling_transform, lambda_falling, lambda_rising
from .families import Family, family_rows
from .newton import (_first_kind_rows, _row_sum, _second_kind_rows, _stirling1_rows,
                     _stirling2_rows, newton_rows)
from .series import TruncatedSeries, _first_kind_gf, _gf_base, _second_kind_gf, deg_exp, one_series
from .stirling import deg_stirling1_rows


def _first_rows(rows: Iterator[tuple], n_max: int) -> tuple[tuple, ...]:
    """Rows 0..n_max of ``rows``; an ``n_max`` that is not an int >= 0 is refused
    as the row stores refuse it."""
    _check_counts(n_max=n_max)
    return tuple(islice(rows, n_max + 1))


# -- second kind -------------------------------------------------------------


def whitney2_rows(m: int, n_max: int) -> Rows:
    """Second-kind triangle W_{m,1}: the second-kind kernel at (m, 1, 1)."""
    return _second_kind_rows(m, 1, 1, n_max)


def whitney2(m: int, n: int, k: int) -> LambdaPoly:
    return _second_kind_rows.entry(m, 1, 1, n, k)


def whitney2_or_zero(m: int, n: int, k: int) -> LambdaPoly:
    _check_m(m)
    check_ints(n, k)
    if k < 0 or k > n or n < 0:
        return LambdaPoly()
    return whitney2(m, n, k)


def whitney2_rows_newton(m: int, n_max: int) -> Rows:
    """Second-kind triangle as the r-triangle at r = 1: the rows of ``whitney2_rows``."""
    return r_whitney2_rows(m, 1, n_max)


def whitney2_rows_gf(m: int, n_max: int) -> Rows:
    """Second-kind triangle from the generating function e_l(t)((e_l^m(t)-1)/m)^k/k!."""
    return r_whitney2_rows_gf(m, 1, n_max)


# -- first kind ---------------------------------------------------------------


def whitney1_rows(m: int, n_max: int) -> Rows:
    """First-kind triangle w_{m,1}: the first-kind kernel at (m, 1)."""
    return _first_kind_rows(m, 1, n_max)


def whitney1(m: int, n: int, k: int) -> LambdaPoly:
    return _first_kind_rows.entry(m, 1, n, k)


def whitney1_rows_newton(m: int, n_max: int) -> Rows:
    """First-kind triangle as the r-triangle at r = 1: the rows of ``whitney1_rows``."""
    return r_whitney1_rows(m, 1, n_max)


def whitney1_rows_gf(m: int, n_max: int) -> Rows:
    """First-kind triangle from the generating function (log_l e_m(t))^k e_m^{-1}(t)/k!."""
    return r_whitney1_rows_gf(m, 1, n_max)


# -- alternative explicit formulas ---------------------------------------------


def whitney2_alt(m: int, n: int, k: int, path: str) -> LambdaPoly:
    """Second-kind value by one of the alternative explicit formulas."""
    _check_m(m)
    if path == "sum_T12":
        # valid for n < k as well, where the alternating sum vanishes
        check_ints(n, k)
        if n < 0 or k < 0:
            raise IndexError(f"({n}, {k}) outside domain")
        acc = dot(
            ((-1) ** (k - l) * binom(k, l), lambda_falling(l * m + 1, n, LAMBDA), ONE)
            for l in range(k + 1)
        )
        return acc / (factorial(k) * Fraction(m) ** k)
    _check_index(n, k)
    if path == "stirling_T13":
        entry = _second_kind_rows.entry
        return falling_transform(n, ((i, 1, entry(m, 0, 1, i, k)) for i in range(k, n + 1)))
    raise ValueError(f"unknown second-kind path {path!r}")


def whitney2_diff(m: int, n: int, k: int) -> LambdaPoly:
    """Second-kind value as the kth forward difference of (mx+1)_{n,l} at x = 0."""
    _check_m(m)
    _check_index(n, k)
    return _forward_differences(m, n)[k] / (factorial(k) * Fraction(m) ** k)


@bounded(256)  # memo: thm14 at n_max 32 takes 1.28 s, not 0.17 s, without it
def _forward_differences(m: int, n: int) -> tuple[LambdaPoly, ...]:
    """Delta^0 f(0), ..., Delta^n f(0) for f(x) = (mx+1)_{n,l}, from the
    difference table of the values f(0), ..., f(n): each row holds the
    differences of consecutive entries of the one before, and Delta^k f(0)
    heads row k."""
    row = [lambda_falling(m * i + 1, n, LAMBDA) for i in range(n + 1)]
    heads = []
    while row:
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return tuple(heads)


def v0(m: int, n: int) -> LambdaPoly:
    """First-kind column k = 0: (-1)^n (m+1)(2m+1)...((n-1)m+1), free of l."""
    _check_m(m)
    _check_index(n, 0)
    acc = lambda_rising(1, n, m)
    return acc if n % 2 == 0 else -acc


def whitney1_alt(m: int, n: int, k: int, path: str) -> LambdaPoly:
    """First-kind value by one of the alternative explicit formulas."""
    _check_m(m)
    _check_index(n, k)
    if path == "quad_T8":
        s1 = _stirling1_rows(n)
        return dot((s1[n][j] * m ** (n - j), _t8_outer(j, k), ONE) for j in range(k, n + 1))
    if path == "v0_T18":
        return dot((binom(n, i), v0(m, n - i), _t18_inner(m, i, k)) for i in range(k, n + 1))
    if path == "stirling_T19":
        row = _first_kind_rows(m, 0, n)[n]
        return dot(
            ((-1) ** (q - k) * binom(q, k), row[q], lambda_rising(1, q - k, LAMBDA))
            for q in range(k, n + 1)
        )
    raise ValueError(f"unknown first-kind path {path!r}")


# The inner sums of thm8 and thm18 do not depend on n, so each is built once
# per key instead of once per (n, k).
@bounded(4096)  # memo: thm8 and thm18 at n_max 32 take 1.08 s, not 0.25 s, without it
def _t8_outer(j: int, k: int) -> LambdaPoly:
    """sum_l (-1)^(l-k) C(l,k) <1>_{l-k,l} sum_i S2(j,i) S1deg(i,l), the l-sum of thm8."""
    return dot(
        ((-1) ** (l - k) * binom(l, k), lambda_rising(1, l - k, LAMBDA), _t8_inner(j, l))
        for l in range(k, j + 1)
    )


@bounded(4096)  # memo: thm8 and thm18 at n_max 32 take 0.69 s, not 0.24 s, without it
def _t8_inner(j: int, l: int) -> LambdaPoly:
    """sum_i S2(j,i) S1deg(i,l), the inner sum of thm8."""
    s2, s1deg = _stirling2_rows(j), deg_stirling1_rows(j)
    return dot((s2[j][i], s1deg[i][l], ONE) for i in range(l, j + 1))


@bounded(4096)  # memo: thm8 and thm18 at n_max 32 take 0.52 s, not 0.23 s, without it
def _t18_inner(m: int, i: int, k: int) -> LambdaPoly:
    """sum_{j,l} S2(j,l) S1(i,j) m^(i-j) S1deg(l,k), the inner double sum of thm18:
    its l-sum is thm8's ``_t8_inner(j, k)``."""
    s1 = _stirling1_rows(i)
    return dot((s1[i][j] * m ** (i - j), _t8_inner(j, k), ONE) for j in range(k, i + 1))


# -- Dowling and Tanny-Dowling polynomials ----------------------------------------


def dowling_poly(m: int, n: int, x: int | Fraction) -> LambdaPoly:
    """Row polynomial sum_k W(n,k) x^k of the second-kind triangle."""
    check_ints(m)
    _check_counts(n=n)
    return _row_sum((m, 1, 1), n, as_fraction(x), False)


def dowling_number(m: int, n: int) -> LambdaPoly:
    return dowling_poly(m, n, 1)


def tanny_dowling_poly(m: int, n: int, x: int | Fraction) -> LambdaPoly:
    """Ordered variant sum_k k! W(n,k) x^k."""
    check_ints(m)
    _check_counts(n=n)
    return _row_sum((m, 1, 1), n, as_fraction(x), True)


def tanny_dowling_gf(m: int, x: int | Fraction, n_max: int) -> TruncatedSeries:
    """Oracle: e_l(t) / (1 - x (e_l^m(t)-1)/m) generates the ordered polynomials."""
    return deg_exp(1, n_max).divide(one_series(n_max) - _gf_base(m, x, n_max))


def dowling_gf(m: int, x: int | Fraction, n_max: int) -> TruncatedSeries:
    """Oracle: e_l(t) exp(x (e_l^m(t)-1)/m) generates the Dowling polynomials."""
    return deg_exp(1, n_max) * _gf_base(m, x, n_max).exp()


# -- r-generalizations ----------------------------------------------------------


def r_whitney2_rows(m: int, r: int, n_max: int) -> Rows:
    """Second-kind r-triangle: (mx+r)_{n,l} = sum W m^k (x)_k, by the Newton kernel."""
    return _second_kind_rows(m, r, 1, n_max)


def r_whitney1_rows(m: int, r: int, n_max: int) -> Rows:
    """First-kind r-triangle: m^n (x)_n = sum w (mx+r)_{k,l}, by the Newton kernel."""
    return _first_kind_rows(m, r, n_max)


def r_whitney1_rows_direct(m: int, r: int, n_max: int) -> Rows:
    """Cross-check route: the first-kind kernel with the shift r moved from its
    roots onto its nodes, m^n (x)_n over the rational-in-l nodes (k*l - r)/m with
    coefficient k divided by m^k, i.e. expanded in u = mx over the nodes k*l - r."""
    _check_m(m)
    _check_counts(r=r)
    return _first_rows(newton_rows(ONE, lambda j: (j * m, 0), lambda k: (-r, k)), n_max)


def r_whitney2_rows_gf(m: int, r: int, n_max: int) -> Rows:
    """Oracle: coefficients of ((e_l^m(t)-1)/m)^k e_l^r(t) / k!, by the GF kernel."""
    return _second_kind_gf(m, r, n_max)


def r_whitney1_rows_gf(m: int, r: int, n_max: int) -> Rows:
    """Oracle: coefficients of (log_l e_m(t))^k e_m^{-r}(t) / k!, by the GF kernel."""
    return _first_kind_gf(m, r, n_max)


# -- classical limits (plain integers, no l) ---------------------------------------


def classical_whitney2_rows(m: int, n_max: int) -> tuple[tuple[int, ...], ...]:
    """Classical second-kind numbers from (mx+1)^n = sum W m^k (x)_k, in u = mx."""
    _check_m(m)
    return _first_rows(newton_rows(1, lambda j: -1, lambda k: m * k), n_max)


def classical_whitney1_rows(m: int, n_max: int) -> tuple[tuple[int, ...], ...]:
    """Classical first-kind numbers: m^n (x)_n in powers of u = mx+1."""
    _check_m(m)
    # with every node 0 the Newton basis is the power basis of u
    return _first_rows(newton_rows(1, lambda j: 1 + j * m, lambda k: 0), n_max)


# -- Dobinski evaluation (the library's only inexact path) --------------------------

# The evaluator is ``dobinski``'s, so that ``dowlab dobinski`` runs no module but
# it, ``exact`` and ``newton``; thm10 and the benchmark's tracer read it here.
DobinskiRequest = dobinski.DobinskiRequest
dobinski_eval = dobinski.dobinski_eval


# -- triangle export ------------------------------------------------------------


def build_triangle(family: Family | str, m: int, r: int, n_max: int) -> Rows:
    """Rows 0..n_max of ``family_rows(family, m, r)``; no row store is used."""
    return _first_rows(family_rows(family, m, r), n_max)
