"""Classical and degenerate Stirling numbers, Bell polynomials, r-variants.

Primary computation is basis conversion straight from the defining change
of basis; generating-function extraction is kept as an independent oracle
path (the *_gf builders) so the identity engine can cross-check the two.
Triangles are memoized per parameter set and immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .exact import LAMBDA, LambdaPoly, as_fraction
from .bases import XPoly, int_nodes, lambda_nodes, newton_convert
from .series import binomial_series, deg_exp, deg_log, gf_triangle, one_series

Rows = tuple[tuple[LambdaPoly, ...], ...]


class Family(str, Enum):
    """Triangle families exportable through the CLI."""

    S1 = "S1"
    S2 = "S2"
    S1DEG = "S1deg"
    S2DEG = "S2deg"
    S1DEG_R = "S1degR"
    S2DEG_R = "S2degR"
    WDEG = "Wdeg"
    VDEG = "Vdeg"
    WDEG_R = "WdegR"
    VDEG_R = "VdegR"


@dataclass(frozen=True)
class Triangle:
    """Lower-triangular table of one number family at fixed (m, r)."""

    family: Family
    m: int
    r: int
    n_max: int
    rows: Rows

    def value(self, n: int, k: int) -> LambdaPoly:
        if not (0 <= k <= n <= self.n_max):
            raise IndexError(f"({n}, {k}) outside triangle of size {self.n_max}")
        return self.rows[n][k]

    def value_or_zero(self, n: int, k: int) -> LambdaPoly:
        """Like value(), but 0 outside the triangle; identity sums rely on this."""
        if 0 <= k <= n <= self.n_max:
            return self.rows[n][k]
        return LambdaPoly()


def _freeze(rows: list[list[LambdaPoly]]) -> Rows:
    return tuple(tuple(row) for row in rows)


# -- classical Stirling numbers ---------------------------------------------


@lru_cache(maxsize=None)
def _stirling1_rows(n_max: int) -> tuple[tuple[int, ...], ...]:
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = []
        for k in range(n + 1):
            upper_left = prev[k - 1] if 1 <= k else 0
            upper = prev[k] if k <= n - 1 else 0
            row.append(upper_left - (n - 1) * upper)
        rows.append(row)
    return tuple(tuple(r) for r in rows)


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind."""
    _check_index(n, k)
    return _stirling1_rows(n)[n][k]


@lru_cache(maxsize=None)
def _stirling2_rows(n_max: int) -> tuple[tuple[int, ...], ...]:
    # Defining relation x^n = sum S_2(n,k) (x)_k, solved by Newton conversion.
    rows = []
    for n in range(n_max + 1):
        power = XPoly([0] * n + [1])
        coeffs = newton_convert(power, int_nodes(n))
        row = []
        for c in coeffs:
            q = c.constant()
            row.append(int(q))
        rows.append(row)
    return tuple(tuple(r) for r in rows)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind."""
    _check_index(n, k)
    return _stirling2_rows(n)[n][k]


def _check_index(n: int, k: int) -> None:
    if n < 0 or k < 0 or k > n:
        raise IndexError(f"({n}, {k}) outside triangle")


# -- degenerate Stirling numbers --------------------------------------------


@lru_cache(maxsize=None)
def deg_stirling1_rows(n_max: int) -> Rows:
    """Rows of the first-kind degenerate triangle: (x)_n in the step-l basis."""
    rows: list[list[LambdaPoly]] = []
    prod = XPoly((1,))
    for n in range(n_max + 1):
        if n:
            prod = prod * XPoly((-LambdaPoly.const(n - 1), LambdaPoly((1,))))
        rows.append(newton_convert(prod, lambda_nodes(n)))
    return _freeze(rows)


def deg_stirling1(n: int, k: int) -> LambdaPoly:
    _check_index(n, k)
    return deg_stirling1_rows(n)[n][k]


@lru_cache(maxsize=None)
def deg_stirling2_rows(n_max: int) -> Rows:
    """Rows of the second-kind degenerate triangle: (x)_{n,l} in the falling basis."""
    rows: list[list[LambdaPoly]] = []
    prod = XPoly((1,))
    for n in range(n_max + 1):
        if n:
            prod = prod * XPoly((-LAMBDA * (n - 1), LambdaPoly((1,))))
        rows.append(newton_convert(prod, int_nodes(n)))
    return _freeze(rows)


def deg_stirling2(n: int, k: int) -> LambdaPoly:
    _check_index(n, k)
    return deg_stirling2_rows(n)[n][k]


def deg_stirling1_or_zero(n: int, k: int) -> LambdaPoly:
    if k < 0 or k > n:
        return LambdaPoly()
    return deg_stirling1(n, k)


def deg_stirling2_or_zero(n: int, k: int) -> LambdaPoly:
    if k < 0 or k > n:
        return LambdaPoly()
    return deg_stirling2(n, k)


def deg_bell(n: int, x: int | Fraction) -> LambdaPoly:
    """Degenerate Bell polynomial value: sum_k S2deg(n,k) x^k at rational x."""
    if n < 0:
        raise ValueError("Bell polynomial index must be >= 0")
    return _bell_row_sum(n, as_fraction(x))


@lru_cache(maxsize=4096)
def _bell_row_sum(n: int, x: Fraction) -> LambdaPoly:
    rows = deg_stirling2_rows(n)
    acc = LambdaPoly()
    power = Fraction(1)
    for k in range(n + 1):
        acc = acc + rows[n][k] * power
        power *= x
    return acc


def deg_bell_number(n: int) -> LambdaPoly:
    return deg_bell(n, 1)


# -- degenerate r-Stirling numbers -------------------------------------------


@lru_cache(maxsize=None)
def deg_r_stirling2_rows(r: int, n_max: int) -> Rows:
    """(x+r)_{n,l} in the ordinary falling basis (second kind, shift r)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    rows: list[list[LambdaPoly]] = []
    prod = XPoly((1,))
    for n in range(n_max + 1):
        if n:
            prod = prod * XPoly((LambdaPoly((r, -(n - 1))), LambdaPoly((1,))))
        rows.append(newton_convert(prod, int_nodes(n)))
    return _freeze(rows)


def deg_r_stirling2(n: int, k: int, r: int) -> LambdaPoly:
    _check_index(n, k)
    return deg_r_stirling2_rows(r, n)[n][k]


@lru_cache(maxsize=None)
def deg_r_stirling1_unsigned_rows(r: int, n_max: int) -> Rows:
    """<x+r>_n in the rising step-l basis (unsigned first kind, shift r)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    rows: list[list[LambdaPoly]] = []
    prod = XPoly((1,))
    for n in range(n_max + 1):
        if n:
            prod = prod * XPoly((LambdaPoly.const(r + n - 1), LambdaPoly((1,))))
        nodes = [LAMBDA * (-j) for j in range(n)]
        rows.append(newton_convert(prod, nodes))
    return _freeze(rows)


def deg_r_stirling1_unsigned(n: int, k: int, r: int) -> LambdaPoly:
    _check_index(n, k)
    return deg_r_stirling1_unsigned_rows(r, n)[n][k]


# -- generating-function oracle paths ------------------------------------------


def deg_stirling2_rows_gf(n_max: int) -> Rows:
    """Oracle: coefficients of (e_l(t)-1)^k / k!."""
    return gf_triangle(deg_exp(1, 1, n_max) - one_series(n_max), one_series(n_max), n_max)


def deg_stirling1_rows_gf(n_max: int) -> Rows:
    """Oracle: coefficients of (log_l(1+t))^k / k!."""
    return gf_triangle(deg_log(n_max), one_series(n_max), n_max)


def deg_r_stirling2_rows_gf(r: int, n_max: int) -> Rows:
    """Oracle: coefficients of (e_l(t)-1)^k e_l^r(t) / k!."""
    base = deg_exp(1, 1, n_max) - one_series(n_max)
    return gf_triangle(base, deg_exp(r, 1, n_max), n_max)


def deg_r_stirling1_unsigned_rows_gf(r: int, n_max: int) -> Rows:
    """Oracle: coefficients of (1-t)^(-r) (-log_l(1-t))^k / k!."""
    neg_log = deg_log(n_max).scale_t(-1).scaled(-1)
    prefactor = binomial_series(-r, -1, n_max)
    return gf_triangle(neg_log, prefactor, n_max)
