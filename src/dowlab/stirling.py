"""Classical and degenerate Stirling numbers, Bell polynomials, r-variants.

Primary computation is basis conversion straight from the defining change
of basis; generating-function extraction is kept as an independent oracle
path (the *_gf builders) so the identity engine can cross-check the two.
Each primary triangle is served by a row store (``row_store``): one per
parameter set, extended row by row when a larger ``n_max`` is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import count
from threading import Lock
from typing import Callable, Iterator

from .exact import ONE, LambdaPoly, as_fraction, check_ints, dot
from .bases import XPoly, int_nodes, lambda_nodes, newton_rows
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


def _freeze(rows: list[list[LambdaPoly]]) -> Rows:
    return tuple(tuple(row) for row in rows)


# -- row stores -----------------------------------------------------------------

# Parameter sets whose rows stay held per family; the least recently used goes.
STORES_HELD = 64


def _check_index(n: int, k: int) -> None:
    check_ints(n, k)
    if n < 0 or k < 0 or k > n:
        raise IndexError(f"({n}, {k}) outside triangle")


def row_store(rows_of: Callable[..., Iterator]) -> Callable[..., Rows]:
    """Serve the endless rows ``rows_of(*params)`` as ``f(*params, n_max) -> Rows``.

    ``rows_of`` checks its parameters before it returns the row iterator, so
    a refused call stores nothing.  A store is the list of rows built so far
    plus the live iterator; a longer ``n_max`` extends it.  The decorated
    function has ``cache_info()`` and ``cache_clear()`` of its stores.
    """

    @lru_cache(maxsize=STORES_HELD)
    def store(*params: int) -> tuple[list[tuple], Iterator]:
        return [], rows_of(*params)

    lock = Lock()  # one thread at a time drives a row iterator

    @wraps(rows_of)
    def rows(*args: int) -> Rows:
        check_ints(*args)
        n_max = args[-1]
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        built, source = store(*args[:-1])
        if len(built) <= n_max:
            with lock:
                try:
                    while len(built) <= n_max:
                        built.append(tuple(next(source)))
                except BaseException:
                    store.cache_clear()  # an interrupted iterator cannot be resumed
                    raise
        return tuple(built[: n_max + 1])

    rows.cache_info = store.cache_info
    rows.cache_clear = store.cache_clear
    return rows


def _recurrence(one, weight: Callable[[int, int], object]) -> Iterator[tuple]:
    """Rows of T(n, k) = T(n-1, k-1) + weight(n, k) T(n-1, k), from T(0, 0) = one."""
    row = (one,)
    for n in count(1):
        yield row
        inner = (row[k - 1] + row[k] * weight(n, k) for k in range(1, n))
        row = (row[0] * weight(n, 0), *inner, row[-1])


# -- classical Stirling numbers ---------------------------------------------


@row_store
def _stirling1_rows() -> Iterator[tuple]:
    return _recurrence(1, lambda n, k: 1 - n)


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind."""
    _check_index(n, k)
    return _stirling1_rows(n)[n][k]


@row_store
def _stirling2_rows() -> Iterator[tuple]:
    # Defining relation x^n = sum S_2(n,k) (x)_k, solved by Newton conversion.
    rows = newton_rows(lambda j: XPoly.x(), int_nodes)
    return ([int(c.constant()) for c in row] for row in rows)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind."""
    _check_index(n, k)
    return _stirling2_rows(n)[n][k]


# -- degenerate Stirling numbers --------------------------------------------


@row_store
def deg_stirling1_rows() -> Iterator[list[LambdaPoly]]:
    """Rows of the first-kind degenerate triangle: (x)_n in the step-l basis."""
    return newton_rows(lambda j: XPoly((-j, 1)), lambda_nodes)


def deg_stirling1(n: int, k: int) -> LambdaPoly:
    _check_index(n, k)
    return deg_stirling1_rows(n)[n][k]


def deg_stirling2_rows(n_max: int) -> Rows:
    """Rows of the second-kind degenerate triangle: (x)_{n,l} in the falling basis."""
    return deg_r_stirling2_rows(0, n_max)


def deg_stirling2(n: int, k: int) -> LambdaPoly:
    _check_index(n, k)
    return deg_stirling2_rows(n)[n][k]


def deg_stirling2_or_zero(n: int, k: int) -> LambdaPoly:
    check_ints(n, k)
    if k < 0 or k > n:
        return LambdaPoly()
    return deg_stirling2(n, k)


def deg_bell(n: int, x: int | Fraction) -> LambdaPoly:
    """Degenerate Bell polynomial value: sum_k S2deg(n,k) x^k at rational x."""
    check_ints(n)
    if n < 0:
        raise ValueError("Bell polynomial index must be >= 0")
    return _bell_row_sum(n, as_fraction(x))


@lru_cache(maxsize=4096)
def _bell_row_sum(n: int, x: Fraction) -> LambdaPoly:
    row = deg_stirling2_rows(n)[n]
    return dot((x**k, row[k], ONE) for k in range(n + 1))


def deg_bell_number(n: int) -> LambdaPoly:
    return deg_bell(n, 1)


# -- degenerate r-Stirling numbers -------------------------------------------


def _check_r(r: int) -> None:
    if r < 0:
        raise ValueError("r must be >= 0")


@row_store
def deg_r_stirling2_rows(r: int) -> Iterator[list[LambdaPoly]]:
    """(x+r)_{n,l} in the ordinary falling basis (second kind, shift r)."""
    _check_r(r)
    return newton_rows(lambda j: XPoly((LambdaPoly((r, -j)), 1)), int_nodes)


def deg_r_stirling2(n: int, k: int, r: int) -> LambdaPoly:
    _check_index(n, k)
    return deg_r_stirling2_rows(r, n)[n][k]


@row_store
def deg_r_stirling1_unsigned_rows(r: int) -> Iterator[list[LambdaPoly]]:
    """<x+r>_n in the rising step-l basis (unsigned first kind, shift r)."""
    _check_r(r)
    return newton_rows(lambda j: XPoly((r + j, 1)), lambda n: lambda_nodes(n, -1))


def deg_r_stirling1_unsigned(n: int, k: int, r: int) -> LambdaPoly:
    _check_index(n, k)
    return deg_r_stirling1_unsigned_rows(r, n)[n][k]


# -- generating-function oracle paths ------------------------------------------


def deg_stirling2_rows_gf(n_max: int) -> Rows:
    """Oracle: coefficients of (e_l(t)-1)^k / k!, the r = 0 case of the r-oracle."""
    return deg_r_stirling2_rows_gf(0, n_max)


def deg_stirling1_rows_gf(n_max: int) -> Rows:
    """Oracle: coefficients of (log_l(1+t))^k / k!."""
    return gf_triangle(deg_log(n_max), one_series(n_max), n_max)


def deg_r_stirling2_rows_gf(r: int, n_max: int) -> Rows:
    """Oracle: coefficients of (e_l(t)-1)^k e_l^r(t) / k!."""
    base = deg_exp(1, n_max) - one_series(n_max)
    return gf_triangle(base, deg_exp(r, n_max), n_max)


def deg_r_stirling1_unsigned_rows_gf(r: int, n_max: int) -> Rows:
    """Oracle: coefficients of (1-t)^(-r) (-log_l(1-t))^k / k!."""
    neg_log = deg_log(n_max).scale_t(-1).scaled(-1)
    prefactor = binomial_series(-r, -1, n_max)
    return gf_triangle(neg_log, prefactor, n_max)
