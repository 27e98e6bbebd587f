"""Classical and degenerate Stirling numbers, Bell polynomials, r-variants.

The classical first-kind table comes from its two-term recurrence; every
other primary triangle is a Newton-basis conversion straight from the
defining change of basis, and generating-function extraction (the *_gf
builders) is an independent oracle route for the identity engine.  Each kind
of degenerate r-Whitney number has one kernel per route over (m >= 1, r >= 0),
which every degenerate Stirling and r-Whitney triangle reads at its own
(m, r); S1degR is the first-kind store at (1, r), signed (-1)^(n-k).
Each primary triangle is served by a row store (``row_store``): one per
parameter set, extended row by row when a larger ``n_max`` is asked for.
Each scalar accessor reads one entry in place through its store's ``entry``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import wraps
from itertools import count
from threading import Lock
from typing import Callable, Iterable, Iterator

from .exact import LAMBDA, ONE, LambdaPoly, as_fraction, bounded, check_ints, dot, linear, muladd
from .bases import newton_rows
from .series import (TruncatedSeries, binomial_series, deg_exp, deg_log, deg_log_of_one_plus,
                     gf_triangle, one_series)

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


# -- row stores -----------------------------------------------------------------

# Parameter sets whose rows stay held per family; the least recently used goes.
STORES_HELD = 64


def _check_index(n: int, k: int) -> None:
    check_ints(n, k)
    if n < 0 or k < 0 or k > n:
        raise IndexError(f"({n}, {k}) outside triangle")


def row_store(rows_of: Callable[..., Iterator]) -> Callable[..., Rows]:
    """Serve the endless rows ``rows_of(*params)`` as ``f(*params, n_max) -> Rows``.

    ``rows_of`` yields each row as a tuple, which the store keeps as it
    comes.  It checks the values of its parameters (m >= 1, r >= 0 for the
    kernels) before it returns the row iterator, so a refused call stores
    nothing.  A store is the list of rows built so far plus the live
    iterator; a longer ``n_max`` extends it.  The decorated function has
    ``cache_info()`` and ``cache_clear()`` of its stores, and
    ``entry(*params, n, k)``, which reads one entry of the same store in
    place; only ``f`` copies rows out of it.  Both refuse a non-int argument
    first, then a bad ``n_max`` or (n, k), then what ``rows_of`` refuses.
    """

    @bounded(STORES_HELD)
    @wraps(rows_of)  # the store's cache is named after its triangle
    def store(*params: int) -> tuple[list[tuple], Iterator]:
        return [], rows_of(*params)

    lock = Lock()  # one thread at a time drives a row iterator

    def built_to(params: tuple[int, ...], n: int) -> list[tuple]:
        """The rows of the store of ``params``, extended to hold row ``n``."""
        built, source = store(*params)
        if len(built) <= n:
            with lock:
                try:
                    while len(built) <= n:
                        built.append(next(source))
                except BaseException:
                    store.cache_clear()  # an interrupted iterator cannot be resumed
                    raise
        return built

    @wraps(rows_of)
    def rows(*args: int) -> Rows:
        check_ints(*args)
        n_max = args[-1]
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        return tuple(built_to(args[:-1], n_max)[: n_max + 1])

    def entry(*args: int):
        """Entry (n, k) of the triangle at ``params``, for ``args = (*params, n, k)``."""
        params, (n, k) = args[:-2], args[-2:]
        check_ints(*params)
        _check_index(n, k)
        return built_to(params, n)[n][k]

    rows.entry = entry
    rows.cache_info = store.cache_info
    rows.cache_clear = store.cache_clear
    return rows


# thm23 and cor22 read every earlier row sum at each n, so each is built once per key.
@bounded(4096)
def _row_sum(store: Callable, params: tuple, n: int, x: Fraction, ordered: bool) -> LambdaPoly:
    """sum_k T(n,k) x^k over row n of ``store(*params, n)``, weighted by k! when
    ``ordered``: the degenerate Bell polynomials at (1, 0) of ``_second_kind_rows``,
    m^n Bdeg_n(x/m) at l -> l/m at (m, 0), the (Tanny-)Dowling polynomials over
    ``whitney2_rows``.  At x = p/q, int weights p^k q^(n-k) (times k!) over q^n."""
    row = store(*params, n)[n]
    p, q = x.numerator, x.denominator
    terms = []
    weight = 1  # p^k, times k! when ordered
    for k in range(n + 1):
        terms.append((weight * q ** (n - k), row[k], ONE))
        weight *= p * (k + 1) if ordered else p
    return dot(terms) / q**n


def _recurrence(one, weight: Callable[[int, int], object]) -> Iterator[tuple]:
    """Rows of T(n, k) = T(n-1, k-1) + weight(n, k) T(n-1, k), from T(0, 0) = one."""
    row = (one,)
    for n in count(1):
        yield row
        inner = (muladd(row[k - 1], weight(n, k), row[k]) for k in range(1, n))
        row = (row[0] * weight(n, 0), *inner, row[-1])


# -- classical Stirling numbers ---------------------------------------------


@row_store
def _stirling1_rows() -> Iterator[tuple]:
    return _recurrence(1, lambda n, k: 1 - n)


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind."""
    return _stirling1_rows.entry(n, k)


@row_store
def _stirling2_rows() -> Iterator[tuple]:
    # Defining relation x^n = sum S_2(n,k) (x)_k, solved by Newton conversion.
    return newton_rows(1, lambda j: 0, lambda k: k)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind."""
    return _stirling2_rows.entry(n, k)


# -- degenerate Stirling numbers --------------------------------------------

# The degenerate r-Whitney numbers hold the degenerate Stirling ones: the r-Stirling
# numbers at m = 1 (eq77), and at r = 0 the rescaled m^(n-k) T(n,k | l/m) of thm13,
# thm19-20, thm23 and thm26.  So each kind is one row store over (m, r), and one GF kernel.


def _check_m(m: int) -> None:
    check_ints(m)
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")


def _check_r(r: int) -> None:
    check_ints(r)
    if r < 0:
        raise ValueError(f"r must be an integer >= 0, got {r}")


@row_store
def _second_kind_rows(m: int, r: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """W_{m,r}: (mx+r)_{n,l} = sum_k W m^k (x)_k in u = mx, over the nodes 0, m, 2m, ..."""
    _check_m(m)
    _check_r(r)
    return newton_rows(ONE, lambda j: linear(-r, j), lambda k: m * k)


@row_store
def _first_kind_rows(m: int, r: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """w_{m,r}: m^n (x)_n = prod_j (u - (r+jm)) = sum_k w (u)_{k,l} in u = mx + r."""
    _check_m(m)
    _check_r(r)
    return newton_rows(ONE, lambda j: r + j * m, lambda k: LAMBDA * k)


def deg_stirling1_rows(n_max: int) -> Rows:
    """Rows of the first-kind degenerate triangle: (x)_n in the step-l basis."""
    return _first_kind_rows(1, 0, n_max)


def deg_stirling1(n: int, k: int) -> LambdaPoly:
    return _first_kind_rows.entry(1, 0, n, k)


def deg_stirling2_rows(n_max: int) -> Rows:
    """Rows of the second-kind degenerate triangle: (x)_{n,l} in the falling basis."""
    return _second_kind_rows(1, 0, n_max)


def deg_stirling2(n: int, k: int) -> LambdaPoly:
    return _second_kind_rows.entry(1, 0, n, k)


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
    return _row_sum(_second_kind_rows, (1, 0), n, as_fraction(x), False)


def deg_bell_number(n: int) -> LambdaPoly:
    return deg_bell(n, 1)


# -- degenerate r-Stirling numbers -------------------------------------------


def deg_r_stirling2_rows(r: int, n_max: int) -> Rows:
    """(x+r)_{n,l} in the ordinary falling basis (second kind, shift r)."""
    return _second_kind_rows(1, r, n_max)


def deg_r_stirling2(n: int, k: int, r: int) -> LambdaPoly:
    return _second_kind_rows.entry(1, r, n, k)


def _alternating(rows: Iterable[tuple]) -> Iterator[tuple]:
    """Each row n of ``rows`` with entry k times (-1)^(n-k)."""
    for n, row in enumerate(rows):
        yield tuple(-v if (n - k) % 2 else v for k, v in enumerate(row))


def deg_r_stirling1_unsigned_rows(r: int, n_max: int) -> Rows:
    """<x+r>_n in the rising step-l basis: the first-kind kernel at (1, r) under X -> -X."""
    return tuple(_alternating(_first_kind_rows(1, r, n_max)))


def deg_r_stirling1_unsigned(n: int, k: int, r: int) -> LambdaPoly:
    value = _first_kind_rows.entry(1, r, n, k)
    return -value if (n - k) % 2 else value


# -- generating-function kernels and oracles ------------------------------------

# The bases of the generating functions, each built once per parameter set:
# every r of a kernel, and thm3 and thm9 at each x, read the same one.
@bounded(64)
def _gf_base(m: int, x: int | Fraction, n_max: int) -> TruncatedSeries:
    """x (e_l^m(t)-1)/m, the base of the second-kind generating functions."""
    _check_m(m)
    return (deg_exp(m, n_max) - one_series(n_max)).scaled(as_fraction(x) / m)


@bounded(64)
def _gf_log_base(m: int, n_max: int) -> TruncatedSeries:
    """log_l(e_m(t)), the base of the first-kind generating functions: log_l(1 + g),
    g = e_m(t) - 1, from its first-order recurrence rather than a composition."""
    e_m = binomial_series(Fraction(1, m), m, n_max)
    return deg_log_of_one_plus(e_m - one_series(n_max))


def _second_kind_gf(m: int, r: int, n_max: int) -> Rows:
    """Coefficients of ((e_l^m(t)-1)/m)^k e_l^r(t) / k!: ``_second_kind_rows`` by GF."""
    _check_m(m)
    _check_r(r)
    return gf_triangle(_gf_base(m, 1, n_max), deg_exp(r, n_max), n_max)


def _first_kind_gf(m: int, r: int, n_max: int) -> Rows:
    """Coefficients of (log_l e_m(t))^k e_m^{-r}(t) / k!: ``_first_kind_rows`` by GF."""
    _check_m(m)
    _check_r(r)
    prefactor = binomial_series(Fraction(-r, m), m, n_max)  # e_m(t) = (1+mt)^(1/m)
    return gf_triangle(_gf_log_base(m, n_max), prefactor, n_max)


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
    _check_r(r)
    neg_log = deg_log(n_max).scale_t(-1).scaled(-1)
    prefactor = binomial_series(-r, -1, n_max)
    return gf_triangle(neg_log, prefactor, n_max)
