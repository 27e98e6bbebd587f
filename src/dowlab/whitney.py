"""Degenerate Whitney numbers, Dowling/Tanny-Dowling polynomials, r-variants.

Three independent computation routes exist:

* the two-term recurrences, primary for W and V (cheapest),
* Newton conversion of the defining change of basis, primary for the
  r-triangles, which have no recurrence here; W and V are their r = 1 case,
* coefficient extraction from the generating functions, for every triangle.

The identity engine and the acceptance suite compare all three entry by
entry, so none of the routes is ever trusted alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Decimal, Overflow, Underflow, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import ceil, factorial, isfinite, prod
from typing import Callable, Iterator

from .exact import LAMBDA, ONE, LambdaPoly, as_fraction, check_ints, dot
from .bases import binom, lambda_falling, lambda_rising, newton_rows
from .series import (
    TruncatedSeries,
    binomial_series,
    deg_exp,
    deg_log_of_one_plus,
    gf_triangle,
    one_series,
)
from .stirling import (
    Family,
    Rows,
    Triangle,
    _check_index,
    _recurrence,
    _stirling1_rows,
    _stirling2_rows,
    deg_r_stirling1_unsigned_rows,
    deg_r_stirling2_rows,
    deg_stirling1_rows,
    deg_stirling2_rows,
    row_store,
)


@dataclass(frozen=True)
class WhitneyParams:
    """Validated (m, r) parameter pair; m is a group order, so m >= 1."""

    m: int
    r: int = 1

    def __post_init__(self) -> None:
        _check_m(self.m)
        check_ints(self.r)
        if self.r < 1:
            raise ValueError(f"r must be a positive integer, got {self.r}")


def _check_m(m: int) -> None:
    check_ints(m)
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")


# -- second kind -------------------------------------------------------------


@row_store
def whitney2_rows(m: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """Second-kind triangle from the two-term recurrence."""
    _check_m(m)
    return _recurrence(ONE, lambda n, k: LambdaPoly((m * k + 1, 1 - n)))


def whitney2(m: int, n: int, k: int) -> LambdaPoly:
    _check_index(n, k)
    return whitney2_rows(m, n)[n][k]


def whitney2_or_zero(m: int, n: int, k: int) -> LambdaPoly:
    check_ints(n, k)
    if k < 0 or k > n or n < 0:
        return LambdaPoly()
    return whitney2(m, n, k)


def whitney2_rows_newton(m: int, n_max: int) -> Rows:
    """Second-kind triangle by expanding (mx+1)_{n,l} in the falling basis."""
    return r_whitney2_rows(m, 1, n_max)


def whitney2_rows_gf(m: int, n_max: int) -> Rows:
    """Second-kind triangle from the generating function e_l(t)((e_l^m(t)-1)/m)^k/k!."""
    return r_whitney2_rows_gf(m, 1, n_max)


# -- first kind ---------------------------------------------------------------


@row_store
def whitney1_rows(m: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """First-kind triangle from the two-term recurrence."""
    _check_m(m)
    return _recurrence(ONE, lambda n, k: LambdaPoly((m - n * m - 1, k)))


def whitney1(m: int, n: int, k: int) -> LambdaPoly:
    _check_index(n, k)
    return whitney1_rows(m, n)[n][k]


def whitney1_rows_newton(m: int, n_max: int) -> Rows:
    """First-kind triangle by Newton conversion of the defining relation."""
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
        s2 = deg_stirling2_rows(n)
        return dot(
            (
                binom(n, i) * m ** (i - k),
                s2[i][k].scale_lambda(Fraction(1, m)),
                lambda_falling(1, n - i, LAMBDA),
            )
            for i in range(k, n + 1)
        )
    raise ValueError(f"unknown second-kind path {path!r}")


def whitney2_diff(m: int, n: int, k: int) -> LambdaPoly:
    """Second-kind value as the kth forward difference of (mx+1)_{n,l} at x = 0."""
    _check_m(m)
    _check_index(n, k)
    return _forward_differences(m, n)[k] / (factorial(k) * Fraction(m) ** k)


@lru_cache(maxsize=256)
def _forward_differences(m: int, n: int) -> tuple[LambdaPoly, ...]:
    """Delta^0 f(0), ..., Delta^n f(0) for f(x) = (mx+1)_{n,l}, by the definition
    Delta^k f(0) = sum_i (-1)^(k-i) C(k,i) f(i): one dot over the values
    f(0), ..., f(n) per k."""
    f = [lambda_falling(m * i + 1, n, LAMBDA) for i in range(n + 1)]
    return tuple(
        dot(((-1) ** (k - i) * binom(k, i), f[i], ONE) for i in range(k + 1))
        for k in range(n + 1)
    )


def v0(m: int, n: int) -> LambdaPoly:
    """First-kind column k = 0: (-1)^n (m+1)(2m+1)...((n-1)m+1), free of l."""
    _check_m(m)
    check_ints(n)
    acc = 1
    for j in range(n):
        acc *= j * m + 1
    return LambdaPoly.const(acc if n % 2 == 0 else -acc)


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
        s1deg = deg_stirling1_rows(n)
        return dot(
            (
                (-1) ** (q - k) * binom(q, k) * m ** (n - q),
                s1deg[n][q].scale_lambda(Fraction(1, m)),
                lambda_rising(1, q - k, LAMBDA),
            )
            for q in range(k, n + 1)
        )
    raise ValueError(f"unknown first-kind path {path!r}")


# The inner sums of thm8 and thm18 do not depend on n, so each is built once
# per key instead of once per (n, k); the bound keeps a long-lived process
# from growing without limit.
@lru_cache(maxsize=4096)
def _t8_outer(j: int, k: int) -> LambdaPoly:
    """sum_l (-1)^(l-k) C(l,k) <1>_{l-k,l} sum_i S2(j,i) S1deg(i,l), the l-sum of thm8."""
    return dot(
        ((-1) ** (l - k) * binom(l, k), lambda_rising(1, l - k, LAMBDA), _t8_inner(j, l))
        for l in range(k, j + 1)
    )


@lru_cache(maxsize=4096)
def _t8_inner(j: int, l: int) -> LambdaPoly:
    """sum_i S2(j,i) S1deg(i,l), the inner sum of thm8."""
    s2, s1deg = _stirling2_rows(j), deg_stirling1_rows(j)
    return dot((s2[j][i], s1deg[i][l], ONE) for i in range(l, j + 1))


@lru_cache(maxsize=4096)
def _t18_inner(m: int, i: int, k: int) -> LambdaPoly:
    """sum_{j,l} S2(j,l) S1(i,j) m^(i-j) S1deg(l,k), the inner double sum of thm18."""
    s1, s2, s1deg = _stirling1_rows(i), _stirling2_rows(i), deg_stirling1_rows(i)
    return dot(
        (s2[j][l] * s1[i][j] * m ** (i - j), s1deg[l][k], ONE)
        for j in range(k, i + 1)
        for l in range(k, j + 1)
    )


# -- Dowling and Tanny-Dowling polynomials ----------------------------------------


def dowling_poly(m: int, n: int, x: int | Fraction) -> LambdaPoly:
    """Row polynomial sum_k W(n,k) x^k of the second-kind triangle."""
    check_ints(m, n)
    if n < 0:
        raise ValueError("n must be >= 0")
    return _row_sum(m, n, as_fraction(x), False)


def dowling_number(m: int, n: int) -> LambdaPoly:
    return dowling_poly(m, n, 1)


def tanny_dowling_poly(m: int, n: int, x: int | Fraction) -> LambdaPoly:
    """Ordered variant sum_k k! W(n,k) x^k."""
    check_ints(m, n)
    if n < 0:
        raise ValueError("n must be >= 0")
    return _row_sum(m, n, as_fraction(x), True)


@lru_cache(maxsize=4096)
def _row_sum(m: int, n: int, x: Fraction, ordered: bool) -> LambdaPoly:
    """sum_k W(n,k) x^k, each term weighted by k! when ``ordered``."""
    row = whitney2_rows(m, n)[n]
    return dot((x**k * factorial(k) if ordered else x**k, row[k], ONE) for k in range(n + 1))


def _gf_base(m: int, x: int | Fraction, n_max: int) -> TruncatedSeries:
    """x (e_l^m(t)-1)/m, the base of the second-kind generating functions."""
    _check_m(m)
    return (deg_exp(m, n_max) - one_series(n_max)).scaled(Fraction(x, m))


def tanny_dowling_gf(m: int, x: int | Fraction, n_max: int) -> TruncatedSeries:
    """Oracle: e_l(t) / (1 - x (e_l^m(t)-1)/m) generates the ordered polynomials."""
    return deg_exp(1, n_max).divide(one_series(n_max) - _gf_base(m, x, n_max), 0)


def dowling_gf(m: int, x: int | Fraction, n_max: int) -> TruncatedSeries:
    """Oracle: e_l(t) exp(x (e_l^m(t)-1)/m) generates the Dowling polynomials."""
    return deg_exp(1, n_max) * _gf_base(m, x, n_max).exp()


# -- r-generalizations ----------------------------------------------------------


@row_store
def r_whitney2_rows(m: int, r: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """Second-kind r-triangle: (mx+r)_{n,l} = sum W m^k (x)_k, expanded in u = mx
    over the nodes 0, m, 2m, ..., whose Newton basis is m^k (x)_k."""
    WhitneyParams(m, r)
    return newton_rows(ONE, lambda j: LambdaPoly((-r, j)), lambda k: m * k)


def r_whitney2(m: int, r: int, n: int, k: int) -> LambdaPoly:
    _check_index(n, k)
    return r_whitney2_rows(m, r, n)[n][k]


@row_store
def r_whitney1_rows(m: int, r: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """First-kind r-triangle by Newton conversion of the defining relation.

    Substituting u = mx+r turns m^n (x)_n into prod_j (u - (r+jm)), which
    is then expanded in the step-l falling basis of u; the coefficients are
    the first-kind numbers directly and everything stays in Q[l].
    """
    WhitneyParams(m, r)
    return newton_rows(ONE, lambda j: r + j * m, lambda k: LAMBDA * k)


def r_whitney1(m: int, r: int, n: int, k: int) -> LambdaPoly:
    _check_index(n, k)
    return r_whitney1_rows(m, r, n)[n][k]


def r_whitney1_rows_direct(m: int, r: int, n_max: int) -> Rows:
    """Cross-check route without the shift by r: m^n (x)_n over the rational-in-l
    nodes (k*l - r)/m, coefficient k divided by m^k, which is m^n (x)_n
    expanded in u = mx over the nodes k*l - r."""
    WhitneyParams(m, r)
    rows = newton_rows(ONE, lambda j: j * m, lambda k: LAMBDA * k - r)
    return tuple(islice(rows, n_max + 1))


def r_whitney2_rows_gf(m: int, r: int, n_max: int) -> Rows:
    """Oracle: coefficients of ((e_l^m(t)-1)/m)^k e_l^r(t) / k!."""
    WhitneyParams(m, r)
    return gf_triangle(_gf_base(m, 1, n_max), deg_exp(r, n_max), n_max)


def r_whitney1_rows_gf(m: int, r: int, n_max: int) -> Rows:
    """Oracle: coefficients of (log_l e_m(t))^k e_m^{-r}(t) / k!.

    The base log_l(e_m(t)) is log_l(1 + g) with g = e_m(t) - 1, solved from
    its first-order recurrence rather than by composing two series."""
    WhitneyParams(m, r)
    e_m = binomial_series(Fraction(1, m), m, n_max)
    base = deg_log_of_one_plus(e_m - one_series(n_max))
    prefactor = binomial_series(Fraction(-r, m), m, n_max)
    return gf_triangle(base, prefactor, n_max)


# -- classical limits (plain integers, no l) ---------------------------------------


def classical_whitney2_rows(m: int, n_max: int) -> tuple[tuple[int, ...], ...]:
    """Classical second-kind numbers from (mx+1)^n = sum W m^k (x)_k, in u = mx."""
    _check_m(m)
    return tuple(islice(newton_rows(1, lambda j: -1, lambda k: m * k), n_max + 1))


def classical_whitney1_rows(m: int, n_max: int) -> tuple[tuple[int, ...], ...]:
    """Classical first-kind numbers: m^n (x)_n in powers of u = mx+1."""
    _check_m(m)
    # with every node 0 the Newton basis is the power basis of u
    rows = newton_rows(1, lambda j: 1 + j * m, lambda k: 0)
    return tuple(islice(rows, n_max + 1))


# -- Dobinski evaluation (the library's only inexact path) --------------------------


@dataclass(frozen=True)
class DobinskiRequest:
    """Parameters of one truncated Dobinski-series evaluation."""

    m: int
    n: int
    x: Fraction
    lam: Fraction
    terms: int = 200
    tol: float = 1e-9

    def __post_init__(self) -> None:
        check_ints(self.m, self.n, self.terms)
        # a float or bool x or lambda is refused here, before the series is summed
        as_fraction(self.x)
        as_fraction(self.lam)
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.terms < 1:
            raise ValueError("terms must be >= 1")
        if not (self.tol > 0 and isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")

    def passes(self, truncated: float, exact: float) -> bool:
        """Whether ``dobinski_eval``'s two sides agree: they differ by less
        than ``tol``.  The CLI and the catalog both decide pass/fail here."""
        return abs(truncated - exact) < self.tol


def dobinski_eval(req: DobinskiRequest) -> tuple[float, float]:
    """Truncated Dobinski-type series for the Dowling polynomial vs the exact value.

    Returns ``(truncated, exact)`` as floats, where ``truncated`` is
    ``e^{-z} S`` with ``z = x/m`` and
    ``S = sum_{k < terms} z^k/k! prod_{j < n} (mk + 1 - j*lambda)``,
    and ``exact`` is the Dowling polynomial at ``(x, lambda)``.

    ``S`` is exact: with ``z = p/q`` and ``lambda = a/b``, ``S b^n`` is one
    quotient of two integers (``_dobinski_sum``).  Its weight
    ``F(k) = prod_{j < n} (b(mk+1) - ja)`` is a polynomial of degree n in
    k, so ``S b^n`` is a combination of at most n + 1 truncated
    exponentials ``E_N(z) = sum_{j <= N} z^j/j!``, which all follow exactly
    from the one at ``N = terms - 1``.  That one is summed by binary
    splitting (``_dobinski_split``) with balanced big-integer products, so
    its cost is quasi-linear in ``terms`` rather than quadratic (the sum at
    ``x = 10^4``, ``terms = 27284`` takes about 0.07 s on one x86-64 core
    under CPython 3.11), and it is shared by every n and lambda at the same
    ``z`` and ``terms``.  ``e^{-z}`` is ``Decimal.exp`` (correctly rounded)
    at ``P = 60 + digits(ceil|z|)`` significant digits.  The quotient ``S``
    is rounded to ``P`` digits from integer division (``_decimal_quotient``),
    never by converting the bigints to ``Decimal``; the product with ``S``
    is formed at the same precision and rounded to a float once.  Four
    decimal roundings (of ``-z``, the exp, the quotient ``S`` and the
    product) each cost at most half of 1e-60 relative, since
    ``|z| < 10^(P-60)``; so the decimal value is within about 2e-60
    relative of the exact ``e^{-z} S``, and ``truncated`` is that value
    correctly rounded to a double unless it lies that close to a rounding
    boundary.
    Truncation of the series is the only approximation left.

    Domain: every rational ``x`` and ``lambda``.  ``OverflowError`` is
    raised, never a silent 0 or inf, when either side is beyond double
    range, or when the decimal context's exponent limits cannot hold the
    truncated side (``|z|`` above about 2e18), which its trapped
    ``Underflow``/``Overflow`` signals.  A value below double range rounds
    to a subnormal or 0, as any float conversion does.
    """
    m, n = req.m, req.n
    z = Fraction(req.x) / m
    lam = Fraction(req.lam)
    p, q = z.numerator, z.denominator
    prec = 61 + Decimal(ceil(abs(z))).adjusted()  # 60 + digits(ceil|z|)
    with _decimal_context(prec):
        try:
            # first, so that an exponent out of range is refused before the sum
            weight = _exp_of_negated(p, q, prec)
            num, den = _dobinski_sum(m, n, p, q, lam.numerator, lam.denominator, req.terms)
            value = weight * _decimal_quotient(num, den)
        except (Underflow, Overflow) as exc:
            raise OverflowError("Dobinski sum is outside the decimal exponent range") from exc
    truncated = float(value)
    if not isfinite(truncated):
        raise OverflowError(f"Dobinski sum {value:.6e} is outside double range")
    exact = float(dowling_poly(m, n, req.x).eval(req.lam))
    return truncated, exact


def _decimal_context(prec: int):
    """The active decimal context at ``prec`` digits, with the widest exponent
    range and ``Underflow`` and ``Overflow`` trapped, entered by ``with``."""
    ctx = getcontext().copy()
    ctx.prec, ctx.Emin, ctx.Emax = prec, MIN_EMIN, MAX_EMAX
    ctx.traps[Underflow] = ctx.traps[Overflow] = True
    return localcontext(ctx)


# thm10 evaluates 27 points (n, lambda) at each z; the Dobinski sweeps of
# the benchmark see a new z at nearly every call, so a few entries suffice.
@lru_cache(maxsize=8)
def _exp_of_negated(p: int, q: int, prec: int) -> Decimal:
    """``e^{-p/q}`` correctly rounded to ``prec`` digits, in ``_decimal_context(prec)``."""
    with _decimal_context(prec):
        return (Decimal(-p) / q).exp()


@lru_cache(maxsize=8)
def _truncated_exp(p: int, q: int, terms: int) -> tuple[int, int, int]:
    """``(p^(terms-1), q^(terms-1) (terms-1)!, num)`` with ``E_{terms-1}(p/q)``
    equal to ``num`` over the second entry."""
    return _dobinski_split(p, q, 0, terms)


def _dobinski_sum(m: int, n: int, p: int, q: int, a: int, b: int, terms: int) -> tuple[int, int]:
    """``(num, den)`` with ``num / den = S``, for ``z = p/q`` and ``lambda = a/b``.

    ``F(k) = prod_{j < n} (b(mk+1) - ja) = sum_i D_i C(k, i)`` with
    ``D_i`` the ith forward difference of F at 0, and
    ``sum_{k < T} C(k, i) z^k/k! = z^i E_{T-1-i}(z) / i!``, so with
    ``T = terms`` and ``E_N = num_N / (q^N N!)``,
    ``S b^n = sum_{i <= min(n, T-1)} D_i C(T-1, i) p^i num_{T-1-i} / (q^(T-1) (T-1)!)``.
    ``num_{N-1} = (num_N - p^N) / (q N)`` exactly, so one truncated
    exponential gives all the others.
    """
    power, den, num = _truncated_exp(p, q, terms)  # power = p^(T-1), num = num_{T-1}
    top = min(n, terms - 1) if p else 0  # p^i = 0 for i >= 1 when z = 0
    diffs = [prod(b * (m * k + 1) - j * a for j in range(n)) for k in range(top + 1)]
    total, weight = 0, 1  # weight = C(T-1, i) p^i
    for i in range(top + 1):
        total += diffs[0] * weight * num
        diffs = [v - u for u, v in zip(diffs, diffs[1:])]  # the differences of order i + 1
        if diffs:
            order = terms - 1 - i  # num = num_order and power = p^order; step both down
            num = (num - power) // (q * order)
            power //= p
            weight = weight * order // (i + 1) * p
    return total, den * b**n


# terms per leaf of _dobinski_split: leaves of 8 are about a third slower on
# the benchmark's sweeps, and 32 to 256 time alike
_SPLIT_LEAF = 32


def _dobinski_split(p: int, q: int, lo: int, hi: int) -> tuple[int, int, int]:
    """``(P, Q, T)`` of the terms ``lo <= k < hi`` of ``E(p/q)``, by binary splitting.

    ``E(p/q) = sum_k prod_{i <= k} p_i / q_i`` with ``p_i = p`` and
    ``q_i = q i``, except that ``k = 0`` contributes ``p_0 = q_0 = 1``.
    Over the range, ``P = prod p_k``, ``Q = prod q_k`` and
    ``T / Q = sum_k prod_{lo <= i <= k} p_i / q_i``.  Two halves merge as
    ``P1 P2, Q1 Q2, T1 Q2 + P1 T2`` (Haible and Papanikolaou, 1998), so the
    big products are balanced and the sum costs O(M(N) log N) for results
    of N bits, instead of the O(N^2) of one Horner pass.
    """
    if hi - lo > _SPLIT_LEAF:
        mid = (lo + hi) // 2
        p1, q1, t1 = _dobinski_split(p, q, lo, mid)
        p2, q2, t2 = _dobinski_split(p, q, mid, hi)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2
    # the leaf: a backward Horner pass, k from hi - 1 down to lo, with
    # num_k = D_k + p num_{k+1} and D_{k-1} = q k D_k, so that
    # num_lo / D_lo = sum_k prod_{lo < i <= k} p / (q i); p_lo comes last
    num, den = 0, 1
    for k in range(hi - 1, lo - 1, -1):
        num = num * p + den
        den *= q * k or 1
    if lo:
        return p ** (hi - lo), den, num * p
    return p ** (hi - 1), den, num


def _decimal_quotient(num: int, den: int) -> Decimal:
    """``num / den`` (``den > 0``) correctly rounded in the active decimal context.

    Equal to ``Decimal(num) / Decimal(den)``, but CPython converts an int to
    ``Decimal`` in time quadratic in its length, so the digits come from one
    integer division: ``t = floor(|num| 10^e / den)`` with at least
    ``prec + 2`` digits, then a sticky digit (1 if a remainder is left).  If
    the division is exact, ``10 t`` is the value; otherwise the value and
    ``10 t + 1`` both lie strictly inside ``(10 t, 10 t + 10)``, which holds
    no rounding boundary of ``prec`` digits.  So one rounding gives the same
    result in every rounding mode.
    """
    ctx = getcontext()
    size = abs(num)
    g = size.bit_length() - den.bit_length() - 1  # |num| / den > 2^g
    # 30102/10^5 < log10(2) < 30103/10^5, so the floor is at most g*log10(2)
    e = ctx.prec + 1 - (g * (30102 if g >= 0 else 30103)) // 100000
    if e >= 0:
        t, rem = divmod(size * 10**e, den)
    else:
        t, rem = divmod(size, den * 10**-e)
    digits = 10 * t + (rem != 0)
    return ctx.create_decimal(-digits if num < 0 else digits).scaleb(-e - 1)


# -- triangle export ------------------------------------------------------------


def _const_rows(rows: Iterator[tuple[int, ...]]) -> Iterator[tuple[LambdaPoly, ...]]:
    return (tuple(map(LambdaPoly.const, row)) for row in rows)


# Each family's primary route, as the row generator that its store wraps,
# and whether it reads m and r; S2deg is the r = 0 case of S2degR.
_PRIMARY: dict[Family, tuple[Callable[..., Iterator], bool, bool]] = {
    Family.S1: (lambda: _const_rows(_stirling1_rows.__wrapped__()), False, False),
    Family.S2: (lambda: _const_rows(_stirling2_rows.__wrapped__()), False, False),
    Family.S1DEG: (deg_stirling1_rows.__wrapped__, False, False),
    Family.S2DEG: (lambda: deg_r_stirling2_rows.__wrapped__(0), False, False),
    Family.S1DEG_R: (deg_r_stirling1_unsigned_rows.__wrapped__, False, True),
    Family.S2DEG_R: (deg_r_stirling2_rows.__wrapped__, False, True),
    Family.WDEG: (whitney2_rows.__wrapped__, True, False),
    Family.VDEG: (whitney1_rows.__wrapped__, True, False),
    Family.WDEG_R: (r_whitney2_rows.__wrapped__, True, True),
    Family.VDEG_R: (r_whitney1_rows.__wrapped__, True, True),
}


def family_rows(family: Family | str, m: int, r: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """The endless rows 0, 1, 2, ... of ``family`` at (m, r), by its primary route.

    The rows come straight from the generator that the family's row store
    wraps, so no store is filled and each row can be dropped once it is used.
    The m and r that the family reads are checked by this call, before any
    row is built; the ones it does not read are ignored.
    """
    rows_of, uses_m, uses_r = _PRIMARY[Family(family)]
    return rows_of(*(m,) * uses_m, *(r,) * uses_r)


def build_triangle(family: Family | str, m: int, r: int, n_max: int) -> Triangle:
    """Rows 0..n_max of ``family_rows(family, m, r)`` as an immutable Triangle.

    No row store is used.  The Triangle records m = 1 for a family that does
    not read m, and r = 0 for one that does not read r.
    """
    family = Family(family)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    check_ints(n_max)
    _, uses_m, uses_r = _PRIMARY[family]
    rows = tuple(islice(family_rows(family, m, r), n_max + 1))
    return Triangle(
        family=family, m=m if uses_m else 1, r=r if uses_r else 0, n_max=n_max, rows=rows
    )
