"""The Dobinski-type series of the degenerate Dowling polynomials, the
library's one inexact path.

``dobinski_eval`` sums the truncated series exactly, reads the Dowling
polynomial as a row sum (``exact._row_sum``) of the W rows, the second-kind
kernel of ``newton`` at (m, 1, 1), and decides the tolerance exactly.  So
this module reads nothing of the package but ``exact`` and ``newton``, and
``dowlab dobinski`` runs no other module but the CLI.
``whitney`` binds ``DobinskiRequest`` and ``dobinski_eval`` as well, for the
catalog.
"""

from __future__ import annotations

from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal,
                     DivisionByZero, InvalidOperation, Overflow, Underflow, getcontext,
                     localcontext)
from fractions import Fraction
from math import ceil, isfinite, prod

from .exact import Record, _check_counts, _check_m, _row_sum, as_fraction, bounded, check_ints
from .newton import _second_kind_rows


class DobinskiRequest(Record):
    """Parameters of one truncated Dobinski-series evaluation."""

    __slots__ = ("m", "n", "x", "lam", "terms", "tol")

    def __init__(
        self, m: int, n: int, x: Fraction, lam: Fraction, terms: int = 200, tol: float = 1e-9
    ) -> None:
        check_ints(m, n, terms)
        # a float or bool x or lambda is refused here, before the series is summed,
        # and so is a bool tol, which would otherwise count as 1.0
        as_fraction(x)
        as_fraction(lam)
        if type(tol) is bool:
            raise TypeError("expected a float tol, got bool")
        _check_m(m)
        _check_counts(n=n)
        if terms < 1:
            raise ValueError("terms must be >= 1")
        if not (tol > 0 and isfinite(tol)):
            raise ValueError("tol must be positive and finite")
        self._set(m, n, x, lam, terms, tol)


class DobinskiResult(Record):
    """``dobinski_eval``'s verdict ``passed``, the one the CLI and thm10 read."""

    __slots__ = ("truncated", "exact", "diff", "passed")

    def __init__(self, truncated: float, exact: float, diff: float, passed: bool) -> None:
        self._set(truncated, exact, diff, passed)


def dobinski_eval(req: DobinskiRequest) -> DobinskiResult:
    """Truncated Dobinski-type series for the Dowling polynomial vs the exact value.

    The truncated side is ``e^{-z} S`` with ``z = x/m`` and
    ``S = sum_{k < terms} z^k/k! prod_{j < n} (mk + 1 - j*lambda)``; the
    exact side ``D`` is the Dowling polynomial at ``(x, lambda)``, the row
    sum of ``newton._second_kind_rows`` at (m, 1, 1) that
    ``whitney.dowling_poly`` reads too.  ``passed`` is whether
    ``|e^{-z} S - D| < tol``; ``truncated`` and ``exact`` are the sides as
    doubles, and ``diff`` the upper end of a bracket of ``|e^{-z} S - D|``.

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
    ``z`` and ``terms``.

    The verdict rounds outward, then compares exactly.  At ``P`` digits (at
    first ``60 + d``, with ``|z| < 10^d``), ``E = _exp_of_negated`` is
    ``e^w`` correctly rounded for ``w``, ``-z`` rounded to P digits, and
    ``S~`` is ``S`` rounded to ``P + 2`` digits.  Then ``V = E S~`` lies
    within ``|V| u`` of ``e^{-z} S``, ``u = 10^(d+1-P)``: ``|w + z| <= u/2``
    costs at most ``e^{u/2} - 1`` relative, ``E`` and ``S~`` ``u/20`` more.
    With ``D = g/h`` in lowest terms, ``V h (1 -+ u)`` and ``g -+ tol h``
    are decimals (``tol`` is a double), compared where every sum and product
    is exact: inside ``(g - tol h, g + tol h)`` passes, outside fails, and
    otherwise P doubles.  This ends: ``S = 0`` makes ``V = 0`` exact,
    ``z = 0`` makes ``S = D = prod_{j < n} (1 - j*lambda)``, and otherwise
    ``e^{-z} S`` is irrational (Lindemann) while ``u`` shrinks.
    ``truncated`` is ``V``, ``diff`` is ``|V - D| + |V| u``, and a fail
    means that ``e^{-z}`` times the omitted tail is at least ``tol``.

    Domain: every rational ``x`` and ``lambda``.  ``OverflowError`` is
    raised, never a silent 0 or inf, when either side is beyond double
    range (its message names the side), or when the decimal context's
    exponent limits cannot hold ``e^{-z}`` (``|z|`` above about 2e18),
    which its trapped ``Underflow``/``Overflow`` signals.  A value below double range rounds
    to a subnormal or 0, as any float conversion does.
    """
    m, n = req.m, req.n
    lam = Fraction(req.lam)
    p, q, prec = _z_and_prec(req)
    size = prec - 60  # |z| < 10^size
    try:
        # first, so that an exponent out of range is refused before the sum
        _exp_of_negated(p, q, prec)
        num, den = _dobinski_sum(m, n, p, q, lam.numerator, lam.denominator, req.terms)
        dowling = _row_sum(_second_kind_rows, (m, 1, 1), n, as_fraction(req.x), False).eval(lam)
        try:
            exact, h = float(dowling), dowling.denominator
        except OverflowError:
            with _decimal_context(7):
                size = _decimal_quotient(dowling.numerator, dowling.denominator)
            raise OverflowError(f"Dowling value {size:.6e} is outside double range") from None
        with _decimal_context(MAX_PREC):
            centre, width = Decimal(dowling.numerator), Decimal(req.tol) * h
            while True:
                with _decimal_context(prec + 2):
                    cut = _decimal_quotient(num, den)
                value = _exp_of_negated(p, q, prec) * cut
                radius = abs(value * h).scaleb(size + 1 - prec)
                lo, hi = value * h - radius, value * h + radius  # e^{-z} S h lies in [lo, hi]
                passed = centre - width < lo and hi < centre + width
                if passed or hi <= centre - width or lo >= centre + width:
                    break
                prec *= 2
        with _decimal_context(prec):
            diff = max(hi - centre, centre - lo) / h
    except (Underflow, Overflow) as exc:
        raise OverflowError("Dobinski sum is outside the decimal exponent range") from exc
    truncated = float(value)
    if not isfinite(truncated):
        raise OverflowError(f"Dobinski sum {value:.6e} is outside double range")
    return DobinskiResult(truncated, exact, float(diff), passed)


def omitted_term(req: DobinskiRequest) -> Decimal:
    """The size |e^{-z} z^T/T! F(T)| of the first term that ``dobinski_eval``
    leaves out of the series, with T = ``terms`` and
    ``F(T) = prod_{j < n} (mT + 1 - j*lambda)``, at the precision of the sum.

    It reads the powers that ``_truncated_exp`` and ``_exp_of_negated`` hold
    for the point, so after ``dobinski_eval`` it costs one product.  Its size
    alone bounds nothing: the terms after it may grow.
    """
    m, n, terms = req.m, req.n, req.terms
    lam = Fraction(req.lam)
    a, b = lam.numerator, lam.denominator
    p, q, prec = _z_and_prec(req)
    power, den, _ = _truncated_exp(p, q, terms)  # p^(T-1) and q^(T-1) (T-1)!
    weight = prod(b * (m * terms + 1) - j * a for j in range(n))  # F(T) b^n
    with _decimal_context(prec):
        term = _decimal_quotient(power * p * weight, den * q * terms * b**n)
        return abs(_exp_of_negated(p, q, prec) * term)


def _z_and_prec(req: DobinskiRequest) -> tuple[int, int, int]:
    """``(p, q, P)`` for ``z = x/m = p/q`` and the precision ``P = 60 + digits(ceil|z|)``."""
    z = Fraction(req.x) / req.m
    return z.numerator, z.denominator, 61 + Decimal(ceil(abs(z))).adjusted()


def _decimal_context(prec: int):
    """A fixed decimal context at ``prec`` digits, entered by ``with``: round
    half to even, the widest exponent range, and ``Underflow`` and ``Overflow``
    trapped besides the default traps.  Nothing is taken from the caller's
    context, so a caller's rounding mode or traps reach neither the sum nor the
    memo of ``_exp_of_negated``, and the caller's context is left as it was."""
    traps = [InvalidOperation, DivisionByZero, Overflow, Underflow]
    return localcontext(Context(prec, ROUND_HALF_EVEN, MIN_EMIN, MAX_EMAX, traps=traps))


# thm10 evaluates 27 points (n, lambda) at each z; the Dobinski sweeps of
# the benchmark see a new z at nearly every call, so a few entries suffice.
@bounded(8)
def _exp_of_negated(p: int, q: int, prec: int) -> Decimal:
    """``e^{-p/q}`` correctly rounded to ``prec`` digits, in ``_decimal_context(prec)``."""
    with _decimal_context(prec):
        return (Decimal(-p) / q).exp()


@bounded(8)
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
