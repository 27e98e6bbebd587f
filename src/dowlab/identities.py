"""Catalog of the number-family identities as executable, exact checks.

Every entry is a generator of comparisons: it yields ``(params, lhs, rhs)``
at each point of a finite parameter grid, in a fixed order.  One loop,
``_sweep``, runs them all: it counts each comparison it makes, decides it by
canonical polynomial equality, and stops at the first mismatch, which it
reports as the counterexample.  ``params_tested`` is the number of
comparisons made, the failing one included; nothing past the first
counterexample is computed.

Entries flagged as *discrepancy* probes exist because the source material
prints two inconsistent readings of a formula.  They compare the reading the
derivation supports, note where the printed one first fails, and return that
as their finding; they report status ``paper-discrepancy``.

An entry that compares two routes to the same values is a ``Row``: two
sides, each naming the routes it computes by (recurrence, Newton conversion,
generating function, explicit formula), compared over one sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, product
from math import factorial
from typing import Callable, Generator, Iterable, Optional

from .exact import LAMBDA, ONE, LambdaPoly, bounded, dot
from .bases import binom, falling_transform, lambda_falling, lambda_rising, rising_transform
from .series import (
    binomial_series,
    deg_exp,
    deg_log,
    deg_log_of_one_plus,
    gf_triangle,
    one_series,
    t_series,
)
from . import bernoulli_euler as be
from . import stirling as st
from . import whitney as wh

X_SAMPLES = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-1, 3))
DOBINSKI_X = (Fraction(1, 2), Fraction(1), Fraction(2))
DOBINSKI_LAMBDA = (Fraction(0), Fraction(1, 4), Fraction(1, 2))


@dataclass(frozen=True)
class SweepParams:
    """Finite parameter space one identity run sweeps over."""

    n_max: int
    m_set: tuple[int, ...]
    r_set: tuple[int, ...]
    seed: int

    def rng(self, ident: str) -> random.Random:
        # str seeds hash via SHA-512 inside Random: stable across platforms
        return random.Random(f"{self.seed}:{ident}")


@dataclass
class IdentityReport:
    """Outcome of one identity sweep."""

    id: str
    params_tested: int
    status: str  # "pass" | "fail" | "paper-discrepancy"
    counterexample: Optional[dict] = None
    finding: Optional[str] = None

    def to_dict(self) -> dict:
        out: dict = {
            "id": self.id,
            "params_tested": self.params_tested,
            "status": self.status,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.finding is not None:
            out["finding"] = self.finding
        return out


# A checker returns (params_tested, counterexample-or-None, finding-or-None).
CheckResult = tuple[int, Optional[dict], Optional[str]]
Checker = Callable[[SweepParams], CheckResult]

# An entry's comparisons: (params, lhs, rhs) at each point, then its finding.
Points = Generator[tuple[dict, object, object], None, Optional[str]]


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    checker: Checker
    discrepancy: bool = False


def _sweep(points: Points) -> CheckResult:
    """Count the comparisons of ``points`` and stop at the first mismatch.

    The generator is not resumed after a mismatch, so nothing past the
    first counterexample is computed.  When every comparison holds, the
    generator's return value is the finding.
    """
    tested = 0
    while True:
        try:
            params, lhs, rhs = next(points)
        except StopIteration as done:
            return tested, None, done.value
        tested += 1
        if lhs != rhs:
            return tested, {"params": params, "lhs": str(lhs), "rhs": str(rhs)}, None


def _probe(
    points: Iterable[tuple[dict, object, object, Callable[[], object]]], fails: str, agrees: str
) -> Points:
    """Compare each ``(params, lhs, rhs, printed)`` point and return the
    finding: ``fails`` with its ``%s`` set to the first point where the printed
    reading ``printed()`` differs from ``lhs``, or ``agrees`` if none did.
    ``printed`` is not called again once it has differed."""
    fails_at = None
    for params, lhs, rhs, printed in points:
        yield params, lhs, rhs
        if fails_at is None and printed() != lhs:
            fails_at = params
    return agrees if fails_at is None else fails % (fails_at,)


def _rand_rational(rng: random.Random) -> Fraction:
    # small magnitudes keep intermediate integers manageable
    return Fraction(rng.randint(-20, 20), rng.randint(1, 10))


def _rand_poly(rng: random.Random) -> LambdaPoly:
    return LambdaPoly([_rand_rational(rng) for _ in range(rng.randint(1, 3))])


# --------------------------------------------------------------------------
# cross-route rows: two routes to the same values agree at every point
# --------------------------------------------------------------------------

# The routes a side may compute by; a side's route is their union.
RECURRENCE, NEWTON, GF, EXPLICIT = (
    frozenset({name}) for name in ("recurrence", "newton", "gf", "explicit")
)


@dataclass(frozen=True)
class Side:
    """One side of a cross-route row: the routes it reaches, and its values.

    ``values(*outer, n_max)`` runs once per tuple of the row's outer
    parameters and returns the reader of the side's value at each point.
    Library functions are looked up on their module when a side runs.
    """

    route: frozenset[str]
    values: Callable[..., Callable[..., LambdaPoly]]


def _entries(rows) -> Callable[[int, int], LambdaPoly]:
    """The reader of ``rows[n][k]``."""
    return lambda n, k: rows[n][k]


def _signed(rows) -> Callable[[int, int], LambdaPoly]:
    """The reader of ``(-1)^(n-k) rows[n][k]``."""
    return lambda n, k: rows[n][k] * (-1) ** (n - k)


def _rows(route: frozenset[str], build: Callable) -> Side:
    """A side read from the triangle ``build(*outer, n_max)``."""
    return Side(route, lambda *args: _entries(build(*args)))


def _each(route: frozenset[str], value: Callable) -> Side:
    """A side computed as ``value(*outer, *point)`` at each point."""
    return Side(route, lambda *args: partial(value, *args[:-1]))


Runner = Callable[[SweepParams, Side, Side], Points]


def _cells(
    n_max: int, left: Callable, right: Callable, at: dict, tail: Optional[dict] = None
) -> Points:
    """Compare ``left(n, k)`` with ``right(n, k)`` at every (n, k) of the
    triangle, row by row; a point's params are ``at``, n, k, then ``tail``."""
    for n in range(n_max + 1):
        for k in range(n + 1):
            yield {**at, "n": n, "k": k, **(tail or {})}, left(n, k), right(n, k)


def _triangle(*outer: str) -> Runner:
    """Compare at every (n, k) of the triangle, for each tuple of the outer
    parameters, each named "m" or "r"."""

    def run(p: SweepParams, lhs: Side, rhs: Side) -> Points:
        for fixed in product(*(getattr(p, f"{name}_set") for name in outer)):
            left, right = lhs.values(*fixed, p.n_max), rhs.values(*fixed, p.n_max)
            yield from _cells(p.n_max, left, right, dict(zip(outer, fixed)))

    return run


def _column(name: str, values: Iterable) -> Runner:
    """Compare at every n, for each value of the outer parameter ``name``."""

    def run(p: SweepParams, lhs: Side, rhs: Side) -> Points:
        for v in values:
            left, right = lhs.values(v, p.n_max), rhs.values(v, p.n_max)
            for n in range(p.n_max + 1):
                yield {"n": n, name: v}, left(n), right(n)

    return run


def _series(p: SweepParams, lhs: Side, rhs: Side) -> Points:
    """Compare at every coefficient n, for each m and x sample."""
    for m, x in product(p.m_set, X_SAMPLES):
        left, right = lhs.values(m, x, p.n_max), rhs.values(m, x, p.n_max)
        for n in range(p.n_max + 1):
            yield {"m": m, "n": n, "x": str(x)}, left(n), right(n)


@dataclass(frozen=True)
class Row:
    """A catalog entry whose two sides must agree over the sweep ``run``."""

    run: Runner
    lhs: Side
    rhs: Side

    def __call__(self, p: SweepParams) -> CheckResult:
        return _sweep(self.run(p, self.lhs, self.rhs))


# --------------------------------------------------------------------------
# structural identities
# --------------------------------------------------------------------------


def _chk_eq12(p: SweepParams) -> Points:
    order = 16
    lhs = deg_log_of_one_plus(deg_exp(1, order) - one_series(order))
    rhs = t_series(order)
    for n in range(order + 1):
        yield {"n": n}, lhs.coeff(n), rhs.coeff(n)


def _orthogonal(n_max: int, first: Callable, second: Callable, at: dict) -> Points:
    """Compare sum_k first(n, k) second(k, j) with [n = j] at each (n, j); params ``at``, n, j."""
    for n in range(n_max + 1):
        for j in range(n + 1):
            acc = dot((1, first(n, k), second(k, j)) for k in range(j, n + 1))
            yield {**at, "n": n, "j": j}, acc, LambdaPoly.const(1 if n == j else 0)


def _chk_orthogonality(p: SweepParams) -> Points:
    for m in p.m_set:
        yield from _orthogonal(p.n_max, partial(wh.whitney1, m), partial(wh.whitney2, m), {"m": m})


def _chk_stirling_orthogonality(p: SweepParams) -> Points:
    return _orthogonal(p.n_max, st.deg_stirling1, st.deg_stirling2, {})


def _chk_eq29_30(p: SweepParams) -> Points:
    # eq29 reads the Bell numbers from the GF exp(e_l(t) - 1), whose coefficient
    # n is sum_k S2deg(n, k); deg_bell_number is a row sum of the Newton store
    order = p.n_max + 1
    bell_gf = (deg_exp(1, order) - one_series(order)).exp()
    for n in range(p.n_max + 1):
        bell_next = st.deg_bell_number(n + 1)
        yield {"n": n, "part": "eq29"}, bell_next, bell_gf.coeff(n + 1)
        lhs = wh.dowling_number(1, n)
        yield {"n": n, "part": "eq30"}, lhs, bell_next + LAMBDA * n * st.deg_bell_number(n)


def _chk_cor4(p: SweepParams) -> Points:
    for n in range(p.n_max + 1):
        lhs = wh.dowling_number(1, n)
        yield {"n": n}, lhs, st.deg_bell_number(n + 1) + LAMBDA * n * st.deg_bell_number(n)


def _chk_cor11(p: SweepParams) -> Points:
    for x in X_SAMPLES:
        for n in range(p.n_max + 1):
            lhs = wh.dowling_poly(1, n, x) * x
            yield {"n": n, "x": str(x)}, lhs, st.deg_bell(n + 1, x) + LAMBDA * n * st.deg_bell(n, x)


def _chk_thm10(p: SweepParams) -> Points:
    # the one inexact comparison: within the tolerance, the sides count as equal
    for m in p.m_set:
        for n in range(min(p.n_max, 8) + 1):
            for x in DOBINSKI_X:
                for lam in DOBINSKI_LAMBDA:
                    req = wh.DobinskiRequest(m=m, n=n, x=x, lam=lam, terms=200, tol=1e-9)
                    truncated, exact = wh.dobinski_eval(req)
                    if req.passes(truncated, exact):
                        exact = truncated
                    yield {"m": m, "n": n, "x": str(x), "lambda": str(lam)}, truncated, exact


def _chk_thm12_zero(p: SweepParams) -> Points:
    for m in p.m_set:
        for k in range(1, p.n_max + 1):
            for n in range(k):
                yield {"m": m, "n": n, "k": k}, wh.whitney2_alt(m, n, k, "sum_T12"), 0


def _chk_lemma15(p: SweepParams) -> Points:
    rng = p.rng("lemma15")
    for n in range(min(p.n_max, 10) + 1):
        for _ in range(5):
            z = _rand_rational(rng)
            acc = dot(
                ((-1) ** j * binom(n, j), lambda_falling(z - j, n, LAMBDA), ONE)
                for j in range(n + 1)
            )
            yield {"n": n, "z": str(z)}, acc, factorial(n)


def _thm16_sum(m: int, n: int, k: int, with_falling_factor: bool) -> LambdaPoly:
    """Right side of the row recursion for W(n+1,k); the derivation carries a
    (m)_{l-i,l} factor that the displayed theorem omits, and the lower bound
    l = k-1 is clamped at 0 for k = 0."""
    low = max(k - 1, 0)
    return dot(
        (
            Fraction(factorial(n), factorial(l)),
            _thm16_inner(m, k, l, with_falling_factor),
            (-LAMBDA) ** (n - l),
        )
        for l in range(low, n + 1)
    )


# The inner sum of thm16 does not depend on n, so it is built once per key, not per (n, k).
@bounded(4096)
def _thm16_inner(m: int, k: int, l: int, with_falling_factor: bool) -> LambdaPoly:
    """W(l,k) + sum_i C(l,i) W(i,k-1) [(m)_{l-i,l}], the inner sum of thm16."""
    terms = (
        (
            binom(l, i),
            wh.whitney2_or_zero(m, i, k - 1),
            lambda_falling(m, l - i, LAMBDA) if with_falling_factor else ONE,
        )
        for i in range(max(k - 1, 0), l + 1)
    )
    return dot(chain([(1, wh.whitney2_or_zero(m, l, k), ONE)], terms))


def _chk_thm16(p: SweepParams) -> Points:
    points = (
        ({"m": m, "n": n, "k": k}, _thm16_sum(m, n, k, with_falling_factor=True),
         wh.whitney2(m, n + 1, k), partial(_thm16_sum, m, n, k, with_falling_factor=False))
        for m in p.m_set for n in range(p.n_max) for k in range(n + 2)
    )
    verified = (
        "recursion verified with lower bound max(k-1,0) and the (m)_{l-i,l} factor "
        "from the derivation restored; "
    )
    return (yield from _probe(
        points,
        verified + "the displayed form (factor omitted) first fails at %s",
        verified + "the displayed form agrees on this range (too small to separate)",
    ))


def _chk_thm17(p: SweepParams) -> Points:
    for m in p.m_set:
        for n in range(p.n_max):
            want = wh.dowling_number(m, n + 1)
            acc = dot(
                (
                    binom(n, l) * factorial(n - l),
                    (-LAMBDA) ** (n - l),
                    dot(
                        (
                            binom(l, i) * (2 if i == 0 else 1),
                            lambda_falling(m, i, LAMBDA),
                            wh.dowling_number(m, l - i),
                        )
                        for i in range(l + 1)
                    ),
                )
                for l in range(n + 1)
            )
            yield {"m": m, "n": n}, acc, want


def _thm20_point(m: int, n: int, k: int, scaled: LambdaPoly) -> tuple:
    """thm20 at (m, n, k): the C(i,k) form, the rescaled S1deg side ``scaled``,
    m^(n-k) S1deg(n,k | l/m), and the printed C(n,i) form, deferred."""
    parts = [(i, wh.whitney1(m, n, i), lambda_falling(1, i - k, LAMBDA)) for i in range(k, n + 1)]
    derived = dot((binom(i, k), w, f) for i, w, f in parts)
    printed = partial(dot, ((binom(n, i), w, f) for i, w, f in parts))
    return {"m": m, "n": n, "k": k}, derived, scaled, printed


def _chk_thm20(p: SweepParams) -> Points:
    points = (
        _thm20_point(m, n, k, scaled[n][k])
        for m in p.m_set for scaled in [wh._stirling1_over_m_rows(m, p.n_max)]
        for n in range(p.n_max + 1) for k in range(n + 1)
    )
    return (yield from _probe(
        points,
        "printed binomial C(n,i) first fails at %s; "
        "the C(i,k) form from the derivation holds on the whole sweep",
        "printed and derived binomials agree on this range (too small to separate)",
    ))


def _thm21_rhs(m: int, n: int, k: int) -> LambdaPoly:
    """W_{m+1}(n,k) as the step-ml rising transform of column k of the
    rescaled triangle (m+1)^(j-k) W_m(j,k | m l/(m+1)), over m^(n-k)."""
    entry = wh._whitney2_rescaled_rows.entry
    terms = ((j, 1, entry(m, j, k)) for j in range(k, n + 1))
    return rising_transform(n, terms, LAMBDA * m) / m ** (n - k)


def _cor22_sum(m: int, n: int, x: Fraction, ordered: bool, rescale: bool) -> LambdaPoly:
    """The step-ml rising transform of (m+1)^j times the row polynomial of W_m
    at x m/(m+1), over m^n; ordered (weighted by k!) for the remark.  With
    ``rescale`` the polynomial is taken at m l/(m+1), which makes term j the
    row sum of the rescaled triangle at m x; without it, at l as printed."""
    if rescale:
        store, y, c = wh._whitney2_rescaled_rows, m * x, 1
    else:
        store, y, c = wh.whitney2_rows, x * Fraction(m, m + 1), m + 1
    terms = ((j, c**j, st._row_sum(store, m, j, y, ordered)) for j in range(n + 1))
    return rising_transform(n, terms, LAMBDA * m) / m**n


def _chk_cor22_generic(p: SweepParams, ordered: bool, label: str) -> Points:
    poly_fn = wh.tanny_dowling_poly if ordered else wh.dowling_poly
    points = (
        ({"m": m, "n": n, "x": str(x)}, poly_fn(m + 1, n, x),
         _cor22_sum(m, n, x, ordered, rescale=True),
         partial(_cor22_sum, m, n, x, ordered, rescale=False))
        for m in p.m_set for n in range(p.n_max + 1) for x in X_SAMPLES
    )
    holds = (
        f"{label} holds with the inner polynomial taken at the rescaled parameter "
        "m*l/(m+1), as the m->m+1 triangle identity requires; "
    )
    return (yield from _probe(
        points,
        holds + "the printed form (no rescale) first fails at %s",
        holds + "the printed form agrees on this range (too small to separate)",
    ))


def _chk_cor22(p: SweepParams) -> Points:
    return _chk_cor22_generic(p, False, "row-polynomial reduction")


def _chk_cor22_remark(p: SweepParams) -> Points:
    return _chk_cor22_generic(p, True, "ordered-variant reduction")


def _terms(values: Iterable[LambdaPoly]) -> Iterable[tuple[int, int, LambdaPoly]]:
    """The binomial-transform terms (j, 1, v_j) of the sequence ``values``."""
    return ((j, 1, v) for j, v in enumerate(values))


def _dowling(m: int, x: Fraction, n: int) -> LambdaPoly:
    return wh.dowling_poly(m, n, x)


def _bell_transform(m: int, x: Fraction, n: int) -> LambdaPoly:
    """The falling transform of m^i Bdeg_i(x/m) at l -> l/m, i = 0..n, the
    right side of thm23; each is a row sum of the rescaled S2deg triangle."""
    bells = (st._row_sum(wh._stirling2_over_m_rows, m, i, x, False) for i in range(n + 1))
    return falling_transform(n, _terms(bells))


def _dowling_transform(m: int, x: Fraction, n: int) -> LambdaPoly:
    """The rising transform of the Dowling polynomials, the right side of thm26."""
    return rising_transform(n, _terms(_dowling(m, x, k) for k in range(n + 1)))


def _chk_lemma24(p: SweepParams) -> Points:
    for n in range(p.n_max + 1):
        for j in range(n + 1):
            want = LambdaPoly.const(1 if n == j else 0)
            span = range(j, n + 1)
            rising = (
                (k, (-1) ** (k - j) * binom(k, j), lambda_rising(1, k - j, LAMBDA)) for k in span
            )
            yield {"n": n, "j": j, "form": "falling-rising"}, falling_transform(n, rising), want
            falling = ((k, binom(k, j), lambda_falling(1, k - j, LAMBDA)) for k in span)
            yield {"n": n, "j": j, "form": "rising-falling"}, rising_transform(n, falling), want


def _chk_thm25(p: SweepParams) -> Points:
    rng = p.rng("thm25")
    n_max = min(p.n_max, 12)
    for _ in range(3):
        b = [_rand_poly(rng) for _ in range(n_max + 1)]
        a = [falling_transform(n, _terms(b[: n + 1])) for n in range(n_max + 1)]
        for n in range(n_max + 1):
            inverse = rising_transform(n, _terms(a[: n + 1]))
            yield {"n": n, "direction": "forward-inverse"}, inverse, b[n]
        # converse direction: start from the inverse transform
        c = [rising_transform(n, _terms(b[: n + 1])) for n in range(n_max + 1)]
        for n in range(n_max + 1):
            forward = falling_transform(n, _terms(c[: n + 1]))
            yield {"n": n, "direction": "inverse-forward"}, forward, b[n]


# --------------------------------------------------------------------------
# r-generalizations
# --------------------------------------------------------------------------


def _chk_eq75(p: SweepParams) -> Points:
    for r in p.r_set:
        rows = wh.r_whitney1_rows(1, r, p.n_max)
        bracket = _signed(st.deg_r_stirling1_unsigned_rows(r, p.n_max))
        yield from _cells(p.n_max, _entries(rows), bracket, {"r": r}, {"part": "bracket"})
    for m in p.m_set:
        ones = _entries(wh.r_whitney1_rows(m, 1, p.n_max))
        yield from _cells(p.n_max, ones, partial(wh.whitney1, m), {"m": m}, {"part": "r=1"})
    # r = 0 at m = 1: the generating function degrades to the plain
    # first-kind one, so the triangle must too
    zero_r = _entries(st.deg_stirling1_rows_gf(p.n_max))
    s1 = _entries(st.deg_stirling1_rows(p.n_max))
    yield from _cells(p.n_max, zero_r, s1, {}, {"part": "r=0"})


def _chk_eq77(p: SweepParams) -> Points:
    for r in p.r_set:
        gf = st.deg_r_stirling2_rows_gf(r, p.n_max)
        rows = st.deg_r_stirling2_rows(r, p.n_max)
        braces = wh.r_whitney2_rows(1, r, p.n_max)
        for n in range(p.n_max + 1):
            for k in range(n + 1):
                yield {"r": r, "n": n, "k": k}, gf[n][k], rows[n][k]
                yield {"r": r, "n": n, "k": k, "part": "m=1"}, braces[n][k], rows[n][k]
    for m in p.m_set:
        ones = _entries(wh.r_whitney2_rows(m, 1, p.n_max))
        yield from _cells(p.n_max, ones, partial(wh.whitney2, m), {"m": m}, {"part": "r=1"})
    # r = 0 at m = 1 is the plain second-kind degenerate triangle; its
    # generating function is the oracle, as deg_stirling2_rows is this store
    zero_r = _entries(st.deg_r_stirling2_rows(0, p.n_max))
    plain = _entries(st.deg_stirling2_rows_gf(p.n_max))
    yield from _cells(p.n_max, zero_r, plain, {}, {"part": "r=0"})


# --------------------------------------------------------------------------
# higher-order Bernoulli / Euler
# --------------------------------------------------------------------------


def _chk_eq81(p: SweepParams) -> Points:
    points = (
        ({"n": n, "alpha": str(alpha)}, be.deg_euler(n, alpha), oracle[n],
         partial(be.deg_euler_sum_variant, n, alpha, +1))
        for alpha in (Fraction(1, 2), Fraction(3, 2), Fraction(1), Fraction(2))
        for oracle in [be.deg_euler_gf_binomial(p.n_max, alpha)]
        for n in range(p.n_max + 1)
    )
    return (yield from _probe(
        points,
        "the binomial top alpha+l-1 matches the binomial-series oracle "
        "everywhere; the intermediate alpha+l+1 variant first fails at %s",
        "both binomial tops agree on this range (too small to separate)",
    ))


# --------------------------------------------------------------------------
# classical limits
# --------------------------------------------------------------------------


def _chk_classical_limits(p: SweepParams) -> Points:
    for m in p.m_set:
        w_cl = wh.classical_whitney2_rows(m, p.n_max)
        v_cl = wh.classical_whitney1_rows(m, p.n_max)
        for n in range(p.n_max + 1):
            for k in range(n + 1):
                got_w = wh.whitney2(m, n, k).eval(0)
                yield {"m": m, "n": n, "k": k, "family": "W"}, got_w, w_cl[n][k]
                got_v = wh.whitney1(m, n, k).eval(0)
                yield {"m": m, "n": n, "k": k, "family": "V"}, got_v, v_cl[n][k]
    for n in range(p.n_max + 1):
        for k in range(n + 1):
            got1 = st.deg_stirling1(n, k).eval(0)
            yield {"n": n, "k": k, "family": "S1"}, got1, st.stirling1(n, k)
            got2 = st.deg_stirling2(n, k).eval(0)
            yield {"n": n, "k": k, "family": "S2"}, got2, st.stirling2(n, k)


# --------------------------------------------------------------------------
# catalog and runners
# --------------------------------------------------------------------------

CATALOG: dict[str, IdentityCheck] = {}


def _register(
    ident: str, entry: Row | Callable[[SweepParams], Points], discrepancy: bool = False
) -> None:
    checker = entry if isinstance(entry, Row) else lambda p: _sweep(entry(p))
    CATALOG[ident] = IdentityCheck(id=ident, checker=checker, discrepancy=discrepancy)


_W2 = _each(RECURRENCE, lambda *a: wh.whitney2(*a))
_V1 = _each(RECURRENCE, lambda *a: wh.whitney1(*a))
_DOWLING = _each(RECURRENCE, _dowling)

# A Row entry checks that two routes agree.  thm8 and thm18 share one: their
# explicit formulas read the classical first-kind table, which the recurrence
# builds.
_register("eq12", _chk_eq12)
_register("eq17", Row(_triangle(), _rows(GF, lambda *a: st.deg_stirling2_rows_gf(*a)),
                      _each(NEWTON, lambda *a: st.deg_stirling2(*a))))
_register("eq18", Row(_triangle(), _rows(GF, lambda *a: st.deg_stirling1_rows_gf(*a)),
                      _each(NEWTON, lambda *a: st.deg_stirling1(*a))))
_register("thm1", Row(_triangle("m"), _rows(GF, lambda *a: wh.whitney2_rows_gf(*a)), _W2))
_register("cor2", Row(_triangle(), _each(RECURRENCE, lambda n, k: wh.whitney2(1, n, k)),
                      _each(NEWTON, lambda n, k: st.deg_stirling2(n + 1, k + 1)
                            + LAMBDA * n * st.deg_stirling2_or_zero(n, k + 1))))
_register("thm3", Row(_series, Side(GF, lambda *a: wh.dowling_gf(*a).coeff), _DOWLING))
_register("eq29_30", _chk_eq29_30)
_register("cor4", _chk_cor4)
_register("thm5", Row(_triangle("m"), _rows(GF, lambda *a: wh.whitney1_rows_gf(*a)), _V1))
_register("thm6", Row(_triangle("m"), _rows(NEWTON, lambda *a: wh.whitney2_rows_newton(*a)), _W2))
_register("thm7", Row(_triangle("m"), _rows(NEWTON, lambda *a: wh.whitney1_rows_newton(*a)), _V1))
_register("thm8", Row(_triangle("m"), _each(EXPLICIT | RECURRENCE | NEWTON,
                                            lambda *a: wh.whitney1_alt(*a, "quad_T8")), _V1))
_register("thm9", Row(_series, Side(GF, lambda *a: wh.tanny_dowling_gf(*a).coeff),
                      _each(RECURRENCE, lambda m, x, n: wh.tanny_dowling_poly(m, n, x))))
_register("thm10", _chk_thm10)
_register("cor11", _chk_cor11)
_register("thm12", Row(_triangle("m"), _each(EXPLICIT, lambda *a: wh.whitney2_alt(*a, "sum_T12")),
                       _W2))
_register("thm12_zero", _chk_thm12_zero)
_register("thm13", Row(_triangle("m"), _each(EXPLICIT | NEWTON,
                                             lambda *a: wh.whitney2_alt(*a, "stirling_T13")), _W2))
_register("thm14", Row(_triangle("m"), _each(EXPLICIT, lambda *a: wh.whitney2_diff(*a)), _W2))
_register("lemma15", _chk_lemma15)
_register("thm16", _chk_thm16, discrepancy=True)
_register("thm17", _chk_thm17)
_register("thm18", Row(_triangle("m"), _each(EXPLICIT | RECURRENCE | NEWTON,
                                             lambda *a: wh.whitney1_alt(*a, "v0_T18")), _V1))
_register("thm19", Row(_triangle("m"), _each(EXPLICIT | NEWTON,
                                             lambda *a: wh.whitney1_alt(*a, "stirling_T19")), _V1))
_register("thm20", _chk_thm20, discrepancy=True)
_register("thm21", Row(_triangle("m"), _each(RECURRENCE, lambda m, n, k: wh.whitney2(m + 1, n, k)),
                       _each(EXPLICIT | NEWTON, _thm21_rhs)))
_register("cor22", _chk_cor22, discrepancy=True)
_register("cor22_remark", _chk_cor22_remark, discrepancy=True)
_register("thm23", Row(_series, _DOWLING, _each(EXPLICIT | NEWTON, _bell_transform)))
_register("lemma24", _chk_lemma24)
_register("thm25", _chk_thm25)
_register("thm26", Row(
    _series,
    _each(NEWTON, lambda m, x, n: st._row_sum(wh._stirling2_over_m_rows, m, n, x, False)),
    _each(EXPLICIT | RECURRENCE, _dowling_transform),
))
_register("orthogonality", _chk_orthogonality)
_register("stirling_orthogonality", _chk_stirling_orthogonality)
_register("eq68", Row(_triangle("m", "r"), _rows(GF, lambda *a: wh.r_whitney1_rows_gf(*a)),
                      _rows(NEWTON, lambda *a: wh.r_whitney1_rows(*a))))
_register("eq71", Row(_triangle("m", "r"), _rows(GF, lambda *a: wh.r_whitney2_rows_gf(*a)),
                      _rows(NEWTON, lambda *a: wh.r_whitney2_rows(*a))))
_register("eq73", Row(_triangle("r"), _rows(GF, lambda *a: st.deg_r_stirling1_unsigned_rows_gf(*a)),
                      _rows(NEWTON, lambda *a: st.deg_r_stirling1_unsigned_rows(*a))))
_register("eq74", Row(_triangle("r"),
                      _rows(GF, lambda r, n: gf_triangle(deg_log(n), binomial_series(-r, 1, n), n)),
                      Side(NEWTON, lambda r, n: _signed(st.deg_r_stirling1_unsigned_rows(r, n)))))
_register("eq75", _chk_eq75)
_register("eq77", _chk_eq77)
_register("thm27_bernoulli", Row(
    _column("k", range(5)),
    _each(EXPLICIT | NEWTON, lambda k, n: be.deg_bernoulli(n, k)),
    Side(GF, lambda k, n_max: be.deg_bernoulli_gf(n_max, k).__getitem__),
))
_register("thm27_euler", Row(
    _column("alpha", (1, 2, 3)),
    _each(EXPLICIT | NEWTON, lambda alpha, n: be.deg_euler(n, alpha)),
    Side(GF, lambda alpha, n_max: be.deg_euler_gf(n_max, alpha).__getitem__),
))
_register("eq81", _chk_eq81, discrepancy=True)
_register("classical_limits", _chk_classical_limits)

# The cross-route entries, by id.
ROWS: dict[str, Row] = {i: e.checker for i, e in CATALOG.items() if isinstance(e.checker, Row)}


def run_identity(
    ident: str,
    n_max: int = 8,
    m_set: tuple[int, ...] | list[int] = (1, 2, 3),
    r_set: tuple[int, ...] | list[int] = (1, 2, 3),
    seed: int = 0,
) -> IdentityReport:
    """Run one catalog entry over the given parameter space."""
    if ident not in CATALOG:
        raise KeyError(f"unknown identity id {ident!r}")
    entry = CATALOG[ident]
    params = SweepParams(n_max=n_max, m_set=tuple(m_set), r_set=tuple(r_set), seed=seed)
    tested, counterexample, finding = entry.checker(params)
    if counterexample is not None:
        status = "fail"
    elif entry.discrepancy:
        status = "paper-discrepancy"
    else:
        status = "pass"
    return IdentityReport(
        id=ident,
        params_tested=tested,
        status=status,
        counterexample=counterexample,
        finding=finding,
    )


def verify_all(
    n_max: int = 8,
    m_set: tuple[int, ...] | list[int] = (1, 2, 3),
    r_set: tuple[int, ...] | list[int] = (1, 2, 3),
    seed: int = 0,
) -> list[IdentityReport]:
    """Run the whole catalog; reports come back in catalog order."""
    return [run_identity(i, n_max, m_set, r_set, seed) for i in CATALOG]


def all_passed(reports: list[IdentityReport]) -> bool:
    """True when no entry failed; discrepancy findings do not count as failures."""
    return all(r.status != "fail" for r in reports)


def report_document(
    reports: list[IdentityReport],
    n_max: int,
    m_set: tuple[int, ...] | list[int],
    r_set: tuple[int, ...] | list[int],
    seed: int,
) -> dict:
    """The machine-readable wrapper emitted by the CLI."""
    return {
        "version": 1,
        "seed": seed,
        "n_max": n_max,
        "m_set": list(m_set),
        "r_set": list(r_set),
        "reports": [r.to_dict() for r in reports],
    }
