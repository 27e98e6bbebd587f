"""Catalog of the number-family identities as executable, exact checks.

Every entry yields comparisons ``(params, lhs, rhs)`` at each point of a
finite parameter grid, in a fixed order.  One loop, ``_sweep``, runs them all:
it counts each comparison it makes, decides it by canonical polynomial
equality, and stops at the first mismatch, which it reports as the
counterexample.  ``params_tested`` is the number of comparisons made, the
failing one included; nothing past the first counterexample is computed.

An entry that compares two routes to the same values is a ``Row``: two sides,
each naming the routes it computes by (Newton conversion, generating
function, explicit formula), read at the points of one runner.
An entry of several comparisons is a tuple of rows, its ``Parts``, run one
after another, each labelled by the ``tail`` params that end its points.
``ROWS`` lists them all.

Entries flagged as *discrepancy* probes exist because the source material
prints two inconsistent readings of a formula.  A ``Probe`` holds a row whose
lhs is the reading the derivation supports, and the printed reading, deferred:
its finding is the first point where the printed one differs from lhs.  The
entries with no route pair stay generators of points.

A report's status is read off what its sweep found: ``fail`` at a
counterexample, else ``paper-discrepancy`` at a finding, which only a
``Probe`` returns, else ``pass``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, product
from math import factorial
from typing import Callable, Generator, Iterable, Optional

from .exact import (LAMBDA, ONE, LambdaPoly, Record, _check_counts, _check_m, bounded,
                    check_ints, dot)
from .bases import binom, falling_transform, lambda_falling, lambda_rising, rising_transform
from .newton import _row_sum
from .series import deg_exp, deg_log_of_one_plus, one_series, t_series
from . import bernoulli_euler as be
from . import stirling as st
from . import whitney as wh

X_SAMPLES = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-1, 3))
DOBINSKI_X = (Fraction(1, 2), Fraction(1), Fraction(2))
DOBINSKI_LAMBDA = (Fraction(0), Fraction(1, 4), Fraction(1, 2))


class SweepParams(Record):
    """Finite parameter space one identity run sweeps over."""

    __slots__ = ("n_max", "m_set", "r_set", "seed")

    def __init__(self, n_max: int, m_set: tuple, r_set: tuple, seed: int) -> None:
        self._set(n_max, m_set, r_set, seed)

    def rng(self, ident: str) -> random.Random:
        # str seeds hash via SHA-512 inside Random: stable across platforms
        return random.Random(f"{self.seed}:{ident}")


class IdentityReport(Record):
    """Outcome of one identity sweep; its status is read off what it found."""

    __slots__ = ("id", "params_tested", "counterexample", "finding")

    def __init__(
        self, id: str, params_tested: int, counterexample: Optional[dict] = None,
        finding: Optional[str] = None,
    ) -> None:
        self._set(id, params_tested, counterexample, finding)

    @property
    def status(self) -> str:
        """``fail`` at a counterexample, else ``paper-discrepancy`` at a finding, else ``pass``."""
        if self.counterexample is not None:
            return "fail"
        return "pass" if self.finding is None else "paper-discrepancy"

    def to_dict(self) -> dict:
        out: dict = {"id": self.id, "params_tested": self.params_tested, "status": self.status}
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


# The package's one dataclass: the benchmark's tracer (perfbench/tracer.py) times each
# entry by rebuilding it with ``dataclasses.replace``, until it finds its spans itself.
@dataclass(frozen=True)
class IdentityCheck:
    checker: Checker


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
# declared entries: two routes to the same values agree at every point
# --------------------------------------------------------------------------

# The routes a side may compute by; a side's route is their union.
NEWTON, GF, EXPLICIT = (frozenset({name}) for name in ("newton", "gf", "explicit"))


class Side(Record):
    """One side of a row: the routes it reaches, and its values.

    ``values(*outer, n_max)`` runs once per tuple of the row's outer
    parameters and returns the reader of the side's value at each point.
    Library functions are looked up on their module when a side runs.
    """

    __slots__ = ("route", "values")

    def __init__(self, route: frozenset[str], values: Callable) -> None:
        self._set(route, values)


def _entries(rows) -> Callable[[int, int], LambdaPoly]:
    """The reader of ``rows[n][k]``."""
    return lambda n, k: rows[n][k]


def _rows(route: frozenset[str], build: Callable) -> Side:
    """A side read from the triangle ``build(*outer, n_max)``."""
    return Side(route, lambda *args: _entries(build(*args)))


def _each(route: frozenset[str], value: Callable) -> Side:
    """A side computed as ``value(*outer, *point)`` at each point."""
    return Side(route, lambda *args: partial(value, *args[:-1]))


# A runner yields, for each tuple of a row's outer parameters, that tuple and
# the (params, point) cells read there; the sides' readers take the point.
# Each point's params end with the row's ``tail``.
Cells = Iterable[tuple[dict, tuple]]
Runner = Callable[[SweepParams, dict], Iterable[tuple[tuple, Cells]]]


def _grid(outer: tuple[str, ...], cells: Callable[[int], Cells], **over: Iterable) -> Runner:
    """The cells ``cells(n_max)`` for each tuple of the sweep sets named
    ``outer`` (each "m" or "r") and then of the values given as keywords.
    A point's params are the outer ones, the cell's, the keywords', a
    Fraction shown as its str (JSON has no rationals), then the tail's."""

    def run(p: SweepParams, tail: dict) -> Iterable[tuple[tuple, Cells]]:
        axes = [getattr(p, f"{name}_set") for name in outer] + list(over.values())
        for fixed in product(*axes):
            at = dict(zip(outer, fixed))
            given = zip(over, fixed[len(outer):])
            shown = {name: str(v) if isinstance(v, Fraction) else v for name, v in given}
            yield fixed, (
                ({**at, **params, **shown, **tail}, point) for params, point in cells(p.n_max)
            )

    return run


def _triangle(*outer: str, ahead: int = 0) -> Runner:
    """Every (n, k) of the triangle, for each tuple of the outer parameters.
    For sides that read row n + ``ahead``, the rows stop ``ahead`` short of
    n_max and k runs to n + ``ahead``."""
    return _grid(outer, lambda n_max: (
        ({"n": n, "k": k}, (n, k))
        for n in range(n_max + 1 - ahead) for k in range(n + 1 + ahead)
    ))


def _column(*outer: str, ahead: int = 0, **over: Iterable) -> Runner:
    """Every n up to n_max - ``ahead``, for each tuple of the outer parameters
    and then of the values given as keywords."""
    return _grid(outer, lambda n_max: (({"n": n}, (n,)) for n in range(n_max + 1 - ahead)), **over)


# Every coefficient n of a series, for each m and x sample.
_SERIES = _column("m", x=X_SAMPLES)


class Row(Record):
    """Two sides that must agree at every point of ``run``; as a part of an
    entry, its points' params end with ``tail``."""

    __slots__ = ("run", "lhs", "rhs", "tail")

    def __init__(self, run: Runner, lhs: Side, rhs: Side, tail: Optional[dict] = None) -> None:
        self._set(run, lhs, rhs, {} if tail is None else tail)

    def read(self, p: SweepParams, *sides: Side) -> Iterable[tuple[dict, tuple, list]]:
        """Each point's params and point, with the readers of ``sides`` there."""
        for outer, cells in self.run(p, self.tail):
            readers = [side.values(*outer, p.n_max) for side in sides]
            for params, point in cells:
                yield params, point, readers

    def rows(self) -> Iterable[Row]:
        return (self,)

    def points(self, p: SweepParams) -> Points:
        for params, point, (left, right) in self.read(p, self.lhs, self.rhs):
            yield params, left(*point), right(*point)

    def __call__(self, p: SweepParams) -> CheckResult:
        return _sweep(self.points(p))


class Parts(Record):
    """An entry of several rows, each run to its end before the next."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Row, ...]) -> None:
        self._set(parts)

    def rows(self) -> Iterable[Row]:
        return self.parts

    def __call__(self, p: SweepParams) -> CheckResult:
        return _sweep(chain.from_iterable(row.points(p) for row in self.parts))


class Probe(Record):
    """A discrepancy entry: ``row`` decides it, its lhs the reading the
    derivation supports; ``printed`` is the reading as printed, read at each
    point until it first differs from lhs (see ``_probe``)."""

    __slots__ = ("row", "printed", "fails", "agrees")

    def __init__(self, row: Row, printed: Side, fails: str, agrees: str) -> None:
        self._set(row, printed, fails, agrees)

    def rows(self) -> Iterable[Row]:
        return (self.row,)

    def __call__(self, p: SweepParams) -> CheckResult:
        row = self.row
        points = (
            (params, left(*point), right(*point), partial(printed, *point))
            for params, point, (left, right, printed) in row.read(p, row.lhs, row.rhs, self.printed)
        )
        return _sweep(_probe(points, self.fails, self.agrees))


# --------------------------------------------------------------------------
# the sides' formulas
# --------------------------------------------------------------------------


def _bell_gf(n_max: int) -> Callable[[int], LambdaPoly]:
    """The reader of B(n + 1) off the GF exp(e_l(t) - 1) of sum_k S2deg(n, k)."""
    order = n_max + 1
    series = (deg_exp(1, order) - one_series(order)).exp()
    return lambda n: series.coeff(n + 1)


def _thm16_sum(m: int, n: int, k: int, with_falling_factor: bool) -> LambdaPoly:
    """Right side of the row recursion for W(n+1,k); the derivation carries a
    (m)_{l-i,l} factor that the displayed theorem omits, and the lower bound
    l = k-1 is clamped at 0 for k = 0."""
    return dot(
        (Fraction(factorial(n), factorial(l)), _thm16_inner(m, k, l, with_falling_factor),
         (-LAMBDA) ** (n - l))
        for l in range(max(k - 1, 0), n + 1)
    )


# The inner sum of thm16 does not depend on n, so it is built once per key, not per (n, k).
@bounded(4096)  # memo: thm16 at n_max 32 takes 1.40 s, not 0.40 s, without it
def _thm16_inner(m: int, k: int, l: int, with_falling_factor: bool) -> LambdaPoly:
    """W(l,k) + sum_i C(l,i) W(i,k-1) [(m)_{l-i,l}], the inner sum of thm16."""
    terms = (
        (binom(l, i), wh.whitney2_or_zero(m, i, k - 1),
         lambda_falling(m, l - i, LAMBDA) if with_falling_factor else ONE)
        for i in range(max(k - 1, 0), l + 1)
    )
    return dot(chain([(1, wh.whitney2_or_zero(m, l, k), ONE)], terms))


def _thm17_sum(m: int, n: int) -> LambdaPoly:
    """sum_l C(n,l) (n-l)! (-l)^(n-l) sum_i C(l,i) [2 if i = 0] (m)_{i,l} D(l-i),
    Theorem 17's expansion of the Dowling number D_m(n+1)."""
    inner = lambda l: dot(
        (binom(l, i) * (2 if i == 0 else 1), lambda_falling(m, i, LAMBDA),
         wh.dowling_number(m, l - i))
        for i in range(l + 1)
    )
    return dot(
        (binom(n, l) * factorial(n - l), (-LAMBDA) ** (n - l), inner(l)) for l in range(n + 1)
    )


def _thm20_sum(m: int, n: int, k: int, printed: bool) -> LambdaPoly:
    """m^(n-k) S1deg(n,k | l/m) as sum_i C(i,k) V(n,i) (1)_{i-k,l}, the form the
    derivation gives, or with the printed binomial C(n,i) in place of C(i,k)."""
    return dot(
        (binom(n, i) if printed else binom(i, k), wh.whitney1(m, n, i),
         lambda_falling(1, i - k, LAMBDA))
        for i in range(k, n + 1)
    )


def _thm21_rhs(m: int, n: int, k: int) -> LambdaPoly:
    """W_{m+1}(n,k) as the step-ml rising transform of column k of the
    rescaled triangle (m+1)^(j-k) W_m(j,k | m l/(m+1)), the second-kind kernel
    at (m(m+1), m+1, m), over m^(n-k)."""
    entry = st._second_kind_rows.entry
    terms = ((j, 1, entry(m * (m + 1), m + 1, m, j, k)) for j in range(k, n + 1))
    return rising_transform(n, terms, LAMBDA * m) / m ** (n - k)


def _cor22_sum(ordered: bool, rescale: bool, m: int, n: int, x: Fraction) -> LambdaPoly:
    """The step-ml rising transform of (m+1)^j times the row polynomial of W_m
    at x m/(m+1), over m^n; ordered (weighted by k!) for the remark.  With
    ``rescale`` the polynomial is taken at m l/(m+1), which makes term j the
    row sum of the rescaled triangle at m x; without it, at l as printed."""
    if rescale:
        key, y, c = (m * (m + 1), m + 1, m), m * x, 1
    else:
        key, y, c = (m, 1, 1), x * Fraction(m, m + 1), m + 1
    terms = ((j, c**j, _row_sum(key, j, y, ordered)) for j in range(n + 1))
    return rising_transform(n, terms, LAMBDA * m) / m**n


def _terms(values: Iterable[LambdaPoly]) -> Iterable[tuple[int, int, LambdaPoly]]:
    """The binomial-transform terms (j, 1, v_j) of the sequence ``values``."""
    return ((j, 1, v) for j, v in enumerate(values))


def _bell_transform(m: int, x: Fraction, n: int) -> LambdaPoly:
    """The falling transform of m^i Bdeg_i(x/m) at l -> l/m, i = 0..n, the
    right side of thm23; each is a row sum of the rescaled S2deg triangle."""
    bells = (_row_sum((m, 0, 1), i, x, False) for i in range(n + 1))
    return falling_transform(n, _terms(bells))


def _dowling_transform(m: int, x: Fraction, n: int) -> LambdaPoly:
    """The rising transform of the Dowling polynomials, the right side of thm26."""
    return rising_transform(n, _terms(wh.dowling_poly(m, k, x) for k in range(n + 1)))


# --------------------------------------------------------------------------
# hand-written entries: no route pair
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
            yield {**at, "n": n, "j": j}, acc, LambdaPoly.coerce(1 if n == j else 0)


def _chk_orthogonality(p: SweepParams) -> Points:
    for m in p.m_set:
        yield from _orthogonal(p.n_max, partial(wh.whitney1, m), partial(wh.whitney2, m), {"m": m})


def _chk_stirling_orthogonality(p: SweepParams) -> Points:
    return _orthogonal(p.n_max, st.deg_stirling1, st.deg_stirling2, {})


def _chk_thm10(p: SweepParams) -> Points:
    # the one inexact check: the evaluator's exact verdict, and on a fail the two doubles
    for m in p.m_set:
        for n in range(min(p.n_max, 8) + 1):
            for x in DOBINSKI_X:
                for lam in DOBINSKI_LAMBDA:
                    req = wh.DobinskiRequest(m=m, n=n, x=x, lam=lam, terms=200, tol=1e-9)
                    res = wh.dobinski_eval(req)
                    exact = res.truncated if res.passed else res.exact
                    yield {"m": m, "n": n, "x": str(x), "lambda": str(lam)}, res.truncated, exact


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


def _chk_lemma24(p: SweepParams) -> Points:
    for n in range(p.n_max + 1):
        for j in range(n + 1):
            want = LambdaPoly.coerce(1 if n == j else 0)
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
# catalog and runners
# --------------------------------------------------------------------------

CATALOG: dict[str, IdentityCheck] = {}

# Every declared comparison, by its entry's id and then, in brackets, the
# values of its tail, if it has one.
ROWS: dict[str, Row] = {}


def _register(ident: str, entry: Row | Probe | tuple | Callable[[SweepParams], Points]) -> None:
    if isinstance(entry, tuple):
        entry = Parts(entry)
    if isinstance(entry, (Row, Parts, Probe)):
        for row in entry.rows():
            label = ", ".join(map(str, row.tail.values()))
            ROWS[f"{ident}[{label}]" if label else ident] = row
        checker = entry
    else:
        checker = lambda p: _sweep(entry(p))
    CATALOG[ident] = IdentityCheck(checker)


def _probe_cor22(ordered: bool, label: str) -> Probe:
    """cor22 or its remark: the Dowling or Tanny-Dowling polynomial of W_{m+1}
    against the step-ml rising transform of the rescaled row polynomials of W_m."""
    holds = (
        f"{label} holds with the inner polynomial taken at the rescaled parameter "
        "m*l/(m+1), as the m->m+1 triangle identity requires; "
    )
    cells = lambda n_max: (({"n": n, "x": str(x)}, (n, x))  # each x sample at each n
                           for n in range(n_max + 1) for x in X_SAMPLES)
    poly = lambda m, n, x: (wh.tanny_dowling_poly if ordered else wh.dowling_poly)(m + 1, n, x)
    return Probe(
        Row(_grid(("m",), cells), _each(NEWTON, poly),
            _each(EXPLICIT | NEWTON, partial(_cor22_sum, ordered, True))),
        _each(EXPLICIT | NEWTON, partial(_cor22_sum, ordered, False)),
        holds + "the printed form (no rescale) first fails at %s",
        holds + "the printed form agrees on this range (too small to separate)",
    )


_W2 = _each(NEWTON, lambda *a: wh.whitney2(*a))
_V1 = _each(NEWTON, lambda *a: wh.whitney1(*a))
_DOWLING = _each(NEWTON, lambda m, x, n: wh.dowling_poly(m, n, x))
_DOWLING_1 = _each(NEWTON, lambda n: wh.dowling_number(1, n))
_BELL_STEP = _each(NEWTON, lambda n: st.deg_bell_number(n + 1) + LAMBDA * n * st.deg_bell_number(n))
_SIGNED_R_S1 = _rows(NEWTON, lambda r, n: st._first_kind_rows(1, r, n))  # (-1)^(n-k) S1degR
_R_S2 = _rows(NEWTON, lambda *a: st.deg_r_stirling2_rows(*a))

# Each row checks that two routes agree.  Every row triangle is the Newton
# route's, so the 26 rows whose sides both read it share it, each listed in the
# tests, and none of them can catch a row_step defect; the GF route never steps
# a row, so eq17, eq18, thm1, thm5, eq68 and eq71 can.  Among the 26, thm6, thm7
# and the r=1 parts of eq75 and eq77 compare a kernel store with itself (W and V
# are the kernels at r = 1), as eq77's m = 1 part does, so they cannot fail;
# they are kept for params_tested.
_register("eq12", _chk_eq12)
_register("eq17", Row(_triangle(), _rows(GF, lambda *a: st.deg_stirling2_rows_gf(*a)),
                      _each(NEWTON, lambda *a: st.deg_stirling2(*a))))
_register("eq18", Row(_triangle(), _rows(GF, lambda *a: st.deg_stirling1_rows_gf(*a)),
                      _each(NEWTON, lambda *a: st.deg_stirling1(*a))))
_register("thm1", Row(_triangle("m"), _rows(GF, lambda *a: wh.whitney2_rows_gf(*a)), _W2))
_register("cor2", Row(_triangle(), _each(NEWTON, lambda n, k: wh.whitney2(1, n, k)),
                      _each(NEWTON, lambda n, k: st.deg_stirling2(n + 1, k + 1)
                            + LAMBDA * n * st.deg_stirling2_or_zero(n, k + 1))))
_register("thm3", Row(_SERIES, Side(GF, lambda *a: wh.dowling_gf(*a).coeff), _DOWLING))
_register("eq29_30", (
    Row(_column(), _each(NEWTON, lambda n: st.deg_bell_number(n + 1)), Side(GF, _bell_gf),
        {"part": "eq29"}),
    Row(_column(), _DOWLING_1, _BELL_STEP, {"part": "eq30"}),
))
_register("cor4", Row(_column(), _DOWLING_1, _BELL_STEP))
_register("thm5", Row(_triangle("m"), _rows(GF, lambda *a: wh.whitney1_rows_gf(*a)), _V1))
_register("thm6", Row(_triangle("m"), _rows(NEWTON, lambda *a: wh.whitney2_rows_newton(*a)), _W2))
_register("thm7", Row(_triangle("m"), _rows(NEWTON, lambda *a: wh.whitney1_rows_newton(*a)), _V1))
_register("thm8", Row(_triangle("m"), _each(EXPLICIT | NEWTON,
                                            lambda *a: wh.whitney1_alt(*a, "quad_T8")), _V1))
_register("thm9", Row(_SERIES, Side(GF, lambda *a: wh.tanny_dowling_gf(*a).coeff),
                      _each(NEWTON, lambda m, x, n: wh.tanny_dowling_poly(m, n, x))))
_register("thm10", _chk_thm10)
_register("cor11", Row(
    _column(x=X_SAMPLES),
    _each(NEWTON, lambda x, n: wh.dowling_poly(1, n, x) * x),
    _each(NEWTON, lambda x, n: st.deg_bell(n + 1, x) + LAMBDA * n * st.deg_bell(n, x)),
))
_register("thm12", Row(_triangle("m"), _each(EXPLICIT, lambda *a: wh.whitney2_alt(*a, "sum_T12")),
                       _W2))
_register("thm12_zero", _chk_thm12_zero)
_register("thm13", Row(_triangle("m"), _each(EXPLICIT | NEWTON,
                                             lambda *a: wh.whitney2_alt(*a, "stirling_T13")), _W2))
_register("thm14", Row(_triangle("m"), _each(EXPLICIT, lambda *a: wh.whitney2_diff(*a)), _W2))
_register("lemma15", _chk_lemma15)
_thm16_verified = (
    "recursion verified with lower bound max(k-1,0) and the (m)_{l-i,l} factor "
    "from the derivation restored; "
)
_register("thm16", Probe(
    Row(_triangle("m", ahead=1),
        _each(EXPLICIT | NEWTON, partial(_thm16_sum, with_falling_factor=True)),
        _each(NEWTON, lambda m, n, k: wh.whitney2(m, n + 1, k))),
    _each(EXPLICIT | NEWTON, partial(_thm16_sum, with_falling_factor=False)),
    _thm16_verified + "the displayed form (factor omitted) first fails at %s",
    _thm16_verified + "the displayed form agrees on this range (too small to separate)",
))
_register("thm17", Row(_column("m", ahead=1), _each(EXPLICIT | NEWTON, _thm17_sum),
                       _each(NEWTON, lambda m, n: wh.dowling_number(m, n + 1))))
_register("thm18", Row(_triangle("m"), _each(EXPLICIT | NEWTON,
                                             lambda *a: wh.whitney1_alt(*a, "v0_T18")), _V1))
_register("thm19", Row(_triangle("m"), _each(EXPLICIT | NEWTON,
                                             lambda *a: wh.whitney1_alt(*a, "stirling_T19")), _V1))
_register("thm20", Probe(
    Row(_triangle("m"), _each(EXPLICIT | NEWTON, partial(_thm20_sum, printed=False)),
        _rows(NEWTON, lambda m, n: st._first_kind_rows(m, 0, n))),
    _each(EXPLICIT | NEWTON, partial(_thm20_sum, printed=True)),
    "printed binomial C(n,i) first fails at %s; "
    "the C(i,k) form from the derivation holds on the whole sweep",
    "printed and derived binomials agree on this range (too small to separate)",
))
_register("thm21", Row(_triangle("m"), _each(NEWTON, lambda m, n, k: wh.whitney2(m + 1, n, k)),
                       _each(EXPLICIT | NEWTON, _thm21_rhs)))
_register("cor22", _probe_cor22(False, "row-polynomial reduction"))
_register("cor22_remark", _probe_cor22(True, "ordered-variant reduction"))
_register("thm23", Row(_SERIES, _DOWLING, _each(EXPLICIT | NEWTON, _bell_transform)))
_register("lemma24", _chk_lemma24)
_register("thm25", _chk_thm25)
_register("thm26", Row(
    _SERIES,
    _each(NEWTON, lambda m, x, n: _row_sum((m, 0, 1), n, x, False)),
    _each(EXPLICIT | NEWTON, _dowling_transform),
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
                      _rows(GF, lambda r, n: st._first_kind_gf(1, r, n)),
                      _SIGNED_R_S1))
# r = 0 at m = 1: the generating function degrades to the plain first-kind
# one, so the triangle must too
_register("eq75", (
    Row(_triangle("r"), _rows(NEWTON, lambda r, n: wh.r_whitney1_rows(1, r, n)), _SIGNED_R_S1,
        {"part": "bracket"}),
    Row(_triangle("m"), _rows(NEWTON, lambda m, n: wh.r_whitney1_rows(m, 1, n)), _V1,
        {"part": "r=1"}),
    Row(_triangle(), _rows(GF, lambda n: st.deg_stirling1_rows_gf(n)),
        _rows(NEWTON, lambda n: st.deg_stirling1_rows(n)), {"part": "r=0"}),
))
# r = 0 at m = 1 is S2deg, with its GF as the oracle; the m = 1 and r = 1 parts read
# the kernel at (1, r, 1) and (m, 1, 1) on both sides, so they cannot fail.
_register("eq77", (
    Row(_triangle("r"), _rows(GF, lambda *a: st.deg_r_stirling2_rows_gf(*a)), _R_S2),
    Row(_triangle("r"), _rows(NEWTON, lambda r, n: wh.r_whitney2_rows(1, r, n)), _R_S2,
        {"part": "m=1"}),
    Row(_triangle("m"), _rows(NEWTON, lambda m, n: wh.r_whitney2_rows(m, 1, n)), _W2,
        {"part": "r=1"}),
    Row(_triangle(), _rows(NEWTON, lambda n: st.deg_r_stirling2_rows(0, n)),
        _rows(GF, lambda n: st.deg_stirling2_rows_gf(n)), {"part": "r=0"}),
))
_register("thm27_bernoulli", Row(
    _column(k=range(5)),
    _each(EXPLICIT | NEWTON, lambda k, n: be.deg_bernoulli(n, k)),
    Side(GF, lambda k, n_max: be.deg_bernoulli_gf(n_max, k).__getitem__),
))
_register("thm27_euler", Row(
    _column(alpha=(1, 2, 3)),
    _each(EXPLICIT | NEWTON, lambda alpha, n: be.deg_euler(n, alpha)),
    Side(GF, lambda alpha, n_max: be.deg_euler_gf(n_max, alpha).__getitem__),
))
_register("eq81", Probe(
    Row(_column(alpha=(Fraction(1, 2), Fraction(3, 2), Fraction(1), Fraction(2))),
        _each(EXPLICIT | NEWTON, lambda alpha, n: be.deg_euler(n, alpha)),
        Side(GF, lambda alpha, n_max: be.deg_euler_gf_binomial(n_max, alpha).__getitem__)),
    _each(EXPLICIT | NEWTON, lambda alpha, n: be.deg_euler_sum_variant(n, alpha, +1)),
    "the binomial top alpha+l-1 matches the binomial-series oracle "
    "everywhere; the intermediate alpha+l+1 variant first fails at %s",
    "both binomial tops agree on this range (too small to separate)",
))
# the l -> 0 limits against the classical tables
_register("classical_limits", (
    Row(_triangle("m"), _each(NEWTON, lambda *a: wh.whitney2(*a).eval(0)),
        _rows(NEWTON, lambda *a: wh.classical_whitney2_rows(*a)), {"family": "W"}),
    Row(_triangle("m"), _each(NEWTON, lambda *a: wh.whitney1(*a).eval(0)),
        _rows(NEWTON, lambda *a: wh.classical_whitney1_rows(*a)), {"family": "V"}),
    Row(_triangle(), _each(NEWTON, lambda *a: st.deg_stirling1(*a).eval(0)),
        _each(NEWTON, lambda *a: st.stirling1(*a)), {"family": "S1"}),
    Row(_triangle(), _each(NEWTON, lambda *a: st.deg_stirling2(*a).eval(0)),
        _each(NEWTON, lambda *a: st.stirling2(*a)), {"family": "S2"}),
))


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
    _check_counts(n_max=n_max)
    check_ints(seed)
    for m in m_set:
        _check_m(m)
    for r in r_set:
        _check_counts(r=r)
    params = SweepParams(n_max=n_max, m_set=tuple(m_set), r_set=tuple(r_set), seed=seed)
    return IdentityReport(ident, *CATALOG[ident].checker(params))


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
