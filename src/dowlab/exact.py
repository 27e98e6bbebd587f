"""Exact scalars: arbitrary-precision rationals and dense polynomials in ``l``.

Every number family in this package is polynomial in one formal parameter,
printed as ``l``.  A polynomial is stored as a tuple of ``int`` numerators
over one positive common denominator, in lowest terms (the layout of FLINT's
``fmpq_poly``).  Ring arithmetic is integer arithmetic on the numerators and
touches the denominator once per polynomial, not once per coefficient;
nearly every Whitney, Stirling and Dowling entry has integer coefficients,
so the denominator is mostly 1.  ``dot`` sums many products the same way,
over one denominator for the whole sum: each term's scalar is folded into
its shorter operand once, and every product is added into one int list by
the schoolbook loop ``acc[i + j] += a_j * b_i``, which a product of two
polynomials uses too; the sum is canonicalized once at the end, by
``_canonical``, the one canonical form of the ring.  The operands are short
(a few coefficients under 32 bits), so plain int steps beat slicing or
packing.  ``dot`` and ``_addmul`` take one path for every term.  A fast
path kept beside a general one is a fork, and so is a memo.  Every fork and
memo of the package was removed alone and timed, and these are kept: an int
in ``_rational``, ``LambdaPoly.coerce`` and ``LambdaPoly.__eq__``, a
denominator of 1 in ``_reduced`` and ``LambdaPoly.coeffs``, equal
denominators in ``_addsub``, the integral paths of ``__hash__``, a monomial
in ``__pow__``, an integral polynomial and the degree tables in ``__str__``;
in ``series`` the product's leading-zero bounds, ``gf_triangle``'s
leading-zero slice and ``_first_order``'s rational beta; and all 11 memos
(in ``bases``, ``newton``, ``series``, ``whitney``, ``identities`` and
``dobinski``), whose keys hold no series and no function.  Each says in a
comment what removing it cost under CPython 3.11.7 on a 2-core x86-64 host:
the cold catalog (``run_identity`` over ``CATALOG``, every cache cleared) in
CPU time at n_max 10 or 20, a symbolic export (W at m = 3, n_max 80, or VR
at m = 3, r = 2, n_max 40), the benchmark's Dobinski sweep in process, or a
memo's own entries at n_max 32.  No command powers a polynomial other than
a monomial, and every power of a series is solved term by term in ``series``.
Coefficients read back as exact rationals (``fractions.Fraction``), so all
identity checks are decided by literal equality, never by tolerance.
Values are immutable and hashable and may be shared freely between threads.
``Record`` is the base of the package's other immutable values:
``TruncatedSeries``, ``DobinskiRequest``, ``DobinskiResult`` and the catalog's
``SweepParams``, ``IdentityReport``, ``Side``, ``Row``, ``Parts`` and
``Probe``; the one dataclass left, ``identities.IdentityCheck``, is what the
benchmark's tracer rebuilds.  ``bounded`` makes every cache of the package and
lists it in ``CACHES``; ``row_store`` serves a triangle's endless rows from
one of them, ``_check_m`` is the one check of m >= 1, and ``_check_counts``
the one check of every count (n, k, n_max, r, an order) >= 0.
Every integer parameter of a triangle or an accessor must be an ``int``
(``check_ints``): a float or bool, even an equal one, is a ``TypeError``
before any cache is read, so an answer never depends on what was asked before.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache, reduce, wraps
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, neg, sub
from threading import Lock
from typing import Callable, Iterable, Iterator, Union

Scalar = Union[int, Fraction, "LambdaPoly"]

# One additive chunk of the canonical grammar:  coef, coef*l, coef*l^d, l, l^d.
_TERM = re.compile(
    r"""^(?P<sign>[+-]?)
         (?:
            (?P<coef>\d+(?:/\d+)?)(?:\*l(?:\^(?P<deg>\d+))?)?
          | (?P<bare>l)(?:\^(?P<bdeg>\d+))?
         )$""",
    re.VERBOSE,
)


def _rational(value: int | Fraction) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational; floats and bools are refused."""
    kind = type(value)
    if kind is int:  # fork: +2-6% catalog CPU at n_max 20 without it
        return value, 1
    if kind is Fraction or (isinstance(value, (Fraction, int)) and kind is not bool):
        return value.numerator, value.denominator
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def as_fraction(value: int | Fraction) -> Fraction:
    """An exact rational as a Fraction; floats and bools are refused like everywhere else."""
    return Fraction(*_rational(value))


def check_ints(*values: int) -> None:
    """Refuse anything but an int, an equal float or a bool too, before a cache sees it."""
    for value in values:
        if type(value) is not int:
            raise TypeError(f"expected an int, got {type(value).__name__}")


# Every memo and row store of the package, in the order they were made.
CACHES: list = []


def bounded(maxsize: int):
    """``functools.lru_cache(maxsize, typed=True)``, its wrapper listed in ``CACHES``.
    The bound keeps a long-lived process from growing without limit; typed keys
    keep an int apart from an equal float, bool or constant polynomial."""

    def register(fn):
        CACHES.append(lru_cache(maxsize=maxsize, typed=True)(fn))
        return CACHES[-1]

    return register


# The highest degree ``LambdaPoly.parse`` reads, refused before its dense list is made.
MAX_DEGREE = 10**6

# What follows a coefficient of degree d, and what stands for a coefficient
# of magnitude 1 there; str() of a longer polynomial extends copies of both.
# A fork: built on each call instead, the W export renders 39-42% slower.
_SUFFIX = ("", "*l", *(f"*l^{d}" for d in range(2, 257)))
_UNIT = ("1", "l", *(f"l^{d}" for d in range(2, 257)))


def _raw(nums: tuple[int, ...], den: int) -> "LambdaPoly":
    """A LambdaPoly from numerators and a denominator already in canonical form."""
    p = object.__new__(LambdaPoly)
    p.nums = nums
    p.den = den
    return p


def _reduced(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """Canonical (numerators, denominator) of ``nums / den`` for ``den > 0``."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return (), 1
    if den != 1:  # fork: +3%/+9% catalog CPU at n_max 10/20, VR export +4%, without it
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
    return tuple(nums), den


def _canonical(nums: list[int], den: int) -> "LambdaPoly":
    return _raw(*_reduced(nums, den))


def _addsub(p: "LambdaPoly", q: "LambdaPoly", op) -> "LambdaPoly":
    """``p + q`` or ``p - q`` (``op`` is ``operator.add`` or ``sub``)."""
    a, den = p.nums, p.den
    b, bden = q.nums, q.den
    if den != bden:  # fork: +2% catalog CPU per pair at n_max 10 and 20 without it
        g = gcd(den, bden)
        a = [n * (bden // g) for n in a]
        b = [n * (den // g) for n in b]
        den *= bden // g
    out = list(map(op, a, b))
    short = len(out)
    out += a[short:]
    out += b[short:] if op is add else map(neg, b[short:])
    return _canonical(out, den)


def _addmul(acc: list[int], a: tuple[int, ...], b: tuple[int, ...], c: int) -> None:
    """Add ``c * a * b`` into ``acc``, which reaches index ``len(a) + len(b) - 2``.

    The one product loop of the kernel: ``c`` is folded into each
    coefficient of ``b`` (the shorter operand) once, and every product is
    added in place, since a few plain int steps cost less than slicing the
    list for operands this short.
    """
    for i, y in enumerate(b):
        y *= c
        for j, x in enumerate(a, i):
            acc[j] += x * y


def dot(terms: Iterable[tuple[int | Fraction, "LambdaPoly", "LambdaPoly"]]) -> "LambdaPoly":
    """The sum of ``c * p * q`` over the ``(c, p, q)`` triples of ``terms``.

    ``c`` is an exact rational and ``p``, ``q`` are LambdaPolys.  Every
    product is added into one list of int numerators over one common
    denominator and the sum is canonicalized once, so no term builds a
    polynomial of its own.  Terms with a zero factor are skipped; a float or
    bool ``c`` is refused even then.
    """
    acc: list[int] = []
    size = 0  # len(acc)
    den = 1
    for c, p, q in terms:
        cnum, cden = _rational(c)
        a, b = p.nums, q.nums
        if not cnum or not a or not b:
            continue
        tden = cden * p.den * q.den
        if tden != den:
            # Bring the sum and the term over lcm(den, tden).
            grow = tden // gcd(den, tden)
            acc = [n * grow for n in acc]
            den *= grow
            cnum *= den // tden
        if len(a) < len(b):
            a, b = b, a
        top = len(a) + len(b) - 1
        if top > size:
            acc += [0] * (top - size)
            size = top
        _addmul(acc, a, b, cnum)
    return _canonical(acc, den)


class LambdaPoly:
    """Dense polynomial in ``l`` with exact rational coefficients.

    Coefficient ``i`` is ``nums[i] / den``: ``nums`` is a tuple of ``int``
    numerators ascending by degree, ``den`` one positive common denominator.
    The form is canonical -- ``gcd(den, *nums) == 1``, no trailing zero
    numerator, and ``((), 1)`` for zero -- which makes ``==`` the
    canonical-equality test used by every identity check.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[int | Fraction] = ()) -> None:
        parts = [_rational(c) for c in coeffs]
        den = lcm(*[d for _, d in parts])
        self.nums, self.den = _reduced([n * (den // d) for n, d in parts], den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def coerce(cls, value: Scalar) -> "LambdaPoly":
        if isinstance(value, LambdaPoly):
            return value
        # not a bool, which goes on to be refused; fork: +7.5% catalog CPU at n_max 20 without it
        if type(value) is int:
            return _raw((value,) if value else (), 1)
        return cls((value,))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients ascending by degree, as Fractions (built on each read)."""
        den = self.den
        if den == 1:  # fork: +4% catalog CPU at n_max 20 without it
            return tuple(map(Fraction, self.nums))
        return tuple(Fraction(n, den) for n in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def is_rational(self) -> bool:
        return len(self.nums) <= 1

    def constant(self) -> Fraction:
        """The coefficient of ``l^0``."""
        return Fraction(self.nums[0], self.den) if self.nums else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __hash__(self) -> int:
        # A constant hashes like the number it equals: an integral one through
        # its int, with no Fraction built, as an integral Fraction hashes like
        # its int.  Any other polynomial hashes like self.coeffs.
        nums = self.nums
        if len(nums) > 1:
            return hash(nums) if self.den == 1 else hash(self.coeffs)
        if self.den == 1:  # fork: both integral paths, +25%/+22% catalog CPU at n_max 10/20
            return hash(nums[0]) if nums else hash(0)
        return hash(Fraction(nums[0], self.den))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LambdaPoly):
            return self.nums == other.nums and self.den == other.den
        if type(other) is int:  # fork: +3% catalog CPU at n_max 20 without it, in one of two rounds
            return self.den == 1 and self.nums == ((other,) if other else ())
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            return self == LambdaPoly.coerce(other)
        # a bool, like a float, is no exact rational: it equals no polynomial,
        # also where it hashes like an equal constant
        return NotImplemented

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: Scalar) -> "LambdaPoly":
        return _addsub(self, LambdaPoly.coerce(other), add)

    __radd__ = __add__

    def __neg__(self) -> "LambdaPoly":
        return _raw(tuple(map(neg, self.nums)), self.den)

    def __sub__(self, other: Scalar) -> "LambdaPoly":
        return _addsub(self, LambdaPoly.coerce(other), sub)

    def __rsub__(self, other: Scalar) -> "LambdaPoly":
        return _addsub(LambdaPoly.coerce(other), self, sub)

    def __mul__(self, other: Scalar) -> "LambdaPoly":
        a, den = self.nums, self.den
        other = LambdaPoly.coerce(other)
        b = other.nums
        if not a or not b:
            return _raw((), 1)
        if len(a) < len(b):
            a, b = b, a
        acc = [0] * (len(a) + len(b) - 1)
        _addmul(acc, a, b, 1)
        return _canonical(acc, den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: int | Fraction) -> "LambdaPoly":
        """Division by a nonzero rational scalar (the only unit we need)."""
        p, q = _rational(other)
        if not p:
            raise ZeroDivisionError("division of a polynomial by zero")
        if p < 0:
            p, q = -p, -q
        return _canonical([n * q for n in self.nums], self.den * p)

    def __pow__(self, n: int) -> "LambdaPoly":
        _check_counts(n=n)
        nums = self.nums
        if nums and not any(nums[:-1]):  # fork: +3-5% catalog CPU per pair without it
            # A monomial c*l^d: its power is c^n * l^(d n), already in lowest terms.
            return _raw((0,) * ((len(nums) - 1) * n) + (nums[-1] ** n,), self.den**n)
        return reduce(mul, repeat(self, n), ONE)

    # -- evaluation and substitution -----------------------------------------

    def eval(self, point: int | Fraction) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        p, q = _rational(point)
        nums = self.nums
        if not nums:
            return Fraction(0)
        # Horner over the integers: acc / q^k is the value of the top k+1 terms.
        acc = nums[-1]
        qpow = 1
        for c in reversed(nums[:-1]):
            qpow *= q
            acc = acc * p + c * qpow
        return Fraction(acc, self.den * qpow)

    def scale_lambda(self, factor: int | Fraction) -> "LambdaPoly":
        """Substitute ``l -> factor*l``."""
        p, q = _rational(factor)
        nums = self.nums
        if not nums:
            return _raw((), 1)
        # nums[i] * p^i / q^i over den becomes nums[i] * p^i * q^(d-i) over den * q^d.
        out = []
        power = 1
        for n in nums:
            out.append(n * power)
            power *= p
        power = 1
        for i in range(len(out) - 1, -1, -1):
            out[i] *= power
            power *= q
        return _canonical(out, self.den * (power // q))

    # -- canonical string form ------------------------------------------------

    def __str__(self) -> str:
        nums, den = self.nums, self.den
        if not nums:
            return "0"
        suffix, unit = _SUFFIX, _UNIT
        if len(nums) > len(suffix):
            suffix = (*suffix, *(f"*l^{d}" for d in range(len(suffix), len(nums))))
            unit = (*unit, *(f"l^{d}" for d in range(len(unit), len(nums))))
        if den == 1:  # fork: the W export renders 29-33% slower without it
            text = str
        else:

            def text(mag: int) -> str:
                # |n|/den in lowest terms, as str(Fraction) prints it
                g = gcd(mag, den)
                return str(mag // g) if g == den else f"{mag // g}/{den // g}"

        parts = [
            ("+ " if n > 0 else "- ") + (u if (mag := abs(n)) == den else text(mag) + s)
            for n, s, u in zip(nums, suffix, unit)
            if n
        ]
        first = parts[0]
        parts[0] = first[2:] if first[0] == "+" else "-" + first[2:]
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LambdaPoly({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "LambdaPoly":
        """Parse the canonical grammar, e.g. ``1 - 3*l + 2*l^2`` or ``-l``."""
        s = "".join(text.split())
        if not s:
            raise ValueError("empty polynomial string")
        if s == "0":
            return cls()
        chunks = re.findall(r"[+-]?[^+-]+", s)
        if "".join(chunks) != s:
            raise ValueError(f"malformed polynomial string: {text!r}")
        by_degree: dict[int, Fraction] = {}
        for chunk in chunks:
            match = _TERM.match(chunk)
            if match is None:
                raise ValueError(f"malformed polynomial term {chunk!r} in {text!r}")
            sign = -1 if match.group("sign") == "-" else 1
            try:
                if match.group("bare"):
                    coef = Fraction(1)
                    deg = int(match.group("bdeg") or 1)
                else:
                    coef = Fraction(match.group("coef"))
                    deg = int(match.group("deg") or 1) if "*l" in chunk else 0
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in term {chunk!r} of {text!r}")
            except ValueError:
                # _TERM admits only digit strings, so this is the interpreter's
                # limit on the digits of an int read from a string
                limit = sys.get_int_max_str_digits()
                raise ValueError(f"number of more than {limit} digits in term: {chunk!r}")
            by_degree[deg] = by_degree.get(deg, Fraction(0)) + sign * coef
        top = max(by_degree)
        if top > MAX_DEGREE:
            raise ValueError(f"degree {top} is too large for a polynomial")
        den = lcm(*[coef.denominator for coef in by_degree.values()])
        nums = [0] * (top + 1)
        for deg, coef in by_degree.items():
            nums[deg] = coef.numerator * (den // coef.denominator)
        return _canonical(nums, den)


ZERO = LambdaPoly()
ONE = LambdaPoly((1,))
LAMBDA = LambdaPoly((0, 1))


class Record:
    """Base of an immutable value class whose fields are its ``__slots__``.

    ``==``, ``hash``, ``repr``, ``copy`` and pickling read the fields in
    slot order, as a frozen dataclass's do, and setting or deleting a field
    raises AttributeError.  ``__init__`` validates its arguments and stores
    them with ``_set``.  It stands in for ``dataclasses``, whose import
    brings in ``inspect``, ``ast`` and ``tokenize``.
    """

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__reduce__()[1] == other.__reduce__()[1]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# -- row stores -----------------------------------------------------------------

# A triangle: a tuple of row tuples, whichever function returns it.
Rows = tuple[tuple[LambdaPoly, ...], ...]

# Parameter sets whose rows stay held per triangle; the least recently used goes.
STORES_HELD = 64


def _check_index(n: int, k: int) -> None:
    check_ints(n, k)
    if n < 0 or k < 0 or k > n:
        raise IndexError(f"({n}, {k}) outside triangle")


def _check_m(m: int) -> None:
    check_ints(m)
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")


def _check_counts(**counts: int) -> None:
    """Refuse a count that is not an int (``check_ints``) or is negative, by its
    name; a non-int anywhere is refused before a negative int."""
    for name, value in counts.items():
        if type(value) is not int or value < 0:
            check_ints(*counts.values())
            raise ValueError(f"{name} must be an integer >= 0, got {value}")


def row_store(rows_of: Callable[..., Iterator]) -> Callable[..., Rows]:
    """Serve the endless rows ``rows_of(*params)`` as ``f(*params, n_max) -> Rows``.

    ``rows_of`` yields each row as a tuple, which the store keeps as it
    comes.  It checks the values of its parameters (m >= 1, r >= 0 for the
    kernels) before it returns the row iterator, so a refused call stores
    nothing.  A store is the list of rows built so far plus the live
    iterator; a longer ``n_max`` extends it, and a build that fails renews
    the store of its own params only.  The decorated function has
    ``cache_info()`` and ``cache_clear()`` of its stores, and
    ``entry(*params, n, k)``, which reads one entry of the same store in
    place; only ``f`` copies rows out of it.  Both refuse a non-int argument
    first, then a bad ``n_max`` or (n, k), then what ``rows_of`` refuses.
    """

    @bounded(STORES_HELD)
    @wraps(rows_of)  # the store's cache is named after its triangle
    def store(*params: int) -> list:
        return [[], rows_of(*params)]

    lock = Lock()  # one thread at a time drives a row iterator

    def built_to(params: list[int], n: int) -> list[tuple]:
        """The rows of the store of ``params``, extended to hold row ``n``."""
        held = store(*params)  # [the rows built so far, their live iterator]
        built = held[0]
        if len(built) <= n:
            with lock:
                built, source = held  # a build that failed meanwhile has renewed both
                try:
                    while len(built) <= n:
                        built.append(next(source))
                except BaseException:
                    # an interrupted iterator cannot be resumed, so these params
                    # start afresh; a reader of the old list still reads its rows
                    held[:] = [], rows_of(*params)
                    raise
        return built

    @wraps(rows_of)
    def rows(*args: int) -> Rows:
        *params, n_max = args
        check_ints(*params)
        _check_counts(n_max=n_max)
        return tuple(built_to(params, n_max)[: n_max + 1])

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
