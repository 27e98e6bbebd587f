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
the schoolbook loop ``acc[i + j] += a_j * b_i``, which skips zero
coefficients and which a product of two polynomials uses too; the sum is
canonicalized once at the end.  The operands are short (a few coefficients
under 32 bits), so plain int steps beat slicing or packing.  ``muladd`` is
the row step ``p + w * q`` of every triangle's recurrence and Newton kernel,
and ``linear`` builds its multiplier ``w`` from two ints.
Coefficients read back as exact rationals (``fractions.Fraction``), so all
identity checks are decided by literal equality, never by tolerance.
Values are immutable and hashable and may be shared freely between threads.
``Record`` is the base of the package's other immutable values
(``TruncatedSeries``, ``DobinskiRequest``).  ``bounded``
makes every cache of the package and lists it in ``CACHES``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm
from operator import add, neg, sub
from typing import Iterable, Union

Rational = Fraction

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
    if kind is int:
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


# What follows a coefficient of degree d, and what stands for a coefficient
# of magnitude 1 there; str() of a longer polynomial extends copies of both.
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
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
    return tuple(nums), den


def _canonical(nums: list[int], den: int) -> "LambdaPoly":
    return _raw(*_reduced(nums, den))


def linear(c0: int, c1: int) -> "LambdaPoly":
    """``c0 + c1*l`` from two ints, in canonical form (``c1``, or both, may be 0):
    the multiplier of a row step, built without a pass over a list."""
    if c1:
        return _raw((c0, c1), 1)
    return _raw((c0,) if c0 else (), 1)


def _shift(a: tuple[int, ...], den: int, c: int) -> "LambdaPoly":
    """``a / den + c`` for canonical ``(a, den)`` and an int ``c``.  Only the
    constant numerator moves, by a multiple of ``den``, so the gcd with ``den``
    and the form stay canonical."""
    head = (a[0] if a else 0) + c * den
    if len(a) > 1:
        return _raw((head, *a[1:]), den)
    return _raw((head,), den) if head else _raw((), 1)


def _addsub(p: "LambdaPoly", q: "LambdaPoly", op) -> "LambdaPoly":
    """``p + q`` or ``p - q`` (``op`` is ``operator.add`` or ``sub``)."""
    a, den = p.nums, p.den
    b, bden = q.nums, q.den
    if den != bden:
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

    The one product loop of the kernel: ``c`` is folded into each nonzero
    coefficient of ``b`` (the shorter operand) once, and every product is
    added in place, since a few plain int steps cost less than slicing the
    list for operands this short.
    """
    for i, y in enumerate(b):
        if y:
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
        if type(c) is int:
            cnum, cden = c, 1
        else:
            cnum, cden = _rational(c)
        a, b = p.nums, q.nums
        if not cnum or not a or not b:
            continue
        tden = cden * p.den * q.den
        if tden != den:
            # Bring the sum and the term over lcm(den, tden).
            g = gcd(den, tden)
            if g != tden:
                grow = tden // g
                acc = [n * grow for n in acc]
                den *= grow
            cnum *= den // tden
        if len(a) < len(b):
            a, b = b, a
        top = len(a) + len(b) - 1
        if not size and len(b) == 1:
            # The first term, with one coefficient: a scaled copy of a.
            y = b[0] * cnum
            acc = [x * y for x in a]
            size = top
            continue
        if top > size:
            acc += [0] * (top - size)
            size = top
        _addmul(acc, a, b, cnum)
    while acc and not acc[-1]:
        acc.pop()
    if not acc:
        return _raw((), 1)
    if den != 1:
        g = gcd(den, *acc)
        if g != 1:
            den //= g
            acc = [n // g for n in acc]
    return _raw(tuple(acc), den)


def muladd(p: "LambdaPoly | int", w: Scalar, q: "LambdaPoly | int") -> "LambdaPoly | int":
    """``p + w * q``: the step c'_k = c_{k-1} + w c_k of a triangle's row.

    ``p`` and ``q`` are LambdaPolys and ``w`` an exact scalar, or all three
    are ``int``s (the ring of plain integers).  When every denominator is 1
    and ``w`` has at most two coefficients, as in every row step of the
    package, each coefficient p_i + w_0 q_i + w_1 q_{i-1} is written once
    into one int list and canonicalized once; any other input goes through
    ``dot``.
    """
    if type(q) is int:
        return p + w * q
    w = LambdaPoly.coerce(w)
    c = w.nums
    if p.den != 1 or q.den != 1 or w.den != 1 or len(c) > 2:
        return dot(((1, p, ONE), (1, w, q)))
    w0, w1 = (*c, 0, 0)[:2]
    b = q.nums
    out = [x + w0 * y + w1 * z for x, y, z in zip_longest(p.nums, b, (0, *b), fillvalue=0)]
    return _canonical(out, 1)


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
        coeffs = list(coeffs)
        if all(type(c) is int for c in coeffs):
            self.nums, self.den = _reduced(coeffs, 1)
            return
        parts = [_rational(c) for c in coeffs]
        den = lcm(*[d for _, d in parts])
        self.nums, self.den = _reduced([n * (den // d) for n, d in parts], den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: int | Fraction) -> "LambdaPoly":
        return cls((value,))

    @classmethod
    def coerce(cls, value: Scalar) -> "LambdaPoly":
        if isinstance(value, LambdaPoly):
            return value
        if type(value) is int:  # not a bool: that goes on to be refused
            return _raw((value,) if value else (), 1)
        return cls((value,))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients ascending by degree, as Fractions (built on each read)."""
        den = self.den
        if den == 1:
            return tuple(map(Fraction, self.nums))
        return tuple(Fraction(n, den) for n in self.nums)

    @property
    def degree(self) -> int:
        """Degree in ``l``; the zero polynomial has degree -1."""
        return len(self.nums) - 1

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
        if self.den == 1:
            return hash(nums[0]) if nums else hash(0)
        return hash(Fraction(nums[0], self.den))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LambdaPoly):
            return self.nums == other.nums and self.den == other.den
        if type(other) is int:
            return self.den == 1 and self.nums == ((other,) if other else ())
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            return self == LambdaPoly.coerce(other)
        # a bool, like a float, is no exact rational: it equals no polynomial,
        # also where it hashes like an equal constant
        return NotImplemented

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: Scalar) -> "LambdaPoly":
        if type(other) is int:
            return _shift(self.nums, self.den, other)
        return _addsub(self, LambdaPoly.coerce(other), add)

    __radd__ = __add__

    def __neg__(self) -> "LambdaPoly":
        return _raw(tuple(map(neg, self.nums)), self.den)

    def __sub__(self, other: Scalar) -> "LambdaPoly":
        if type(other) is int:
            return _shift(self.nums, self.den, -other)
        return _addsub(self, LambdaPoly.coerce(other), sub)

    def __rsub__(self, other: Scalar) -> "LambdaPoly":
        if type(other) is int:
            return _shift(tuple(map(neg, self.nums)), self.den, other)
        return _addsub(LambdaPoly.coerce(other), self, sub)

    def __mul__(self, other: Scalar) -> "LambdaPoly":
        a, den = self.nums, self.den
        if type(other) is int:
            if not other or not a:
                return _raw((), 1)
            if den != 1:
                g = gcd(den, other)
                den //= g
                other //= g
            return _raw(tuple(map(other.__mul__, a)), den)
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
        check_ints(n)
        if n < 0:
            raise ValueError("negative polynomial power")
        nums = self.nums
        if nums and not any(nums[:-1]):
            # A monomial c*l^d: its power is c^n * l^(d n), already in lowest terms.
            return _raw((0,) * ((len(nums) - 1) * n) + (nums[-1] ** n,), self.den**n)
        out = LambdaPoly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
        if den == 1:
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
        den = lcm(*[coef.denominator for coef in by_degree.values()])
        try:
            nums = [0] * (top + 1)
        except (MemoryError, OverflowError):
            raise ValueError(f"degree {top} is too large for a polynomial")
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

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
