"""Exact scalars: arbitrary-precision rationals and dense polynomials in ``l``.

Every number family in this package is polynomial in one formal parameter,
printed as ``l``.  A polynomial is stored as a tuple of ``int`` numerators
over one positive common denominator, in lowest terms (the layout of FLINT's
``fmpq_poly``).  Ring arithmetic is integer arithmetic on the numerators and
touches the denominator once per polynomial, not once per coefficient;
nearly every Whitney, Stirling and Dowling entry has integer coefficients,
so the denominator is mostly 1.  ``dot`` sums many products the same way,
over one denominator for the whole sum.  Coefficients read back as exact
rationals (``fractions.Fraction``), so all identity checks are decided by
literal equality, never by tolerance.  Values are immutable and hashable and
may be shared freely between threads.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
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
        width = len(a)
        if len(b) == 1:
            # One coefficient, nonzero: the term is a scaled copy of a.
            if width > size:
                acc += [0] * (width - size)
                size = width
            cb = b[0] * cnum
            acc[:width] = map(add, acc[:width], map(cb.__mul__, a))
            continue
        top = width + len(b) - 1
        if top > size:
            acc += [0] * (top - size)
            size = top
        for j, cb in enumerate(b):
            if cb:
                cb *= cnum
                acc[j : j + width] = map(add, acc[j : j + width], map(cb.__mul__, a))
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
        # A constant hashes like the number it equals, any other polynomial
        # like self.coeffs; an integral Fraction hashes like its int.
        if len(self.nums) <= 1:
            return hash(self.constant())
        if self.den == 1:
            return hash(self.nums)
        return hash(self.coeffs)

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
        # The leading product is nonzero, so only the gcd can change the form.
        if len(b) == 1:
            return _canonical(list(map(b[0].__mul__, a)), den * other.den)
        out = [0] * (len(a) + len(b) - 1)
        width = len(a)
        for j, cb in enumerate(b):
            if cb:
                out[j : j + width] = map(add, out[j : j + width], map(cb.__mul__, a))
        return _canonical(out, den * other.den)

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
        """Substitute ``l -> factor*l`` (used for the l/m and m*l/(m+1) rescalings)."""
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
        parts: list[str] = []
        for d, n in enumerate(nums):
            if not n:
                continue
            mag = abs(n)
            # The text of |n|/den in lowest terms, as str(Fraction) prints it.
            if den == 1:
                text = str(mag)
            else:
                g = gcd(mag, den)
                text = str(mag // g) if g == den else f"{mag // g}/{den // g}"
            if d == 0:
                body = text
            elif text == "1":
                body = "l" if d == 1 else f"l^{d}"
            else:
                body = f"{text}*l" if d == 1 else f"{text}*l^{d}"
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
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
                raise ValueError(f"malformed polynomial term: {chunk!r}")
            sign = -1 if match.group("sign") == "-" else 1
            try:
                if match.group("bare"):
                    coef = Fraction(1)
                    deg = int(match.group("bdeg") or 1)
                else:
                    coef = Fraction(match.group("coef"))
                    deg = int(match.group("deg") or 1) if "*l" in chunk else 0
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in term: {chunk!r}")
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
