"""Exact scalars of an ordered field.

Two kinds of value are supported: arbitrary-precision rationals
(``fractions.Fraction``) and elements a + b*sqrt(d) of a single quadratic
extension of the rationals.  Every computation works over one field at a
time; quadratic-extension values with different radicands never mix.

The sign of a + b*sqrt(d) is decided exactly from the signs of a and b
and, when they differ, a comparison of a^2 with b^2 d, so no numeric
square roots are ever taken.

A stored row of values (a vector, a point, a hyperplane's coefficients)
is a tuple built by ``exact``, ints made Fractions; ``format_row`` writes
one as text and ``parse_rows`` reads the rows of a JSON object back.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import isqrt
from typing import Union

from .frozen import Frozen

# trial division takes sqrt(d)/2 steps: milliseconds below this bound
_MAX_RADICAND = 2**32


class FieldTagMismatch(TypeError):
    """Raised when values from different field contexts are combined."""


def _is_square_free(d: int) -> bool:
    """Trial division of d >= 1 by p^2 for p = 2 and every odd p <= sqrt(d)."""
    return all(d % (p * p) for p in chain((2,), range(3, isqrt(d) + 1, 2)))


class QuadExt(Frozen):
    """a + b*sqrt(d), rational a, b, square-free d > 1; results are built by _of."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        d = int(d)
        if d >= _MAX_RADICAND:
            raise ValueError(f"radicand must be below 2**32, got {d}")
        if d <= 1 or not _is_square_free(d):
            raise ValueError(f"radicand must be a square-free integer > 1, got {d}")
        self._set(Fraction(a), Fraction(b), d)

    def _coerce(self, other) -> "QuadExt":
        """other as a value of this field; the arithmetic reads its operands
        through this one rule, and raises TypeError on a foreign one."""
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise FieldTagMismatch(
                    f"cannot mix sqrt({self.d}) and sqrt({other.d}) values"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt._of(Fraction(other), Fraction(0), self.d)
        raise TypeError(f"not a field value: {other!r}")

    def __add__(self, other):
        o = self._coerce(other)
        return QuadExt._of(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._of(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        return QuadExt._of(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadExt._of(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # (a + b√d)(a − b√d) = a² − b²d, nonzero when the value is nonzero
        # because d is not a rational square.
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return QuadExt._of(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __lt__(self, other):
        return cmp_values(self, other) < 0

    def __le__(self, other):
        return cmp_values(self, other) <= 0

    def __gt__(self, other):
        return cmp_values(self, other) > 0

    def __ge__(self, other):
        return cmp_values(self, other) >= 0

    def __abs__(self):
        return -self if sign(self) < 0 else self

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        return format_value(self)


FieldValue = Union[Fraction, int, QuadExt]


def sign(x: FieldValue) -> int:
    """Exact sign in {-1, 0, +1}."""
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    if not isinstance(x, QuadExt):
        raise TypeError(f"not a field value: {x!r}")
    return quad_sign(x.a, x.b, x.d)


def quad_sign(a, b, d: int) -> int:
    """Exact sign of a + b*sqrt(d), for rational or integer a and b."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    # opposite signs: the larger of a^2 and b^2 d decides; they differ, as d
    # is not a rational square
    return sa if a * a > b * b * d else sb


def cmp_values(x: FieldValue, y: FieldValue) -> int:
    """sign(x - y): -1, 0 or +1."""
    return sign(x - y)


_QUAD_RE = re.compile(
    r"^\s*(?P<a>[+-]?\d+(?:/\d+)?)?\s*"
    r"(?P<bterm>(?P<b>[+-]?\d+(?:/\d+)?)\s*\*\s*sqrt\(\s*(?P<d>\d+)\s*\))?\s*$"
)


def parse_value(text: str) -> FieldValue:
    """Parse "p/q", "p", or "p/q+r/s*sqrt(d)" exactly."""
    text = text.strip()
    try:
        if "sqrt" not in text:
            if "e" in text or "E" in text:  # Fraction builds 10**exponent whole
                raise ValueError(f"malformed field value: {text!r}")
            return Fraction(text)
        m = _QUAD_RE.match(text)
        if not m or not m.group("bterm"):
            raise ValueError(f"malformed field value: {text!r}")
        a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
        b = Fraction(m.group("b"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in field value: {text!r}") from None
    return QuadExt(a, b, int(m.group("d")))


def format_value(x: FieldValue) -> str:
    """Canonical text form; parse_value(format_value(x)) == x."""
    if isinstance(x, QuadExt):
        b = str(x.b) if x.b < 0 else f"+{x.b}"
        return f"{x.a}{b}*sqrt({x.d})"
    return str(Fraction(x))


def format_row(values) -> list:
    """The canonical text of each value, as ``parse_rows`` reads it back."""
    return [format_value(x) for x in values]


def exact(values) -> tuple:
    """The values as a tuple, each int made a Fraction; the value types
    store their rows this way."""
    return tuple([Fraction(x) if isinstance(x, int) else x for x in values])


def _scalars(values) -> list:
    if not isinstance(values, list) or not all(isinstance(s, str) for s in values):
        raise ValueError("expected lists of scalar strings")
    return [parse_value(s) for s in values]


def parse_rows(data, dim_key: str, rows_key: str, constants_key=None) -> tuple:
    """(dimension, rows, constants) of a JSON object: data[dim_key] an
    integer, data[rows_key] a list of lists of scalar strings and, with a
    constants_key, data[constants_key] one list of them (else constants is
    []), all of one field.  Any other shape, a malformed scalar or two
    radicands raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    dim, rows = data.get(dim_key), data.get(rows_key)
    if type(dim) is not int or not isinstance(rows, list):
        raise ValueError("expected an integer dimension and a list of rows")
    rows = [_scalars(r) for r in rows]
    constants = _scalars(data.get(constants_key)) if constants_key else []
    if len({x.d for r in rows + [constants] for x in r if isinstance(x, QuadExt)}) > 1:
        raise ValueError("values from more than one quadratic field")
    return dim, rows, constants
