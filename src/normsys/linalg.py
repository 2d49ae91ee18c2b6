"""Exact linear algebra over an ordered field.

Matrices are immutable tuples of tuples of field values.  ``det``,
``rank``, ``solve`` and ``kernel_basis`` all read one Gauss-Jordan
reduction with leftmost pivots; every pivot decision is an exact nonzero
test, there are no thresholds anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .field import FieldValue, exact, sign
from .frozen import Frozen


class Matrix(Frozen):
    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[FieldValue]]):
        rows = tuple(map(exact, rows))
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        self._set(rows, len(rows), len(rows[0]) if rows else 0)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.rows]!r})"

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows))) if self.rows else Matrix([])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().rows
        return Matrix(
            [[_dot(r, c) for c in cols] for r in self.rows]
        )

    def apply(self, v: Sequence[FieldValue]) -> tuple:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(_dot(r, v) for r in self.rows)


def _dot(u, v):
    acc = None
    for a, b in zip(u, v):
        term = a * b
        acc = term if acc is None else acc + term
    return acc if acc is not None else Fraction(0)


def _reduce(rows, ncols: int):
    """Reduced row echelon form of the rows, eliminating in the first
    ``ncols`` columns (later columns ride along as an augmented part).

    Leftmost pivots: for each column in turn, the first remaining row with a
    nonzero entry there is swapped up, divided by that entry and cleared from
    every other row.  Returns the reduced rows, the pivot columns and the
    product of the pivots, negated once per row swap, which is the
    determinant of a square matrix of full rank.
    """
    a = [list(r) for r in rows]
    pivots = []
    scale = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if sign(a[i][c]) != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            scale = -scale
        pv = a[r][c]
        scale = scale * pv
        a[r] = [x / pv for x in a[r]]
        for i in range(len(a)):
            if i != r and sign(a[i][c]) != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots, scale


def det(m: Matrix) -> FieldValue:
    """Exact determinant: the signed product of the pivots, 0 if one is missing."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, scale = _reduce(m.rows, m.ncols)
    return scale if len(pivots) == m.nrows else Fraction(0)


def rank(m: Matrix) -> int:
    return len(_reduce(m.rows, m.ncols)[1])


def solve(a: Matrix, b: Sequence[FieldValue]) -> tuple:
    """Unique solution of a square nonsingular system."""
    if a.nrows != a.ncols:
        raise ValueError("matrix must be square")
    n = a.nrows
    if len(b) != n:
        raise ValueError("shape mismatch")
    reduced, pivots, _ = _reduce([list(r) + [b[i]] for i, r in enumerate(a.rows)], n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return tuple(row[n] for row in reduced)


def kernel_basis(m: Matrix) -> list:
    """Basis of the right kernel, one vector per free column, ordered by
    ascending free-column index."""
    reduced, pivots, _ = _reduce(m.rows, m.ncols)
    basis = []
    for fc in range(m.ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * m.ncols
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis
