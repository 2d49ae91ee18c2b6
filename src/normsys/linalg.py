"""Exact linear algebra over an ordered field.

Matrices are immutable tuples of tuples of field values.  Determinants use
fraction-free (Bareiss) elimination; every pivot decision is an exact
nonzero test, there are no thresholds anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .field import FieldValue, sign
from .frozen import Frozen


class Matrix(Frozen):
    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[FieldValue]]):
        rows = tuple(
            tuple(Fraction(x) if isinstance(x, int) else x for x in r) for r in rows
        )
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", len(rows[0]) if rows else 0)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

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

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
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


def det(m: Matrix) -> FieldValue:
    """Exact determinant by Bareiss elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    a = [list(r) for r in m.rows]
    sgn = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if sign(a[k][k]) == 0:
            for i in range(k + 1, n):
                if sign(a[i][k]) != 0:
                    a[k], a[i] = a[i], a[k]
                    sgn = -sgn
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return -result if sgn < 0 else result


def rank(m: Matrix) -> int:
    a = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if sign(a[i][c]) != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        for i in range(r + 1, nr):
            if sign(a[i][c]) != 0:
                f = a[i][c] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return r


def solve(a: Matrix, b: Sequence[FieldValue]) -> tuple:
    """Unique solution of a square nonsingular system, by exact elimination."""
    if a.nrows != a.ncols:
        raise ValueError("matrix must be square")
    n = a.nrows
    if len(b) != n:
        raise ValueError("shape mismatch")
    aug = [list(r) + [b[i]] for i, r in enumerate(a.rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if sign(aug[i][c]) != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and sign(aug[i][c]) != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return tuple(aug[i][n] for i in range(n))


def inverse(a: Matrix) -> Matrix:
    if a.nrows != a.ncols:
        raise ValueError("matrix must be square")
    n = a.nrows
    cols = [
        solve(a, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)
    ]
    return Matrix(cols).transpose()


def kernel_basis(m: Matrix) -> list:
    """Basis of the right kernel, one vector per free column.

    Deterministic: reduced row echelon form with leftmost pivots, basis
    vectors ordered by ascending free-column index.
    """
    a = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if sign(a[i][c]) != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(nr):
            if i != r and sign(a[i][c]) != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for row_i, pc in enumerate(pivots):
            v[pc] = -a[row_i][fc]
        basis.append(tuple(v))
    return basis


class ProjectorPair(Frozen):
    """Orthogonal projections onto a row span and its complement."""

    __slots__ = ("p", "q")

    def __init__(self, p: Matrix, q: Matrix):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def projectors(span_rows: Matrix) -> ProjectorPair:
    """P = T^t (T T^t)^{-1} T for independent rows T, and Q = I - P."""
    t = span_rows
    if rank(t) != t.nrows:
        raise ValueError("rows are linearly dependent")
    gram = t * t.transpose()
    p = t.transpose() * inverse(gram) * t
    q = Matrix.identity(t.ncols) - p
    return ProjectorPair(p, q)
