"""Points on the k-sphere over an ordered field and antipodal arrangements.

A sphere point is a nonzero vector up to positive rescaling.  An antipodal
arrangement is an indexed family of such points (one representative per
antipodal pair) in general position: every (k+1)-subset is linearly
independent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, Optional, Sequence, Tuple

from . import linalg
from .chirotope import Chirotope
from .field import FieldValue, parse_value, format_value, sign
from .frozen import Frozen
from .linalg import Matrix


class SpherePoint(Frozen):
    """Positive-scalar class of a nonzero vector, stored canonically.

    Canonical form: the first nonzero coordinate has absolute value 1 with
    its sign preserved, so equality and antipode tests are coordinatewise.
    """

    __slots__ = ("rep",)

    def __init__(self, vector: Sequence[FieldValue]):
        v = tuple(Fraction(x) if isinstance(x, int) else x for x in vector)
        lead = next((x for x in v if sign(x) != 0), None)
        if lead is None:
            raise ValueError("zero vector has no direction")
        scale = abs(lead)
        if scale != 1:
            v = tuple(x / scale for x in v)
        object.__setattr__(self, "rep", v)

    @property
    def dim(self) -> int:
        return len(self.rep) - 1

    def antipode(self) -> "SpherePoint":
        return SpherePoint(tuple(-x for x in self.rep))

    def __eq__(self, other):
        return isinstance(other, SpherePoint) and self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __neg__(self):
        return self.antipode()

    def __repr__(self):
        return f"SpherePoint({[format_value(x) for x in self.rep]})"


class PositiveCombination(Frozen):
    """Exact coefficients of a target over an independent basis."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[FieldValue]):
        object.__setattr__(self, "coefficients", tuple(coefficients))

    @property
    def signs(self) -> Tuple[int, ...]:
        return tuple(sign(c) for c in self.coefficients)

    @property
    def all_positive(self) -> bool:
        return all(s > 0 for s in self.signs)


def positive_combination(
    target: SpherePoint, basis: Sequence[SpherePoint]
) -> PositiveCombination:
    """Coefficients of target's representative over the basis representatives.

    The coefficient signs do not depend on the representative choices.
    """
    a = Matrix([p.rep for p in basis]).transpose()
    if a.nrows != a.ncols:
        raise ValueError("basis size must equal ambient dimension")
    coeffs = linalg.solve(a, target.rep)
    return PositiveCombination(coeffs)


class ArrangementError(ValueError):
    pass


class AntipodalArrangement(Frozen):
    """Indexed antipodal pairs on the k-sphere, in general position.

    ``chirotope``, of the point representatives, is built once at
    construction; general position, cycles and symbols read it.
    """

    __slots__ = ("dim_k", "points", "chirotope")

    def __init__(self, dim_k: int, points: Dict[int, SpherePoint], check: bool = True):
        pts = dict(sorted(points.items()))
        for label, p in pts.items():
            if p.dim != dim_k:
                raise ArrangementError(
                    f"point {label} lives on a {p.dim}-sphere, expected {dim_k}"
                )
        if not pts:  # then some point fixes dim_k >= 0, and chi has rank >= 1
            raise ValueError("empty point list")
        self._set(dim_k, pts, Chirotope(dim_k + 1, {i: p.rep for i, p in pts.items()}))
        if check:
            ok, bad = self.general_position()
            if not ok:
                raise ArrangementError(f"degenerate subset {bad}")

    @classmethod
    def from_vectors(
        cls, dim_k: int, vectors: Sequence[Sequence[FieldValue]], check: bool = True
    ) -> "AntipodalArrangement":
        pts = {i + 1: SpherePoint(v) for i, v in enumerate(vectors)}
        return cls(dim_k, pts, check=check)

    @property
    def labels(self) -> Tuple[int, ...]:
        return tuple(self.points)

    @property
    def n(self) -> int:
        return len(self.points)

    def general_position(self) -> Tuple[bool, Optional[Tuple[int, ...]]]:
        """Check every min(k+1, n)-subset for independence.

        Returns (True, None) or (False, first violating label subset).
        Equal or antipodal pairs come first, as dependent 2-subsets; then
        the first sorted (k+1)-subset on which the chirotope is zero, or
        all labels when n < k+1 and they do not have full rank.
        """
        if not self.points:
            raise ValueError("empty point list")
        pts = self.points
        for a, b in combinations(self.labels, 2):
            if pts[a] == pts[b] or pts[a] == -pts[b]:
                return False, (a, b)
        if self.n < self.dim_k + 1:
            if linalg.rank(Matrix([p.rep for p in pts.values()])) < self.n:
                return False, self.labels
            return True, None
        bad = self.chirotope.zero()
        return bad is None, bad

    def relabel(self, mapping: Dict[int, int]) -> "AntipodalArrangement":
        pts = {mapping[i]: p for i, p in self.points.items()}
        return AntipodalArrangement(self.dim_k, pts, check=False)

    def flip_all(self) -> "AntipodalArrangement":
        return AntipodalArrangement(
            self.dim_k,
            {i: p.antipode() for i, p in self.points.items()},
            check=False,
        )

    def to_json_dict(self) -> dict:
        return {
            "k": self.dim_k,
            "points": [
                [format_value(x) for x in self.points[i].rep] for i in self.labels
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AntipodalArrangement":
        vectors = [[parse_value(s) for s in row] for row in data["points"]]
        return cls.from_vectors(int(data["k"]), vectors)


def oriented_complement_frame(span_reps: Sequence[Sequence[FieldValue]]) -> list:
    """Exact basis of the orthogonal complement of the span, with a fixed
    orientation: the determinant of (span rows, then frame rows) is positive.

    The basis comes from pivot-ordered elimination, so it is reproducible.
    """
    t = Matrix(span_reps)
    frame = linalg.kernel_basis(t)
    if len(frame) + t.nrows != t.ncols:
        raise ValueError("span rows are dependent")
    full = Matrix(list(span_reps) + frame)
    d = linalg.det(full)
    if sign(d) == 0:
        raise ValueError("frame does not complete the span")
    if sign(d) < 0:
        frame[-1] = tuple(-x for x in frame[-1])
    return frame


def _frame_coordinates(frame: Sequence[Sequence[FieldValue]], vector) -> tuple:
    # Rows of the frame are orthogonal to the span, so the orthogonal
    # projection of v has frame coordinates (B B^t)^{-1} B v.
    b = Matrix(frame)
    gram = b * b.transpose()
    return linalg.solve(gram, b.apply(vector))


def project_arrangement(
    arr: AntipodalArrangement, along: Sequence[int]
) -> AntipodalArrangement:
    """Project the arrangement along the span of the given labels.

    The result lives on the (k - r)-sphere, expressed in the oriented
    complement frame; labels of the remaining points are preserved.
    """
    along = tuple(sorted(along))
    if not along:
        return arr
    r = len(along)
    if r > arr.dim_k - 2:
        raise ValueError(
            f"can project along at most {arr.dim_k - 2} pairs, got {r}"
        )
    for i in along:
        if i not in arr.points:
            raise KeyError(f"label {i} not in arrangement")
    span = [arr.points[i].rep for i in along]
    frame = oriented_complement_frame(span)
    projected = {}
    for i, p in arr.points.items():
        if i in along:
            continue
        coords = _frame_coordinates(frame, p.rep)
        projected[i] = SpherePoint(coords)
    out = AntipodalArrangement(arr.dim_k - r, projected, check=False)
    ok, bad = out.general_position()
    # General position of the source guarantees it for the projection.
    assert ok, f"projection lost general position at {bad}"
    return out
