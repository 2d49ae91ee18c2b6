"""Line-cycle invariants of antipodal arrangements.

On a 2-sphere arrangement, the lines through the other antipodal pairs have
an exact cyclic order around each point.  For higher spheres the full
invariant is the family of those cycles over all projections along
(k-2)-subsets.  All angular comparisons are determinant signs; there is no
trigonometry.  ``line_cycle`` reads one cycle off explicit plane
coordinates; ``all_cycle_invariants`` reads the whole family off the
chirotope, without projecting: each cycle is the cyclic order of lines of
a rank-2 contraction (``contraction_order``), which the isomorphism search
also aligns directly.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import Dict, Sequence, Tuple

from .chirotope import Chirotope
from .field import sign
from .frozen import Frozen
from .sphere import (
    AntipodalArrangement,
    _frame_coordinates,
    oriented_complement_frame,
)


class LineCycle(Frozen):
    """A cyclic permutation on a set of labels, in canonical rotation."""

    __slots__ = ("labels",)

    def __init__(self, labels: Sequence[int]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("repeated label in cycle")
        if labels:
            start = labels.index(min(labels))
            labels = labels[start:] + labels[:start]
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return isinstance(other, LineCycle) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def inverse(self) -> "LineCycle":
        return LineCycle(tuple(reversed(self.labels)))

    def conjugate(self, perm: Dict[int, int]) -> "LineCycle":
        """Relabel through perm: the cycle (a b c ...) maps to
        (perm[a] perm[b] perm[c] ...)."""
        missing = [a for a in self.labels if a not in perm]
        if missing:
            raise KeyError(f"permutation does not cover labels {missing}")
        return LineCycle(tuple(perm[a] for a in self.labels))

    def __repr__(self):
        return f"LineCycle({list(self.labels)})"

    def __str__(self):
        return "(" + " ".join(str(a) for a in self.labels) + ")"


def _fold_upper(u):
    """Fold a plane direction into the closed upper half-plane
    (second coordinate > 0, or = 0 with first coordinate > 0)."""
    s = sign(u[1])
    if s < 0 or (s == 0 and sign(u[0]) < 0):
        return (-u[0], -u[1])
    return u


def _angle_cmp(u, w) -> int:
    """Compare counterclockwise angles in [0, pi) of two folded directions."""
    d = u[0] * w[1] - u[1] * w[0]
    return -sign(d)  # positive cross product means u comes first (smaller angle)


def line_cycle(arr: AntipodalArrangement, label: int, positive: bool = True) -> LineCycle:
    """Clockwise cyclic order of the other lines around +/-P_label.

    The plane orthogonal to the point carries the orientation for which the
    point's direction completes the frame positively (thumb rule); clockwise
    then reads as descending counterclockwise angle.
    """
    if arr.dim_k != 2:
        raise ValueError("line cycles are defined on the 2-sphere")
    if arr.n < 4:
        raise ValueError("need at least four antipodal pairs")
    if label not in arr.points:
        raise KeyError(f"label {label} not in arrangement")
    center = arr.points[label] if positive else arr.points[label].antipode()
    frame = oriented_complement_frame([center.rep])
    folded = []
    for j, p in arr.points.items():
        if j == label:
            continue
        u = _frame_coordinates(frame, p.rep)
        folded.append((j, _fold_upper(u)))
    folded.sort(key=functools.cmp_to_key(lambda a, b: _angle_cmp(a[1], b[1])))
    # ascending fold angle reads clockwise as seen from the point; the
    # convention is calibrated against the standard four-pair dictionary
    return LineCycle(tuple(j for j, _ in folded))


CycleKey = Tuple[Tuple[int, ...], int, int]  # (sorted projection subset, label, +-1)


class CycleInvariantSet(Frozen):
    """Complete family of line cycles keyed by (subset A, label j, sign)."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: Dict[CycleKey, LineCycle]):
        object.__setattr__(self, "cycles", dict(sorted(cycles.items())))

    def __getitem__(self, key: CycleKey) -> LineCycle:
        return self.cycles[key]

    def __len__(self):
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles.items())

    def __eq__(self, other):
        return isinstance(other, CycleInvariantSet) and self.cycles == other.cycles

    def to_json_dict(self) -> dict:
        out = {}
        for (subset, j, s), cyc in self.cycles.items():
            key = f"A={','.join(map(str, subset))};j={j};s={'+' if s > 0 else '-'}"
            out[key] = list(cyc.labels)
        return out


def all_cycle_invariants(arr: AntipodalArrangement) -> CycleInvariantSet:
    """Cycles of every projection along a (k-2)-subset, both signs."""
    k = arr.dim_k
    if k < 2:
        raise ValueError("cycle invariants need sphere dimension >= 2")
    if arr.n < k + 2:
        raise ValueError(f"need at least {k + 2} antipodal pairs")
    return chirotope_cycles(arr.chirotope)


def contraction_order(chi: Chirotope, head: Sequence[int]) -> Tuple[int, ...]:
    """Cyclic order of the lines of the rank-2 contraction chi/head.

    The other labels q, r have orientation sign chi(head, q, r).  Folding
    every line into the half-plane that starts at the first other label q0
    and sorting by angle gives the order, starting at an arbitrary line.
    The head may be empty, for a chirotope of rank 2.
    """
    head = tuple(head)
    q0, *others = [q for q in chi.labels if q not in head]
    fold = {q0: 1}
    for r in others:
        fold[r] = chi(head + (q0, r))
    return tuple(
        sorted(
            fold,
            key=functools.cmp_to_key(
                lambda q, r: -fold[q] * fold[r] * chi(head + (q, r))
            ),
        )
    )


def chirotope_cycles(chi: Chirotope) -> CycleInvariantSet:
    """The cycle family of a uniform chirotope of rank k + 1 >= 3.

    Projected along a sorted subset A and seen from P_j, the cycle is the
    contraction order of chi by (A, j); the cycle at -P_j is its inverse.
    """
    bad = chi.zero()
    if bad is not None:
        raise ValueError(f"dependent subset {bad}: not in general position")
    cycles: Dict[CycleKey, LineCycle] = {}
    for subset in combinations(chi.labels, chi.rank - 3):
        for j in chi.labels:
            if j in subset:
                continue
            cyc = LineCycle(contraction_order(chi, subset + (j,)))
            cycles[(subset, j, +1)] = cyc
            cycles[(subset, j, -1)] = cyc.inverse()
    return CycleInvariantSet(cycles)
