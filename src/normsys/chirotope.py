"""The chirotope χ of labelled vectors in F^r: the sign of the determinant
of every r of them, in a given order (Björner, Las Vergnas, Sturmfels,
White and Ziegler, *Oriented Matroids*, 1993, ch. 3).  Line cycles, the
isomorphism witness test, validity and concurrency sign maps are read off χ.

χ is computed once per sorted r-subset; a reordered subset is looked up by
the parity of its sort.  Rational vectors are scaled to integers, each by
the positive LCM of its denominators (no sign changes), and each minor is
an integer Bareiss determinant; quadratic-extension input uses
``linalg.det``.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm
from typing import Dict, Optional, Sequence, Tuple

from . import linalg
from .field import FieldValue, QuadExt, sign
from .frozen import Frozen
from .linalg import Matrix


def _integer_vector(v: Sequence[FieldValue]) -> list:
    scale = lcm(*(x.denominator for x in v))
    return [x.numerator * (scale // x.denominator) for x in v]


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination;
    every division is exact."""
    a = [list(r) for r in rows]
    n = len(a)
    sgn, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sgn = -sgn
                    break
            else:
                return 0
        rk, akk = a[k], a[k][k]
        for i in range(k + 1, n):
            ri, aik = a[i], a[i][k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * rk[j]) // prev
        prev = akk
    return sgn * a[n - 1][n - 1]


def _odd(seq: Sequence[int]) -> bool:
    """True iff sorting seq takes an odd number of transpositions."""
    return sum(a > b for a, b in combinations(seq, 2)) % 2 == 1


class Chirotope(Frozen):
    """Signs of the maximal minors of labelled vectors in F^rank.

    ``signs`` maps every sorted rank-subset of the labels to the sign of
    its determinant; calling the chirotope on any sequence of distinct
    labels gives the sign for the rows in that order.
    """

    __slots__ = ("rank", "labels", "signs")

    def __init__(self, rank: int, vectors: Dict[int, Sequence[FieldValue]]):
        labels = tuple(sorted(vectors))
        signs: Dict[Tuple[int, ...], int] = {}
        if any(isinstance(x, QuadExt) for v in vectors.values() for x in v):
            for base in combinations(labels, rank):
                signs[base] = sign(linalg.det(Matrix([vectors[i] for i in base])))
        else:
            ints = {i: _integer_vector(v) for i, v in vectors.items()}
            for base in combinations(labels, rank):
                d = integer_det([ints[i] for i in base])
                signs[base] = (d > 0) - (d < 0)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "signs", signs)

    def __call__(self, seq: Sequence[int]) -> int:
        s = self.signs[tuple(sorted(seq))]
        return -s if _odd(seq) else s

    def zero(self) -> Optional[Tuple[int, ...]]:
        """The first sorted subset whose vectors are dependent, or None."""
        return next((base for base, s in self.signs.items() if s == 0), None)

    def pullback(self, w, base: Sequence[int]) -> int:
        """Sign of the determinant with rows mu(i) * v_pi(i), i in base in
        the given order, for a signed bijection w = (pi, mu) into these
        labels."""
        s = self([w.perm[i] for i in base])
        return -s if sum(w.signs[i] < 0 for i in base) % 2 else s


def pullback_sign(chi1: Chirotope, chi2: Chirotope, w) -> int:
    """+1 if the signed bijection w pulls chi2 back to chi1, -1 if to
    -chi1, 0 if to neither.

    For uniform chirotopes (no zero entry) a nonzero result is equivalent
    to w preserving positive combinations in both directions: the
    coefficient signs of v_u over a base B are ratios chi(B with u in one
    slot) / chi(B), and the bases of a uniform matroid are connected by
    single exchanges, so preserving every ratio fixes chi up to one global
    sign.
    """
    eps = 0
    for base, s1 in chi1.signs.items():
        s2 = chi2.pullback(w, base)
        eps = eps or s1 * s2
        if s2 != (eps or 1) * s1:
            return 0
    return eps or 1
