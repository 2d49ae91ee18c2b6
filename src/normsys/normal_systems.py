"""Normal systems and the isomorphism decision.

A normal system is an indexed family of n nonzero vectors in F^m such that
every subset of size at most m is linearly independent.  Two systems are
isomorphic when a signed bijection of the vectors preserves positive
combinations in both directions.  The decision runs two ways: a brute-force
oracle over all signed bijections, and one search for every m that reads
candidate permutations off the cyclic orders of lines in the rank-2
contractions of the chirotope (the line cycles of the sphere arrangement),
solves the signs from the chirotope and verifies the result against it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Dict, List, Sequence, Tuple

from . import linalg
from .chirotope import Chirotope, pullback_sign
from .cycles import contraction_order
from .field import FieldValue, format_value, parse_value
from .frozen import Frozen
from .linalg import Matrix
from .sphere import AntipodalArrangement, SpherePoint
from .symbols import SignedBijection, all_signed_bijections


class NormalSystem(Frozen):
    """n indexed nonzero vectors in F^m, every <= m of them independent.

    ``chirotope`` is built once, at construction; validity, the deciders
    and the conversions read it.
    """

    __slots__ = ("m", "vectors", "chirotope")

    def __init__(self, m: int, vectors: Sequence[Sequence[FieldValue]], check: bool = True):
        vecs = tuple(
            tuple(Fraction(x) if isinstance(x, int) else x for x in v) for v in vectors
        )
        if m < 1:
            raise ValueError("ambient dimension must be >= 1")
        for i, v in enumerate(vecs):
            if len(v) != m:
                raise ValueError(f"vector {i + 1} has length {len(v)}, expected {m}")
        self._set(m, vecs, Chirotope(m, dict(enumerate(vecs, 1))))
        if check:
            self._checked()

    @property
    def n(self) -> int:
        return len(self.vectors)

    @property
    def labels(self) -> Tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def vector(self, label: int) -> tuple:
        return self.vectors[label - 1]

    def is_valid(self) -> bool:
        # with n >= m every smaller subset lies in an independent m-subset
        if self.n < self.m:
            return linalg.rank(Matrix(self.vectors)) == self.n
        return self.chirotope.zero() is None

    def _checked(self) -> "NormalSystem":
        if not self.is_valid():
            raise ValueError("not a normal system: dependent small subset")
        return self

    def to_arrangement(self) -> AntipodalArrangement:
        """The antipodal arrangement view on the (m-1)-sphere."""
        # positive rescaling to canonical points leaves chi unchanged
        points = {i: SpherePoint(v) for i, v in enumerate(self.vectors, 1)}
        return AntipodalArrangement._of(self.m - 1, points, self.chirotope)

    @classmethod
    def from_arrangement(cls, arr: AntipodalArrangement) -> "NormalSystem":
        if arr.labels != tuple(range(1, arr.n + 1)):
            raise ValueError("arrangement labels must be 1..n")
        reps = tuple(p.rep for p in arr.points.values())
        return cls._of(arr.dim_k + 1, reps, arr.chirotope)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "vectors": [[format_value(x) for x in v] for v in self.vectors],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "NormalSystem":
        vectors = [[parse_value(s) for s in row] for row in data["vectors"]]
        return cls(int(data["m"]), vectors)

    def __eq__(self, other):
        return (
            isinstance(other, NormalSystem)
            and self.m == other.m
            and self.vectors == other.vectors
        )

    def __repr__(self):
        return f"NormalSystem(m={self.m}, n={self.n})"


def is_convex_positive_bijection(
    w: SignedBijection, ns1: NormalSystem, ns2: NormalSystem
) -> bool:
    """True iff w preserves positive combinations in both directions."""
    if ns1.n != ns2.n or ns1.m != ns2.m:
        raise ValueError("systems must share n and m")
    if set(w.labels) != set(ns1.labels):
        raise ValueError("witness labels do not match the systems")
    return pullback_sign(ns1.chirotope, ns2.chirotope, w) != 0


def oracle_isomorphisms(
    ns1: NormalSystem, ns2: NormalSystem, max_n: int = 7
) -> List[SignedBijection]:
    """Ground truth by exhaustive search over all signed bijections."""
    if ns1.m != ns2.m:
        raise ValueError("ambient dimensions differ")
    if ns1.n != ns2.n:
        raise ValueError("system sizes differ")
    if ns1.n > max_n:
        raise ValueError(f"oracle limited to n <= {max_n}")
    chi1, chi2 = ns1.chirotope, ns2.chirotope
    out = [w for w in all_signed_bijections(ns1.labels) if pullback_sign(chi1, chi2, w)]
    return sorted(out)


def _neighbours(order: Sequence[int]) -> Dict[int, Tuple[int, int]]:
    """The two neighbours of each label in a cyclic order; they fix the
    order up to rotation and reversal."""
    before, after = order[-1:] + order[:-1], order[1:] + order[:1]
    return {q: (p, r) for p, q, r in zip(before, order, after)}


def _aligned(perm: Dict[int, int], order: Sequence[int], nbrs) -> bool:
    """True iff perm carries the cyclic order onto the one with neighbours
    nbrs, up to rotation and reversal."""
    return all(perm[b] in nbrs[perm[a]] for a, b in zip(order, order[1:] + order[:1]))


def _candidates(chi1: Chirotope, chi2: Chirotope):
    """Permutations that carry the contraction order of chi1 by every
    (m-2)-subset onto the order of chi2 by its image, up to rotation and
    reversal; every permutation when m = 1.

    They are read off the alignments of the order of chi1 by the first
    subset with the order of chi2 by each ordered image tuple, in both
    directions and at every rotation.
    """
    labels, m = chi1.labels, chi1.rank
    if m == 1:
        for images in permutations(labels):
            yield dict(zip(labels, images))
        return
    head, *others = combinations(labels, m - 2)
    orders1 = {h: contraction_order(chi1, h) for h in others}
    orders2 = {h: contraction_order(chi2, h) for h in [head, *others]}
    nbrs2 = {h: _neighbours(order) for h, order in orders2.items()}
    seed = contraction_order(chi1, head)
    for images in permutations(labels, m - 2):
        target = orders2[tuple(sorted(images))]
        for seq in (target, target[::-1]):
            for rot in range(len(seq)):
                perm = dict(zip(head, images))
                perm.update(zip(seed, seq[rot:] + seq[:rot]))
                if all(
                    _aligned(perm, orders1[h], nbrs2[tuple(sorted(perm[i] for i in h))])
                    for h in others
                ):
                    yield perm


def _solve_signs(
    chi1: Chirotope, chi2: Chirotope, perm: Dict[int, int]
) -> SignedBijection:
    """The sign vector mu with mu(b0) = +1 that makes (perm, mu) a witness,
    if any sign vector does.

    With B the first base and B' the base B with b replaced by u in its
    slot, a witness pulls chi2 back to eps * chi1 on both, so
    mu(u) / mu(b) = chi1(B') chi2(pi B') chi1(B) chi2(pi B).  Exchanges at
    b0 give mu outside B; exchanges with the first label u1 outside B give
    the rest of B.
    """
    labels, base = chi1.labels, chi1.labels[: chi1.rank]
    ref = chi1(base) * chi2([perm[i] for i in base])

    def ratio(b: int, u: int) -> int:
        swapped = [u if i == b else i for i in base]
        return chi1(swapped) * chi2([perm[i] for i in swapped]) * ref

    b0, outside = base[0], [u for u in labels if u not in base]
    mu = {u: ratio(b0, u) for u in outside}
    mu[b0] = 1
    for b in base[1:]:
        mu[b] = mu[outside[0]] * ratio(b, outside[0])
    return SignedBijection(perm, mu)


def find_isomorphisms(ns1: NormalSystem, ns2: NormalSystem) -> List[SignedBijection]:
    """All isomorphism witnesses, read off the two chirotopes.

    Candidate permutations align the contraction orders of chi by
    (m-2)-subsets (all permutations when m = 1), the signs are solved from
    chi by single exchanges, and a candidate is kept iff it pulls chi2
    back to +-chi1.  Validity of the inputs also comes from chi.  Returns
    the empty list exactly when the systems are not isomorphic.
    """
    if ns1.m != ns2.m:
        raise ValueError("ambient dimensions differ")
    if ns1.n != ns2.n:
        raise ValueError("system sizes differ")
    if not (ns1.is_valid() and ns2.is_valid()):
        raise ValueError("inputs must be valid normal systems")
    chi1, chi2 = ns1.chirotope, ns2.chirotope
    if ns1.n <= ns1.m:
        # no label lies outside a base, so every signed bijection works
        return sorted(all_signed_bijections(ns1.labels))
    found = set()
    for perm in _candidates(chi1, chi2):
        w = _solve_signs(chi1, chi2, perm)
        # negating mu scales the pulled-back chirotope by (-1)^m, so w and
        # w.negate() pass or fail together
        if pullback_sign(chi1, chi2, w):
            found.update((w, w.negate()))
    return sorted(found)
