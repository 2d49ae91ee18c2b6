"""Formal symbols on four antipodal pairs and the symmetric-group action.

A symbol "p -> (q, r, s)" records that point p is a positive combination of
the ordered triple (q, r, s), with the triple clockwise (negatively)
oriented.  Signed labels live in {+-1, ..., +-4}; the four underlying lines
are pairwise distinct.  The symmetric group on four letters acts freely on
the 384 formal symbols through four generator rules.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Dict, Iterable, List, Sequence, Tuple

from . import linalg
from .chirotope import pullback_sign
from .field import sign
from .frozen import Frozen
from .linalg import Matrix
from .sphere import AntipodalArrangement, positive_combination


class Symbol(Frozen):
    __slots__ = ("head", "triple")

    def __init__(self, head: int, triple: Sequence[int]):
        triple = tuple(triple)
        if len(triple) != 3:
            raise ValueError("triple must have three entries")
        lines = {abs(head)} | {abs(t) for t in triple}
        if 0 in lines or len(lines) != 4:
            raise ValueError(f"symbol needs four distinct lines: {head}->{triple}")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "triple", triple)

    def __eq__(self, other):
        return (
            isinstance(other, Symbol)
            and self.head == other.head
            and self.triple == other.triple
        )

    def __hash__(self):
        return hash((self.head, self.triple))

    def __lt__(self, other):
        return (self.head, self.triple) < (other.head, other.triple)

    def __repr__(self):
        return f"Symbol({self.head}, {self.triple})"

    def __str__(self):
        q, r, s = self.triple
        return f"{self.head}->({q},{r},{s})"

    @classmethod
    def parse(cls, text: str) -> "Symbol":
        head_s, _, rest = text.partition("->")
        rest = rest.strip()
        if not (rest.startswith("(") and rest.endswith(")")):
            raise ValueError(f"malformed symbol: {text!r}")
        triple = tuple(int(t) for t in rest[1:-1].split(","))
        return cls(int(head_s), triple)


GENERATORS = ("12", "23", "34", "14")


def act(generator: str, s: Symbol) -> Symbol:
    """Apply one adjacent-swap generator to a symbol."""
    p, (q, r, t) = s.head, s.triple
    if generator == "12":
        return Symbol(-p, (-r, -q, -t))
    if generator == "23":
        return Symbol(r, (-q, p, -t))
    if generator == "34":
        return Symbol(t, (-q, -r, p))
    if generator == "14":
        return Symbol(-p, (-t, -r, -q))
    raise ValueError(f"unknown generator {generator!r}")


def act_word(word: Iterable[str], s: Symbol) -> Symbol:
    """Apply a word of generators, leftmost letter last (g1*g2 acts as g1(g2(s)))."""
    for g in reversed(list(word)):
        s = act(g, s)
    return s


def orbit(s: Symbol) -> frozenset:
    seen = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in GENERATORS:
                img = act(g, cur)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return frozenset(seen)


def all_symbols() -> List[Symbol]:
    """All 384 formal symbols on lines {1, 2, 3, 4}."""
    out = []
    for head_line in (1, 2, 3, 4):
        rest = [l for l in (1, 2, 3, 4) if l != head_line]
        for head_sign in (1, -1):
            for order in permutations(rest):
                for signs in product((1, -1), repeat=3):
                    out.append(
                        Symbol(
                            head_sign * head_line,
                            tuple(s * l for s, l in zip(signs, order)),
                        )
                    )
    return out


def all_orbits() -> List[frozenset]:
    remaining = set(all_symbols())
    orbits = []
    while remaining:
        o = orbit(min(remaining))
        orbits.append(o)
        remaining -= o
    return orbits


def _signed_point(arr: AntipodalArrangement, label: int):
    p = arr.points[abs(label)]
    return p if label > 0 else p.antipode()


def triple_determinant_sign(arr: AntipodalArrangement, triple: Sequence[int]) -> int:
    m = Matrix([_signed_point(arr, t).rep for t in triple])
    return sign(linalg.det(m))


def is_compatible(arr: AntipodalArrangement, s: Symbol) -> bool:
    """Head is a positive combination of the triple and the instantiated
    triple is negatively oriented."""
    basis = [_signed_point(arr, t) for t in s.triple]
    comb = positive_combination(_signed_point(arr, s.head), basis)
    if not comb.all_positive:
        return False
    return triple_determinant_sign(arr, s.triple) < 0


def compatible_symbols(arr: AntipodalArrangement) -> frozenset:
    """The 24 compatible symbols of a four-pair arrangement on the 2-sphere.

    By Cramer's rule a symbol is compatible iff its triple and the three
    triples with one slot replaced by the head have negative determinants:
    chi of the four points, negated once per antipodal label."""
    if arr.dim_k != 2 or arr.n != 4 or arr.labels != (1, 2, 3, 4):
        raise ValueError("expected a four-pair 2-sphere arrangement labeled 1..4")
    chi = arr.chirotope

    def negative(seq) -> bool:
        return chi([abs(t) for t in seq]) * (-1) ** sum(t < 0 for t in seq) < 0

    return frozenset(
        s
        for s in all_symbols()
        if negative(s.triple)
        and all(negative(s.triple[:j] + (s.head,) + s.triple[j + 1 :]) for j in range(3))
    )


class SignedBijection(Frozen):
    """delta(P_i) = mu(i) * P'_{pi(i)} on an arbitrary label set."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm: Dict[int, int], signs: Dict[int, int]):
        if set(perm) != set(signs):
            raise ValueError("permutation and sign vector must share labels")
        if set(perm.values()) != set(perm):
            raise ValueError("not a permutation of the label set")
        if any(s not in (1, -1) for s in signs.values()):
            raise ValueError("signs must be +-1")
        object.__setattr__(self, "perm", dict(sorted(perm.items())))
        object.__setattr__(self, "signs", dict(sorted(signs.items())))

    @property
    def labels(self) -> Tuple[int, ...]:
        return tuple(self.perm)

    def key(self) -> tuple:
        return (
            tuple(self.perm[i] for i in self.labels),
            tuple(self.signs[i] for i in self.labels),
        )

    def __eq__(self, other):
        return (
            isinstance(other, SignedBijection)
            and self.perm == other.perm
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash(self.key())

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        return f"SignedBijection({self.perm}, {self.signs})"

    def negate(self) -> "SignedBijection":
        return SignedBijection(self.perm, {i: -s for i, s in self.signs.items()})

    def compose(self, first: "SignedBijection") -> "SignedBijection":
        """self after first."""
        perm = {i: self.perm[first.perm[i]] for i in first.labels}
        signs = {i: first.signs[i] * self.signs[first.perm[i]] for i in first.labels}
        return SignedBijection(perm, signs)

    @classmethod
    def identity(cls, labels: Iterable[int]) -> "SignedBijection":
        labels = list(labels)
        return cls({i: i for i in labels}, {i: 1 for i in labels})


def all_signed_bijections(labels: Sequence[int]) -> List[SignedBijection]:
    labels = list(labels)
    out = []
    for images in permutations(labels):
        perm = dict(zip(labels, images))
        for sv in product((1, -1), repeat=len(labels)):
            out.append(SignedBijection(perm, dict(zip(labels, sv))))
    return out


STANDARD_DICTIONARY: Dict[Tuple[int, int], Tuple[int, ...]] = {
    (4, +1): (2, 1, 3), (4, -1): (2, 3, 1),
    (3, +1): (1, 4, 2), (3, -1): (1, 2, 4),
    (2, +1): (3, 4, 1), (2, -1): (3, 1, 4),
    (1, +1): (2, 4, 3), (1, -1): (2, 3, 4),
}


def standard_arrangement() -> AntipodalArrangement:
    """Coordinate axes plus the all-ones interior point."""
    return AntipodalArrangement.from_vectors(
        2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    )


def match_to_standard(cycle_map) -> List[SignedBijection]:
    """All signed bijections aligning a four-pair arrangement's line cycles
    with the standard dictionary.

    ``cycle_map`` maps (label, +-1) to a LineCycle on labels {1..4}.  Each
    match stands for a pair {w, w.negate()} of equivalent alignments; the
    returned list contains one representative per pair.
    """
    from .cycles import LineCycle

    std = {k: LineCycle(v) for k, v in STANDARD_DICTIONARY.items()}
    matches = []
    for cand in all_signed_bijections([1, 2, 3, 4]):
        ok = True
        for j in (1, 2, 3, 4):
            target = std[(cand.perm[j], cand.signs[j])]
            if cycle_map[(j, +1)].conjugate(cand.perm) != target:
                ok = False
                break
        if ok:
            matches.append(cand)
    if not matches:
        raise ValueError("cycles do not match any relabeling of the dictionary")
    return sorted(matches)


def automorphisms(arr: AntipodalArrangement) -> List[SignedBijection]:
    """All convex positive bijections of a four-pair arrangement to itself."""
    chi = arr.chirotope
    return sorted(
        w for w in all_signed_bijections(arr.labels) if pullback_sign(chi, chi, w)
    )
