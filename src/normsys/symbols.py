"""Formal symbols on four antipodal pairs and the symmetric-group action.

A symbol "p -> (q, r, s)" records that point p is a positive combination of
the ordered triple (q, r, s), with the triple clockwise (negatively)
oriented.  Signed labels live in {+-1, ..., +-4}; the four underlying lines
are pairwise distinct.  The symmetric group on four letters acts freely on
the 384 formal symbols through four generator rules.  Automorphisms are
``chirotope.SignedBijection`` values.  The standard arrangement's line-cycle
dictionary is the ``S4-cycles`` fixture, which ``verify-paper`` recomputes.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterable, List, Sequence

from .chirotope import SignedBijection, all_signed_bijections, pullback_sign
from .frozen import Frozen
from .sphere import AntipodalArrangement


class Symbol(Frozen):
    __slots__ = ("head", "triple")

    def __init__(self, head: int, triple: Sequence[int]):
        triple = tuple(triple)
        if len(triple) != 3:
            raise ValueError("triple must have three entries")
        lines = {abs(head)} | {abs(t) for t in triple}
        if 0 in lines or len(lines) != 4:
            raise ValueError(f"symbol needs four distinct lines: {head}->{triple}")
        self._set(head, triple)

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


def standard_arrangement() -> AntipodalArrangement:
    """Coordinate axes plus the all-ones interior point."""
    return AntipodalArrangement.from_vectors(
        2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    )


def automorphisms(arr: AntipodalArrangement) -> List[SignedBijection]:
    """All convex positive bijections of a four-pair arrangement to itself."""
    chi = arr.chirotope
    return [w for w in all_signed_bijections(arr.labels) if pullback_sign(chi, chi, w)]
