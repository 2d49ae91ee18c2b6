"""Normal systems and the isomorphism decision.

A normal system is an indexed family of n nonzero vectors in F^m such that
every subset of size at most m is linearly independent.  Two systems are
isomorphic when a signed bijection of the vectors preserves positive
combinations in both directions.  The decision runs two ways: a brute-force
oracle over all permutations, with the signs that exchanges leave, and one
search for every m that reads candidate permutations off the cyclic orders
of lines in the rank-2 contractions of the chirotope (the line cycles of
the sphere arrangement), then solves the signs and checks every base in
one pass per candidate.
A signed bijection is a witness of chi iff it is one of the dual chi*, so
the whole search runs on the duals, of rank n - m, when that rank is lower.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import chain, combinations, compress, permutations, starmap
from math import comb, factorial
from operator import and_, gt, itemgetter, ne, xor
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .chirotope import (
    Chirotope, SignedBijection, all_signed_bijections, contraction_orders, pullback_sign
)
from .field import FieldValue, exact, format_row, parse_rows
from .frozen import Frozen

if TYPE_CHECKING:
    from .sphere import AntipodalArrangement

# Where the shape alone fixes the witnesses, they are all enumerated: 2^n n!
# with n <= m, 2 per permutation at searched rank 1.  The bound is n = 7, as
# for the exhaustive oracle, which tries all n! permutations.
MAX_WITNESSES = 2**7 * factorial(7)
ORACLE_MAX_N = 7
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a flag byte to its base-2 digit


def _enumerable(count: int) -> None:
    if count > MAX_WITNESSES:
        raise ValueError(
            f"the search would enumerate {count} witnesses (limit {MAX_WITNESSES})"
        )


class NormalSystem(Frozen):
    """n indexed nonzero vectors in F^m, every <= m of them independent.

    ``chirotope`` is built once, at construction; validity, the deciders
    and the conversions read it.
    """

    __slots__ = ("m", "vectors", "chirotope")

    def __init__(self, m: int, vectors: Sequence[Sequence[FieldValue]], check: bool = True):
        vecs = tuple(map(exact, vectors))
        if m < 1:
            raise ValueError("ambient dimension must be >= 1")
        for i, v in enumerate(vecs):
            if len(v) != m:
                raise ValueError(f"vector {i + 1} has length {len(v)}, expected {m}")
        self._set(m, vecs, Chirotope(m, dict(enumerate(vecs, 1))))
        if check and not self.is_valid():
            raise ValueError("not a normal system: dependent small subset")

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
            from .linalg import Matrix, rank

            return rank(Matrix(self.vectors)) == self.n
        return self.chirotope.zero() is None

    def to_arrangement(self) -> AntipodalArrangement:
        """The antipodal arrangement view on the (m-1)-sphere."""
        from .sphere import AntipodalArrangement, SpherePoint

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
        return {"m": self.m, "vectors": [format_row(v) for v in self.vectors]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "NormalSystem":
        """Raises ValueError on any shape ``field.parse_rows`` refuses."""
        m, vectors, _ = parse_rows(data, "m", "vectors")
        return cls(m, vectors)

    def __repr__(self):
        return f"NormalSystem(m={self.m}, n={self.n})"


def _check_pair(ns1: NormalSystem, ns2: NormalSystem) -> None:
    """Raise ValueError unless the systems share m and n and both are valid;
    the decider and both oracles start here."""
    if ns1.m != ns2.m:
        raise ValueError("ambient dimensions differ")
    if ns1.n != ns2.n:
        raise ValueError("system sizes differ")
    if not (ns1.is_valid() and ns2.is_valid()):
        raise ValueError("inputs must be valid normal systems")


def is_convex_positive_bijection(
    w: SignedBijection, ns1: NormalSystem, ns2: NormalSystem
) -> bool:
    """True iff w preserves positive combinations in both directions."""
    _check_pair(ns1, ns2)
    if set(w.labels) != set(ns1.labels):
        raise ValueError("witness labels do not match the systems")
    return pullback_sign(ns1.chirotope, ns2.chirotope, w) != 0


def oracle_isomorphisms(ns1: NormalSystem, ns2: NormalSystem) -> List[SignedBijection]:
    """Ground truth: the signed bijections that ``pullback_sign`` accepts,
    in ``all_signed_bijections`` order.  With n > m a witness has
    s(B) mu(B) = eps on every base, s(B) = chi1(B) chi2(pi B), so with B0
    the first base mu(u) mu(b) = s(B0) s(B0 - b + u): mu(b0) = 1 and the
    exchanges at b0, then with the first label outside B0, leave one mu
    per permutation, tested as -mu and mu.  With n <= m all are tested.
    """
    _check_pair(ns1, ns2)
    if ns1.n > ORACLE_MAX_N:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_N}")
    chi1, chi2, labels, m = ns1.chirotope, ns2.chirotope, ns1.labels, ns1.m
    if ns1.n <= m:
        return [w for w in all_signed_bijections(labels) if pullback_sign(chi1, chi2, w)]
    base, b0, u1 = set(labels[:m]), labels[0], labels[m]
    found = []
    for images in permutations(labels):
        perm = dict(zip(labels, images))

        def s(b, u):  # s(B0 - b + u)
            sub = tuple(sorted(base - {b} | {u}))
            return chi1.signs[sub] * chi2([perm[i] for i in sub])

        ref, t = s(b0, b0), s(b0, u1)  # mu(u1) = ref t, so mu(b) = t s(B0 - b + u1)
        mu = {i: s(i, u1) * t if i in base else s(b0, i) * ref for i in labels}
        w = SignedBijection._of(perm, mu)
        found += [v for v in (w.negate(), w) if pullback_sign(chi1, chi2, v)]
    return found


def _neighbours(order: Sequence[int]) -> Dict[int, Tuple[int, int]]:
    """The two neighbours of each label in a cyclic order; they fix the
    order up to rotation and reversal."""
    before, after = order[-1:] + order[:-1], order[1:] + order[:1]
    return {q: (p, r) for p, q, r in zip(before, order, after)}


def _aligned(perm: Dict[int, int], order: Sequence[int], nbrs) -> bool:
    """True iff perm carries the cyclic order onto the one with neighbours
    nbrs, up to rotation and reversal."""
    return all(perm[b] in nbrs[perm[a]] for a, b in zip(order, order[1:] + order[:1]))


def _fingerprints(chi: Chirotope):
    """The neighbour table of every contraction order of chi, the
    fingerprint of every (r-2)-subset H, their sorted multiset, and the
    signature of every label x: the sorted fingerprints of the subsets
    that hold x.  fp(H) is the sorted tuple, over h in H, of the number of
    consecutive pairs (q, p) of order(H) with p next to h in
    order(H - h + q) and q next to h in order(H - h + p), the triangles at
    h in chi/(H - h).  A witness carries each order onto its image's up to
    rotation and reversal, so fp2(pi H) = fp1(H) and sig2(pi x) = sig1(x).
    Each (r-3)-subset G = H - h is visited once; () at rank 2, where every
    signature is ().  Kept with chi.
    """
    labels, size = chi.labels, chi.rank - 2
    nbrs = {h: _neighbours(o) for h, o in chi._table(contraction_orders).items()}
    counts = {head: [] for head in nbrs}
    for g in combinations(labels, size - 1) if size else ():
        up = {x: tuple(sorted(g + (x,))) for x in labels if x not in g}
        nb = {x: nbrs[head] for x, head in up.items()}  # x: neighbours in order(G + x)
        for h, mine in nb.items():
            triangles = [q for q, (_, p) in mine.items() if p in nb[q][h] and q in nb[p][h]]
            counts[up[h]].append(len(triangles))
    fp = {head: tuple(sorted(c)) for head, c in counts.items()}
    ranked = sorted(fp.items(), key=itemgetter(1))  # so each signature fills in order
    sig = {x: [] for x in labels}
    for head, f in ranked:
        for x in head:
            sig[x].append(f)
    return nbrs, fp, [f for _, f in ranked], {x: tuple(f) for x, f in sig.items()}


def _candidates(chi1: Chirotope, chi2: Chirotope, pin=None):
    """Permutations that carry the contraction order of chi1 by every
    (r-2)-subset onto the order of chi2 by its image, up to rotation and
    reversal, for chirotopes of rank r on n >= 2r labels; every
    permutation when r = 1.  With a pin label, only those that fix it.

    Such a permutation keeps every subset's fingerprint and every label's
    signature (``_fingerprints``), so there are none when the two
    fingerprint multisets differ.  The head is the subset (one that
    contains the pin, if any) whose fingerprint is shared by the fewest
    eligible subsets of chi2, the first on a tie (empty at r = 2).  Its
    order (the seed) is aligned with the order of chi2 by each image set S
    of the same fingerprint, both ways, every rotation, which maps all
    labels but the head's.  Those are read off a probe, the sorted first
    r - 2 seed labels: its order holds the head and n - 2r + 4 >= 4 seed
    labels (anchors), and the alignment with its image's order that puts
    the first anchor on its image, in each direction, names the head's
    images if every other anchor fits too.  The anchors' images fill the
    rest of that order, so the head lands on S.  Only a rotation whose
    window of signatures in the target equals the seed's is tried.  The
    probe comes first: its image and the anchors are read off the rotated
    target by seed slot, and a permutation is built only for an alignment
    that passes.
    """
    labels, r = chi1.labels, chi1.rank
    if r == 1:
        _enumerable(2 * factorial(len(labels) - (pin in labels)))
        for images in permutations(labels):
            perm = dict(zip(labels, images))
            if perm.get(pin, pin) == pin:
                yield perm
        return
    subsets = list(combinations(labels, r - 2))
    orders1, orders2 = chi1._table(contraction_orders), chi2._table(contraction_orders)
    _, fp1, multiset1, sig1 = chi1._table(_fingerprints)
    nbrs2, fp2, multiset2, sig2 = chi2._table(_fingerprints)
    if multiset1 != multiset2:
        return
    heads = [h for h in subsets if pin in h] or subsets
    shared = Counter(fp2[h] for h in heads)  # fingerprint: eligible images in chi2
    head = min(heads, key=lambda h: shared[fp1[h]])
    others = [h for h in subsets if h != head]
    seed = orders1[head]
    size, want = len(seed), list(map(sig1.__getitem__, seed))
    if head:
        order = orders1[tuple(sorted(seed[: r - 2]))]
        at, slot = {q: i for i, q in enumerate(order)}, {q: k for k, q in enumerate(seed)}
        # (position in the probe's order, seed slot) of the first anchor, then the rest
        (first, k0), *anchors = [(i, slot[q]) for i, q in enumerate(order) if q not in head]

    def head_images(ring, rot):
        """The head's images when seed slot k goes to ring[rot + k]."""
        if not head:
            return [()]
        image = tuple(sorted(ring[rot : rot + r - 2]))
        target = orders2[image]
        # the offset j that puts the first anchor on its image
        return [
            tuple(target[(j + d * at[h]) % size] for h in head)
            for d in (1, -1)
            for j in [target.index(ring[rot + k0]) - d * first]
            if all(target[(j + d * i) % size] == ring[rot + k] for i, k in anchors)
        ]

    for image_set in subsets:
        if (pin in image_set) != (pin in head) or fp2[image_set] != fp1[head]:
            continue
        target = orders2[image_set]
        for seq in (target, target[::-1]):
            ring = seq + seq
            sigs = list(map(sig2.__getitem__, ring))
            for rot in range(size):
                if sigs[rot : rot + size] != want:
                    continue
                for images in head_images(ring, rot):
                    perm = dict(zip(seed, ring[rot : rot + size]))
                    perm.update(zip(head, images))
                    if perm.get(pin, pin) == pin and all(
                        _aligned(perm, orders1[h], nbrs2[tuple(sorted(perm[i] for i in h))])
                        for h in others
                    ):
                        yield perm


def find_isomorphisms(ns1: NormalSystem, ns2: NormalSystem) -> List[SignedBijection]:
    """All isomorphism witnesses, read off the two chirotopes.

    All of the search runs on chi, or on its dual if that has the lower
    rank r: candidates align the contraction orders by (r-2)-subsets (all
    permutations when r = 1), the signs are solved by single exchanges,
    and a candidate is kept iff it pulls chi2 back to +-chi1 on every base
    (``_accepted``, one packed pass per candidate).  Validity
    comes from chi.  Returns the empty list exactly when the systems are
    not isomorphic; raises ValueError when the shape fixes more than
    MAX_WITNESSES witnesses.
    """
    _check_pair(ns1, ns2)
    if ns1.n <= ns1.m:
        # no label lies outside a base, so every signed bijection works
        _enumerable(2**ns1.n * factorial(ns1.n))
        return list(all_signed_bijections(ns1.labels))
    return _witnesses(ns1.chirotope, ns2.chirotope)


def _witnesses(chi1: Chirotope, chi2: Chirotope, pin=None) -> List[SignedBijection]:
    """Every witness between two uniform chirotopes with more labels than
    their rank, sorted; with a pin label, every witness that fixes it.

    chi2(pi B) mu(B) = eps chi1(B) on every base B gives chi2*(pi T) mu(T)
    = eps sgn(pi) prod(mu) chi1*(T), so the duals have the same witnesses;
    when their rank is lower, the duals are the pair searched.
    """
    if 2 * chi1.rank > len(chi1.labels):
        chi1, chi2 = chi1.dual(), chi2.dual()
    return _accepted(chi1, chi2, _candidates(chi1, chi2, pin))


def _by_mask(chi: Chirotope):
    """chi's signs keyed by the label mask sum(1 << q) of each base, in the
    sorted order ``combinations`` yields; kept with chi."""
    masks = map(sum, combinations([1 << q for q in chi.labels], chi.rank))
    return dict(zip(masks, chi.signs.values()))


def _pack(flags) -> int:
    """The flags as one integer, the first flag its highest bit; base-2
    parsing is linear and exempt from the int digit limit."""
    return int(bytes(flags).translate(_DIGITS), 2)


def _packed(chi: Chirotope):
    """chi's signs, in sorted base order, and the packed masks
    (``_pack``, bit C - 1 - k for base k of C) of the bases that hold each
    label, in label order, and each label pair, in ``combinations`` order
    (all 0 at rank 1); kept with chi."""
    bases = list(chi.signs)
    singles = [_pack(i in base for base in bases) for i in chi.labels]
    pairs = list(starmap(and_, combinations(singles, 2)))
    return tuple(chi.signs.values()), singles, pairs


def _accepted(chi1: Chirotope, chi2: Chirotope, candidates) -> List[SignedBijection]:
    """The witnesses whose permutation is a candidate (distinct), sorted;
    chi1, chi2 uniform, of rank r on n > r labels.

    One packed pass per candidate pi over chi1's sorted bases
    (``_packed``): x, bit C - 1 - k for base B_k, is [chi2(pi B) !=
    chi1(B)], chi2 read sorted on each image base's mask sum(1 << pi(i))
    (``_by_mask``), then XORed with the mask of the bases that hold each
    label pair pi inverts, the sort parity of pi on every base at once (a
    rank-1 base holds no pair, so at rank 1 every pair mask is 0).
    A witness pulls chi2 back to eps * chi1, so with B' the first base B0
    with b replaced by u, mu(u) / mu(b) = -1 iff x(B') != x(B0):
    exchanges at b0 give mu outside B0 (B' = B0[1:] + (u,), u above B0),
    those with u1, the first label outside B0, the rest, and mu(b0) = +1.
    XORing in the mask of each label with mu = -1 leaves x(B) xor
    [mu(B) < 0], and (pi, +-mu) are witnesses iff that is 0 or all ones.
    """
    candidates = iter(candidates)
    perm = next(candidates, None)
    if perm is None:
        return []
    labels, r = chi1.labels, chi1.rank
    (s1, singles, pairs), by_mask = chi1._table(_packed), chi2._table(_by_mask)
    n, top, full = len(labels), len(s1) - 1, (1 << len(s1)) - 1
    base, outside = labels[:r], labels[r:]
    # B0[1:] + (u,) follows the C(n-1, r-1) bases that hold b0, u by u;
    # B0 without b_t, plus u1, the C(n-1-t, r-1-t) that hold B0[:t+1]
    lo = comb(n - 1, r - 1)
    at = [(base[t], top - comb(n - 1 - t, r - 1 - t)) for t in range(1, r)]
    found = []
    for perm in chain((perm,), candidates):
        images = list(map(perm.__getitem__, labels))
        bits = [1 << q for q in images]
        masks = map(sum, combinations(bits, r))
        x = _pack(map(ne, s1, map(by_mask.__getitem__, masks)))
        x = reduce(xor, compress(pairs, starmap(gt, combinations(images, 2))), x)
        x0 = x >> top
        neg = {u: x0 ^ (x >> top - k & 1) for k, u in enumerate(outside, lo)}  # mu(u) < 0
        for b, shift in at:
            neg[b] = neg[outside[0]] ^ x0 ^ (x >> shift & 1)
        neg[base[0]] = 0
        x = reduce(xor, compress(singles, map(neg.__getitem__, labels)), x)
        if x == 0 or x == full:
            # negating mu scales the pullback by (-1)^r: w, -w pass together
            w = SignedBijection._of(
                {i: perm[i] for i in labels}, {i: -1 if neg[i] else 1 for i in labels}
            )
            found += w, w.negate()
    return sorted(found, key=SignedBijection.key)
