"""The chirotope χ of labelled vectors in F^r: the sign of the determinant
of every r of them, in a given order (Björner, Las Vergnas, Sturmfels,
White and Ziegler, *Oriented Matroids*, 1993, ch. 3).  Line cycles, the
isomorphism witness test and validity are read off χ; an arrangement's χ
is that of its affine lift, the rows (aᵢ | cᵢ) and e, and its concurrency
sign map χ_hom, the deletion of e, is a ``Chirotope`` too.  The dual χ*, of
rank n − r, is read off χ's signs alone.  So are the contraction orders,
and the witness type ``SignedBijection`` lives here, so the deciders load
nothing past this module, which imports only ``field`` and ``frozen``.

χ is computed once per sorted r-subset; a reordered subset is looked up by
the parity of its sort.  Every maximal minor comes from one division-free
expansion along the columns: the minors of the first k columns over every
k-subset of labels, each built from those of the first k - 1.  Each
vector is first scaled by the positive LCM of its denominators: rational
vectors to integers, quadratic-extension vectors to integer pairs (a, b)
for a + b√d, whose sign ``field.quad_sign`` reads.  The same minors, as
values, give the wall circuits of ``arrangements.cone_facets``.

What is read off χ's signs alone (the dual, the first zero base, the
contraction orders, the search's neighbour tables, fingerprints and
label signatures, its packed base masks and signs by label mask, a lift's
vertex-side table, line submasks and deletion χ_hom) is built on first
use and kept, read-only, by ``Chirotope._table``; nothing that depends on
a pair, a pin, a coefficient value or a result is kept.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from itertools import combinations, permutations, product, starmap
from math import comb, lcm
from operator import gt, mul
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from .field import FieldTagMismatch, FieldValue, QuadExt, quad_sign
from .frozen import Frozen


# a minor of scaled_minors: an integer over Q, a pair (a, b) for a + b√d
Minor = Union[int, Tuple[int, int]]

# The expansion builds sum_{k <= rank} C(n, k) minors, 2^n - 2 at n = rank + 1.
MAX_MINORS = 2**20


def scaled_minors(
    rank: int, vectors: Dict[int, Sequence[FieldValue]]
) -> Tuple[Dict[int, int], Dict[Tuple[int, ...], Minor], Optional[int]]:
    """A positive scale k_i per label, the determinant of the vectors
    k_i v_i, i in base, for every sorted rank-subset base, and the radicand
    d of the vectors' field (None over Q).

    k_i is the LCM of the denominators of v_i (of both parts of each
    a + b√d), so the scaled rows are integers over Q and integer pairs
    (a, b), for a + b√d, over Q(√d); so is every minor.  The minor of the
    first k columns over a sorted k-subset S is the sum over t of
    (-1)^(k-1-t) x[S_t][k-1] times the minor of the first k - 1 columns
    over S without S_t: no division, no pivot and no row swap.  Raises
    ValueError if that takes more than MAX_MINORS minors, and
    FieldTagMismatch on values from two quadratic fields.
    """
    count = sum(comb(len(vectors), k) for k in range(1, rank + 1))
    if count > MAX_MINORS:
        raise ValueError(
            f"{len(vectors)} vectors of rank {rank} need {count} minors "
            f"(limit {MAX_MINORS})"
        )
    radicands = {x.d for v in vectors.values() for x in v if isinstance(x, QuadExt)}
    if len(radicands) > 1:
        d1, d2 = sorted(radicands)[:2]
        raise FieldTagMismatch(f"cannot mix sqrt({d1}) and sqrt({d2}) values")
    labels = sorted(vectors)
    if radicands:
        [d] = radicands
        return (*_pair_minors(rank, labels, vectors, d), d)
    scale = {i: lcm(*(x.denominator for x in v)) for i, v in vectors.items()}
    rows = {
        i: [x.numerator * (scale[i] // x.denominator) for x in v]
        for i, v in vectors.items()
    }
    minors = {(): 1}
    for k in range(rank):
        level = {}
        for sub in combinations(labels, k + 1):
            acc = 0  # ends as the alternating sum, + on the last term
            for t, i in enumerate(sub):
                acc = rows[i][k] * minors[sub[:t] + sub[t + 1 :]] - acc
            level[sub] = acc
        minors = level
    return scale, minors, None


def _pair_minors(rank, labels, vectors, d):
    """``scaled_minors`` over Q(√d): the expansion on integer pairs, where
    (a, b)(a', b') = (aa' + bb'd, ab' + ba')."""
    parts = {
        i: [(x.a, x.b) if isinstance(x, QuadExt) else (x, 0) for x in v]
        for i, v in vectors.items()
    }
    scale = {i: lcm(*(y.denominator for p in v for y in p)) for i, v in parts.items()}
    rows = {
        i: [
            (a.numerator * (scale[i] // a.denominator),
             b.numerator * (scale[i] // b.denominator))
            for a, b in v
        ]
        for i, v in parts.items()
    }
    minors = {(): (1, 0)}
    for k in range(rank):
        level = {}
        for sub in combinations(labels, k + 1):
            a = b = 0  # as in scaled_minors, part by part
            for t, i in enumerate(sub):
                xa, xb = rows[i][k]
                ma, mb = minors[sub[:t] + sub[t + 1 :]]
                a, b = xa * ma + xb * mb * d - a, xa * mb + xb * ma - b
            level[sub] = a, b
        minors = level
    return scale, minors


def _odd(seq: Sequence[int]) -> bool:
    """True iff sorting seq takes an odd number of transpositions."""
    return sum(starmap(gt, combinations(seq, 2))) % 2 == 1


class Chirotope(Frozen):
    """Signs of the maximal minors of labelled vectors in F^rank.

    ``signs`` maps every sorted rank-subset of the labels, in sorted
    order, to the sign of its determinant; calling the chirotope on any
    sequence of distinct labels gives the sign for the rows in that order.
    """

    __slots__ = ("rank", "labels", "signs", "_tables")

    def __init__(self, rank: int, vectors: Dict[int, Sequence[FieldValue]]):
        _, minors, d = scaled_minors(rank, vectors)
        if d is None:
            signs = {base: (x > 0) - (x < 0) for base, x in minors.items()}
        else:
            signs = {base: quad_sign(a, b, d) for base, (a, b) in minors.items()}
        self._set(rank, tuple(sorted(vectors)), signs)

    def _set(self, rank, labels, signs):
        super()._set(rank, labels, signs, {})

    def _table(self, build):
        """build(self), kept from the first call (two racing threads build equal values)."""
        tables = self._tables
        if build not in tables:
            tables[build] = build(self)
        return tables[build]

    def __call__(self, seq: Sequence[int]) -> int:
        s = self.signs[tuple(sorted(seq))]
        return -s if _odd(seq) else s

    def __repr__(self):
        # one character per sorted base, in order: "0+-"[s] reads 0, 1, -1
        signs = "".join("0+-"[s] for s in self.signs.values())
        return f"Chirotope(rank={self.rank}, labels={self.labels}, signs='{signs}')"

    def zero(self) -> Optional[Tuple[int, ...]]:
        """The first sorted subset whose vectors are dependent, or None."""
        return self._table(Chirotope._zero)

    def _zero(self):
        return next((base for base, s in self.signs.items() if s == 0), None)

    def dual(self) -> "Chirotope":
        """The dual, of rank n - rank on the same labels (``_dual``)."""
        return self._table(Chirotope._dual)

    def _dual(self) -> "Chirotope":
        """The dual (Björner et al. 1993, 3.4): chi*(T) = chi(T')
        sgn(T', T), T' the sorted complement of T, sgn the parity of
        sorting T' + T; +-chi of the Gale transform.

        T' + T sorts by moving each T'_j past the c_j - j labels of T
        below it, c_j its position among the labels, so the parity is
        sum_j (c_j - j) mod 2.  Two sorted subsets compare as their
        complements do, reversed, so the complements of chi's bases, taken
        from the last, are the dual's bases in sorted order."""
        labels, r = self.labels, self.rank
        at = {q: c for c, q in enumerate(labels)}
        shift = r * (r - 1) // 2  # sum_j j
        signs = {}
        for rest, (comp, s) in zip(
            combinations(labels, len(labels) - r), reversed(self.signs.items())
        ):
            signs[rest] = -s if (sum(map(at.__getitem__, comp)) - shift) % 2 else s
        return Chirotope._of(len(labels) - r, labels, signs)

    def pullback(self, w, base: Sequence[int]) -> int:
        """Sign of the determinant with rows mu(i) * v_pi(i), i in base in
        the given order, for a signed bijection w = (pi, mu) into these
        labels: chi of the images times their signs."""
        s = self(list(map(w.perm.__getitem__, base)))
        return reduce(mul, map(w.signs.__getitem__, base), s)


def contraction_orders(chi: Chirotope) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """The cyclic order of the lines of the rank-2 contraction chi/H, from
    the first label q0 outside H on, for every sorted (rank - 2)-subset H
    (the empty head at rank 2); the rank is >= 2.

    Each base B is read once and gives its sign to every (rank - 2)-subset
    H of it, B = H + {a, b}: chi(H, a, b) = chi(B) (-1)^(i+j+1) for the
    positions i < j of a and b in B.  Folding every line into the
    half-plane that starts at the first other label q0 turns line b by
    f_b = chi(H, q0, b), and a comes before b iff f_a f_b chi(H, a, b) > 0;
    in that product each label's position parity appears twice, so chi(B)
    stands for each of the three signs.  A label's place in the order is
    the number of labels before it.  H's bases arrive in the sorted order
    of the bases, the lexicographic order of (a, b): that of
    ``combinations``, q0's pairs first.
    """
    labels, r = chi.labels, chi.rank
    signs = defaultdict(list)
    for base, s in chi.signs.items():
        for head in combinations(base, r - 2):
            signs[head].append(s)
    size = len(labels) - r + 2
    pairs = list(combinations(range(1, size), 2))
    orders = {}
    for head, seq in signs.items():
        fold = [1] + seq[: size - 1]
        before = [0] + [1] * (size - 1)
        for (a, b), t in zip(pairs, seq[size - 1 :]):
            before[b if fold[a] * fold[b] == t else a] += 1
        order = [0] * size
        for q, k in zip((q for q in labels if q not in head), before):
            order[k] = q
        orders[head] = tuple(order)
    return orders


def pullback_sign(chi1: Chirotope, chi2: Chirotope, w) -> int:
    """+1 if the signed bijection w pulls chi2 back to chi1, -1 if to
    -chi1, 0 if to neither.

    For uniform chirotopes (no zero entry) a nonzero result is equivalent
    to w preserving positive combinations in both directions: the
    coefficient signs of v_u over a base B are ratios chi(B with u in one
    slot) / chi(B), and the bases of a uniform matroid are connected by
    single exchanges, so preserving every ratio fixes chi up to one global
    sign.  Each base is read once, by ``Chirotope.pullback``, in sorted
    order, and the first mismatch ends the check.
    """
    eps, read = 0, chi2.pullback
    for base, s1 in chi1.signs.items():
        s2 = read(w, base)
        eps = eps or s1 * s2
        if s2 != (eps or 1) * s1:
            return 0
    return eps or 1


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
        self._set(dict(sorted(perm.items())), dict(sorted(signs.items())))

    @property
    def labels(self) -> Tuple[int, ...]:
        return tuple(self.perm)

    def key(self) -> tuple:
        # both dicts are kept in sorted label order
        return tuple(self.perm.values()), tuple(self.signs.values())

    # equality, hash and order read the key: the images fix the label set
    _values = key

    def __repr__(self):
        return f"SignedBijection({self.perm}, {self.signs})"

    def negate(self) -> "SignedBijection":
        return SignedBijection._of(self.perm, {i: -s for i, s in self.signs.items()})

    def compose(self, first: "SignedBijection") -> "SignedBijection":
        """self after first, whose images must be self's labels."""
        if first.perm.keys() != self.perm.keys():
            raise ValueError("composed signed bijections must share labels")
        perm = {i: self.perm[first.perm[i]] for i in first.labels}
        signs = {i: first.signs[i] * self.signs[first.perm[i]] for i in first.labels}
        return SignedBijection(perm, signs)

    @classmethod
    def identity(cls, labels: Iterable[int]) -> "SignedBijection":
        labels = list(labels)
        return cls({i: i for i in labels}, {i: 1 for i in labels})


def all_signed_bijections(labels: Sequence[int]) -> Iterator[SignedBijection]:
    """Every signed bijection of the labels, one at a time: 2^n n! of them,
    too many to hold at once beyond n = 6; from sorted labels, so each is
    built sorted and valid, and they come in increasing ``key`` order.  The
    permutation dicts and the 2^n sign dicts are built once and shared."""
    labels = sorted(labels)
    signs = [dict(zip(labels, sv)) for sv in product((-1, 1), repeat=len(labels))]
    for images in permutations(labels):
        perm = dict(zip(labels, images))
        for sv in signs:
            yield SignedBijection._of(perm, sv)
