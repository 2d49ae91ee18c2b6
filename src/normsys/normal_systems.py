"""Normal systems and the isomorphism decision.

A normal system is an indexed family of n nonzero vectors in F^m such that
every subset of size at most m is linearly independent.  Two systems are
isomorphic when a signed bijection of the vectors preserves positive
combinations in both directions.  The decision runs two ways: a brute-force
oracle over all signed bijections, and a pruned search driven by the
line-cycle invariants of the associated sphere arrangement.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .chirotope import Chirotope, pullback_sign
from .cycles import chirotope_cycles
from .field import FieldValue, format_value, parse_value, sign
from .linalg import Matrix
from .sphere import AntipodalArrangement
from .symbols import SignedBijection, all_signed_bijections

IsoWitness = SignedBijection


class NormalSystem:
    """n indexed nonzero vectors in F^m, every <= m of them independent."""

    __slots__ = ("m", "vectors")

    def __init__(self, m: int, vectors: Sequence[Sequence[FieldValue]], check: bool = True):
        vecs = tuple(
            tuple(Fraction(x) if isinstance(x, int) else x for x in v) for v in vectors
        )
        if m < 1:
            raise ValueError("ambient dimension must be >= 1")
        for i, v in enumerate(vecs):
            if len(v) != m:
                raise ValueError(f"vector {i + 1} has length {len(v)}, expected {m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "vectors", vecs)
        if check and not self.is_valid():
            raise ValueError("not a normal system: dependent small subset")

    def __setattr__(self, name, value):
        raise AttributeError("NormalSystem is immutable")

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
        return _chirotope(self).zero() is None

    def to_arrangement(self) -> AntipodalArrangement:
        """The antipodal arrangement view on the (m-1)-sphere."""
        return AntipodalArrangement.from_vectors(self.m - 1, self.vectors, check=False)

    @classmethod
    def from_arrangement(cls, arr: AntipodalArrangement) -> "NormalSystem":
        if arr.labels != tuple(range(1, arr.n + 1)):
            raise ValueError("arrangement labels must be 1..n")
        return cls(arr.dim_k + 1, [arr.points[i].rep for i in arr.labels], check=False)

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


def validate_normal_system(ns: NormalSystem) -> bool:
    return ns.is_valid()


def _chirotope(ns: NormalSystem) -> Chirotope:
    return Chirotope(ns.m, dict(zip(ns.labels, ns.vectors)))


def _valid_chirotope(ns: NormalSystem) -> Chirotope:
    chi = _chirotope(ns)
    if chi.zero() is not None or (ns.n < ns.m and not ns.is_valid()):
        raise ValueError("inputs must be valid normal systems")
    return chi


def is_convex_positive_bijection(
    w: SignedBijection, ns1: NormalSystem, ns2: NormalSystem
) -> bool:
    """True iff w preserves positive combinations in both directions."""
    if ns1.n != ns2.n or ns1.m != ns2.m:
        raise ValueError("systems must share n and m")
    if set(w.labels) != set(ns1.labels):
        raise ValueError("witness labels do not match the systems")
    return pullback_sign(_chirotope(ns1), _chirotope(ns2), w) != 0


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
    chi1, chi2 = _chirotope(ns1), _chirotope(ns2)
    out = [w for w in all_signed_bijections(ns1.labels) if pullback_sign(chi1, chi2, w)]
    return sorted(out)


def _circular_sequence(ns: NormalSystem) -> List[Tuple[int, int]]:
    """Counterclockwise order of the 2n signed plane vectors, as
    (label, sign) pairs starting from an arbitrary direction."""
    items = []
    for i in ns.labels:
        for s in (1, -1):
            v = ns.vector(i)
            items.append(((s * v[0], s * v[1]), i, s))

    def half(u):
        # 0 for the upper half (y > 0, or y = 0 and x > 0), 1 for the lower
        sy = sign(u[1])
        if sy > 0 or (sy == 0 and sign(u[0]) > 0):
            return 0
        return 1

    def cmp(p, q):
        hp, hq = half(p[0]), half(q[0])
        if hp != hq:
            return -1 if hp < hq else 1
        cross = p[0][0] * q[0][1] - p[0][1] * q[0][0]
        return -sign(cross)

    import functools

    items.sort(key=functools.cmp_to_key(cmp))
    return [(i, s) for _, i, s in items]


def _plane_isomorphisms(ns1: NormalSystem, ns2: NormalSystem) -> List[SignedBijection]:
    """m = 2: align the two circular sequences by rotation or reflection."""
    seq1 = _circular_sequence(ns1)
    seq2 = _circular_sequence(ns2)
    n2 = len(seq1)
    found = set()
    for reflect in (False, True):
        target = list(reversed(seq2)) if reflect else seq2
        for shift in range(n2):
            perm: Dict[int, int] = {}
            mu: Dict[int, int] = {}
            ok = True
            for pos, (i, s) in enumerate(seq1):
                j, t = target[(pos + shift) % n2]
                want_perm, want_mu = j, s * t
                if perm.setdefault(i, want_perm) != want_perm or mu.setdefault(
                    i, want_mu
                ) != want_mu:
                    ok = False
                    break
            if ok:
                found.add(SignedBijection(perm, mu))
    return sorted(found)


def _line_isomorphisms(ns1: NormalSystem, ns2: NormalSystem) -> List[SignedBijection]:
    """m = 1: positivity structure is just the sign vector."""
    t1 = [sign(v[0]) for v in ns1.vectors]
    t2 = [sign(v[0]) for v in ns2.vectors]
    out = []
    for images in permutations(ns2.labels):
        perm = dict(zip(ns1.labels, images))
        for eps in (1, -1):
            mu = {i: eps * t1[i - 1] * t2[perm[i] - 1] for i in ns1.labels}
            out.append(SignedBijection(perm, mu))
    return sorted(set(out))


def find_isomorphisms(ns1: NormalSystem, ns2: NormalSystem) -> List[SignedBijection]:
    """All isomorphism witnesses, via cycle-invariant alignment.

    For m >= 3 candidate maps are seeded from a single projected line cycle
    and checked against the complete cycle family, then verified by the
    positive-combination criterion.  The cycles, the criterion and the
    validity of the inputs all come from the two chirotopes.  Returns the
    empty list exactly when the systems are not isomorphic.
    """
    if ns1.m != ns2.m:
        raise ValueError("ambient dimensions differ")
    if ns1.n != ns2.n:
        raise ValueError("system sizes differ")
    chi1, chi2 = _valid_chirotope(ns1), _valid_chirotope(ns2)
    m, n = ns1.m, ns1.n
    if n <= m:
        # no label lies outside a base, so every signed bijection works
        return sorted(all_signed_bijections(ns1.labels))
    if m == 1:
        return _line_isomorphisms(ns1, ns2)
    if m == 2:
        return _plane_isomorphisms(ns1, ns2)

    inv1 = chirotope_cycles(chi1)
    inv2 = chirotope_cycles(chi2)
    k = m - 1
    labels = ns1.labels
    base_block = tuple(labels[: k - 2])
    rest = [i for i in labels if i not in base_block]
    j0 = rest[0]
    seed_cycle = inv1[(base_block, j0, +1)]

    found = set()
    for block_image in permutations(labels, k - 2):
        others = [j for j in labels if j not in block_image]
        key_block = tuple(sorted(block_image))
        for j0_image in others:
            for s0 in (1, -1):
                tgt = inv2[(key_block, j0_image, s0)]
                for rot in range(len(tgt)):
                    rotated = tgt.labels[rot:] + tgt.labels[:rot]
                    perm = dict(zip(seed_cycle.labels, rotated))
                    perm[j0] = j0_image
                    perm.update(dict(zip(base_block, block_image)))
                    if len(set(perm.values())) != n:
                        continue
                    w = _complete_witness(perm, inv1, inv2, labels, k, base_block)
                    # negating mu scales the pulled-back chirotope by
                    # (-1)^m, so w and w.negate() pass or fail together
                    if w is not None and pullback_sign(chi1, chi2, w):
                        found.update((w, w.negate()))
    return sorted(found)


def _complete_witness(
    perm: Dict[int, int],
    inv1,
    inv2,
    labels: Sequence[int],
    k: int,
    base_block: Tuple[int, ...],
) -> Optional[SignedBijection]:
    """Solve for the sign vector given a full permutation candidate.

    For block A and outside label j there must be a unique sign s with
    conj(cycle1[A, j, +]) == cycle2[perm(A), perm(j), s]; the condition to
    solve is mu(j) * eta_A = s, where eta_A is a free inversion per block
    (the projection frame handedness is not transported by the bijection).
    Fixing eta on the base block picks one of the pair (mu, -mu).
    """
    sigma: Dict[Tuple[Tuple[int, ...], int], int] = {}
    blocks = list(combinations(labels, k - 2))
    for block in blocks:
        key2 = tuple(sorted(perm[i] for i in block))
        for j in labels:
            if j in block:
                continue
            image = inv1[(block, j, +1)].conjugate(perm)
            # cycles at antipodal points are exact inverses, so a match
            # against one sign key is a direct equality and is unique
            if image == inv2[(key2, perm[j], +1)]:
                sigma[(block, j)] = 1
            elif image == inv2[(key2, perm[j], -1)]:
                sigma[(block, j)] = -1
            else:
                return None
    mu: Dict[int, int] = {}
    for j in labels:
        if j not in base_block:
            mu[j] = sigma[(base_block, j)]
    pending = [b for b in blocks if b != base_block]
    while pending:
        progressed = False
        for block in list(pending):
            anchor = next((j for j in mu if j not in block), None)
            if anchor is None:
                continue
            eta = sigma[(block, anchor)] * mu[anchor]
            for j in labels:
                if j in block:
                    continue
                val = sigma[(block, j)] * eta
                if mu.setdefault(j, val) != val:
                    return None
            pending.remove(block)
            progressed = True
        if not progressed:
            return None
    if len(mu) != len(labels):
        return None
    return SignedBijection(perm, mu)
