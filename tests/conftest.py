"""Shared random generators and reference helpers for the test suite.

Everything is seeded explicitly by the caller so runs are reproducible.
"""

import functools
import random
from bisect import bisect
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from normsys import (
    AntipodalArrangement,
    HyperplaneArrangement,
    Matrix,
    NormalSystem,
    QuadExt,
    SignedBijection,
    det,
    positive_combination,
    sign,
)
from normsys.chirotope import _odd, pullback_sign
from normsys.linalg import rank, solve


def identity(n: int) -> Matrix:
    return Matrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def add(a: Matrix, b: Matrix) -> Matrix:
    assert (a.nrows, a.ncols) == (b.nrows, b.ncols)
    return Matrix([[x + y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])


def sub(a: Matrix, b: Matrix) -> Matrix:
    assert (a.nrows, a.ncols) == (b.nrows, b.ncols)
    return Matrix([[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])


def inverse(a: Matrix) -> Matrix:
    """The inverse of a square nonsingular matrix, one ``solve`` per column."""
    return Matrix([solve(a, e) for e in identity(a.nrows).rows]).transpose()


class ProjectorPair(NamedTuple):
    """Orthogonal projections onto a row span and its complement."""

    p: Matrix
    q: Matrix


def projectors(span_rows: Matrix) -> ProjectorPair:
    """P = T^t (T T^t)^{-1} T for independent rows T, and Q = I - P."""
    t = span_rows
    assert rank(t) == t.nrows, "rows are linearly dependent"
    p = t.transpose() * inverse(t * t.transpose()) * t
    return ProjectorPair(p, sub(identity(t.ncols), p))


def random_fraction(rng: random.Random, lo=-5, hi=5, max_den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_scalar(rng: random.Random, d=None):
    """A random rational, or a + b*sqrt(d) with random rationals a, b."""
    if d is None:
        return random_fraction(rng)
    return QuadExt(random_fraction(rng), random_fraction(rng), d)


def random_normal_system(
    rng: random.Random, m: int, n: int, d=None
) -> NormalSystem:
    while True:
        vecs = [[random_scalar(rng, d) for _ in range(m)] for _ in range(n)]
        if any(not any(v) for v in vecs):
            continue
        ns = NormalSystem(m, vecs, check=False)
        if ns.is_valid():
            return ns


def random_arrangement(
    rng: random.Random, m: int, n: int, d=None
) -> HyperplaneArrangement:
    """Small integer entries, or a + b*sqrt(d) with small integers a, b."""
    def entry():
        if d is None:
            return Fraction(rng.randint(-4, 4))
        return QuadExt(rng.randint(-4, 4), rng.randint(-4, 4), d)

    while True:
        coeffs = [[entry() for _ in range(m)] for _ in range(n)]
        constants = [entry() for _ in range(n)]
        if any(not any(r) for r in coeffs):
            continue
        ha = HyperplaneArrangement(m, coeffs, constants, check=False)
        if ha.is_valid():
            return ha


def random_sphere_arrangement(
    rng: random.Random, k: int, n: int, d=None
) -> AntipodalArrangement:
    while True:
        vecs = [
            [random_scalar(rng, d) for _ in range(k + 1)] for _ in range(n)
        ]
        if any(not any(v) for v in vecs):
            continue
        arr = AntipodalArrangement.from_vectors(k, vecs, check=False)
        ok, _ = arr.general_position()
        if ok:
            return arr


def random_invertible(rng: random.Random, m: int, d=None) -> Matrix:
    """Small integer entries, or a + b*sqrt(d) with small integers a, b."""
    def entry():
        if d is None:
            return Fraction(rng.randint(-3, 3))
        return QuadExt(rng.randint(-2, 2), rng.randint(-2, 2), d)

    while True:
        mat = Matrix([[entry() for _ in range(m)] for _ in range(m)])
        if sign(det(mat)) != 0:
            return mat


def planted_system(rng: random.Random, ns: NormalSystem, d=None):
    """An isomorphic copy and the witness planted in it: relabel, flip
    signs, and apply an invertible linear map (linear maps preserve all
    linear dependencies exactly)."""
    mat = random_invertible(rng, ns.m, d)
    labels = list(ns.labels)
    images = labels[:]
    rng.shuffle(images)
    vecs, mu = [None] * ns.n, {}
    for i, j in zip(labels, images):
        mu[i] = rng.choice((1, -1))
        w = mat.apply(ns.vector(i))
        vecs[j - 1] = [mu[i] * x for x in w]
    return NormalSystem(ns.m, vecs), SignedBijection(dict(zip(labels, images)), mu)


def transformed_system(rng: random.Random, ns: NormalSystem, d=None) -> NormalSystem:
    """An isomorphic copy, as ``planted_system`` makes it."""
    return planted_system(rng, ns, d)[0]


def affine_image(
    ha: HyperplaneArrangement, mat: Matrix, shift
) -> HyperplaneArrangement:
    """The arrangement of the images of the hyperplanes under x -> M x + t."""
    if sign(det(mat)) == 0:
        raise ValueError("affine map must be invertible")
    coeffs, constants = [], []
    for row, c in zip(ha.coeffs, ha.constants):
        new_row = solve(mat.transpose(), row)  # a M^{-1} as a row vector
        coeffs.append(list(new_row))
        constants.append(c + sum(x * t for x, t in zip(new_row, shift)))
    return HyperplaneArrangement(ha.m, coeffs, constants)


def planted_arrangement(
    rng: random.Random, ha: HyperplaneArrangement, d=None
) -> HyperplaneArrangement:
    """An isomorphic copy: an affine image, relabelled, with some
    equations negated (the same hyperplane, the other side positive)."""
    shift = [random_scalar(rng, d) for _ in range(ha.m)]
    img = affine_image(ha, random_invertible(rng, ha.m, d), shift)
    order = rng.sample(range(ha.n), ha.n)
    flips = [rng.choice((1, -1)) for _ in order]
    return HyperplaneArrangement(
        ha.m,
        [[f * x for x in img.coeffs[i]] for i, f in zip(order, flips)],
        [f * img.constants[i] for i, f in zip(order, flips)],
    )


def vertex_of(ha: HyperplaneArrangement, subset) -> tuple:
    a = Matrix([ha.row(i) for i in subset])
    return solve(a, [ha.constant(i) for i in subset])


def orientation(ha: HyperplaneArrangement, subset) -> int:
    """sign det[(1, P_i)] over the (m+1)-subset's hyperplanes i in order,
    P_i the vertex of the others: the side of the paper's orientation
    identity that the vertices give."""
    verts = [vertex_of(ha, [j for j in subset if j != i]) for i in subset]
    return sign(det(Matrix([[Fraction(1)] + list(v) for v in verts])))


def random_simplex_arrangement(rng: random.Random, m: int) -> HyperplaneArrangement:
    """m+1 hyperplanes bounding a simplex, normals pointing away from the
    opposite vertex."""
    from normsys.linalg import kernel_basis

    while True:
        verts = [
            [random_fraction(rng, -6, 6) for _ in range(m)] for _ in range(m + 1)
        ]
        aff = Matrix([[Fraction(1)] + v for v in verts])
        if sign(det(aff)) == 0:
            continue
        coeffs, constants = [], []
        ok = True
        for i, opposite in enumerate(verts):
            rest = [v for j, v in enumerate(verts) if j != i]
            ker = kernel_basis(Matrix([list(v) + [Fraction(-1)] for v in rest]))
            if len(ker) != 1:
                ok = False
                break
            a, c = list(ker[0][:m]), ker[0][m]
            val = sum(x * y for x, y in zip(a, opposite)) - c
            if sign(val) == 0:
                ok = False
                break
            if sign(val) > 0:
                a, c = [-x for x in a], -c
            coeffs.append(a)
            constants.append(c)
        if not ok:
            continue
        ha = HyperplaneArrangement(m, coeffs, constants, check=False)
        if ha.is_valid():
            return ha


def _signed_point(arr: AntipodalArrangement, label: int):
    p = arr.points[abs(label)]
    return p if label > 0 else p.antipode()


def triple_determinant_sign(arr: AntipodalArrangement, triple) -> int:
    """Sign of det of the three signed points, by ``det``."""
    return sign(det(Matrix([_signed_point(arr, t).rep for t in triple])))


def is_compatible(arr: AntipodalArrangement, s) -> bool:
    """Reference for ``compatible_symbols``: the head is a positive
    combination of the triple and the instantiated triple is negatively
    oriented."""
    basis = [_signed_point(arr, t) for t in s.triple]
    comb = positive_combination(_signed_point(arr, s.head), basis)
    if not comb.all_positive:
        return False
    return triple_determinant_sign(arr, s.triple) < 0


def inserted(signs: dict, seq: tuple, h: int, tail: tuple = ()) -> int:
    """chi(seq + (h,) + tail) for a sorted seq and a tail of labels above
    every other: the sorted lookup, negated once per label of seq above h."""
    k = bisect(seq, h)
    s = signs[seq[:k] + (h,) + seq[k:] + tail]
    return -s if (len(seq) - k) % 2 else s


def reference_order(chi, head) -> tuple:
    """Reference for ``chirotope.contraction_orders``: the cyclic order of the
    lines of chi/head by a comparator sort.  The other labels q, r have
    orientation sign chi(head, q, r); every line is folded into the
    half-plane that starts at the first other label q0 and sorted by
    angle, so the order starts at q0."""
    ordered, par = tuple(sorted(head)), -1 if _odd(head) else 1
    with_q = {}  # q: the sorted head with q inserted, and the sign of that sort
    for q in chi.labels:
        if q not in ordered:
            k = bisect(ordered, q)
            with_q[q] = ordered[:k] + (q,) + ordered[k:], par * (-1) ** len(ordered[k:])

    def orient(q: int, r: int) -> int:
        seq, s = with_q[q]
        return s * inserted(chi.signs, seq, r)

    q0 = next(iter(with_q))
    fold = {r: orient(q0, r) if r != q0 else 1 for r in with_q}
    key = functools.cmp_to_key(lambda q, r: -fold[q] * fold[r] * orient(q, r))
    return tuple(sorted(fold, key=key))


def reference_solve(chi1, chi2, perm) -> SignedBijection:
    """Reference for the sign solve of ``normal_systems._accepted``: the
    signed bijection (perm, mu) with mu(b0) = +1, in label order, that
    every witness with this permutation equals up to sign.

    With B the first base and B' the base B with b replaced by u, a
    witness pulls chi2 back to eps * chi1 on both, so mu(u) / mu(b) =
    chi1(B') chi2(pi B') chi1(B) chi2(pi B).  B' is read sorted, b
    dropped and u, which lies above B, appended, and chi2 on its images
    in that order.  Exchanges at b0 give mu outside B; exchanges with u1,
    the first label outside B, give the rest of B.
    """
    labels, r = chi1.labels, chi1.rank
    base, outside = labels[:r], labels[r:]

    def read(sub):
        return chi1.signs[sub] * chi2([perm[i] for i in sub])

    ref, u1 = read(base), outside[0]
    mu = {u: read(base[1:] + (u,)) * ref for u in outside}
    for t in range(1, r):
        mu[base[t]] = mu[u1] * read(base[:t] + base[t + 1 :] + (u1,)) * ref
    mu[base[0]] = 1
    return SignedBijection._of({i: perm[i] for i in labels}, {i: mu[i] for i in labels})


def reference_accepted(chi1, chi2, perms) -> list:
    """Reference for ``normal_systems._accepted``: each permutation's
    witness from ``reference_solve``, and its negation, kept iff
    ``pullback_sign`` accepts it; sorted."""
    found = []
    for perm in perms:
        w = reference_solve(chi1, chi2, perm)
        if pullback_sign(chi1, chi2, w):
            found += w, w.negate()
    return sorted(found, key=SignedBijection.key)


def reference_minors(rank: int, vectors: dict) -> dict:
    """Reference for ``chirotope.scaled_minors`` over Q(sqrt d): the same
    column expansion on the rows as given, in ``QuadExt`` arithmetic, every
    row kept at scale 1.  Each minor is a QuadExt where a row of its base
    holds one, else a Fraction."""
    minors = {(): 1}
    for k in range(rank):
        level = {}
        for sub in combinations(sorted(vectors), k + 1):
            acc = 0
            for t, i in enumerate(sub):
                acc = vectors[i][k] * minors[sub[:t] + sub[t + 1 :]] - acc
            level[sub] = acc
        minors = level
    return minors
