"""Seeded instance generators and answer-preserving transforms.

Corpus generators draw random rational (or Q(sqrt d)) normal systems and
hyperplane arrangements; ``gen_golden.py`` uses them once to build the
committed corpus.  The transforms re-express a corpus instance under a
seeded relabelling and sign flips and map its recorded answer exactly, so
every workload seed gives new inputs whose correct outputs are still known
without running the library.  They change no number's size: a seeded
change of coordinates was tried and moved single-op costs by up to 2x
between seeds, which would hide real changes under the noise.
"""

from __future__ import annotations

import random
from fractions import Fraction

from normsys import HyperplaneArrangement, Matrix, NormalSystem, QuadExt, det


def rand_fraction(rng: random.Random, lo=-5, hi=5, max_den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_quad(rng: random.Random, d: int) -> QuadExt:
    return QuadExt(rand_fraction(rng), Fraction(rng.randint(-3, 3), rng.randint(1, 2)), d)


def normal_system(rng: random.Random, m: int, n: int, d: int = 0) -> NormalSystem:
    """Random valid normal system; entries in Q(sqrt d) when d > 0."""
    draw = (lambda: rand_quad(rng, d)) if d else (lambda: rand_fraction(rng))
    while True:
        vecs = [[draw() for _ in range(m)] for _ in range(n)]
        if any(not any(v) for v in vecs):
            continue
        ns = NormalSystem(m, vecs, check=False)
        if ns.is_valid():
            return ns


def arrangement(rng: random.Random, m: int, n: int, d: int = 0) -> HyperplaneArrangement:
    """Random general-position arrangement with small integer (or
    a + b sqrt d) coefficients."""
    if d:
        draw = lambda: QuadExt(rng.randint(-4, 4), rng.randint(-2, 2), d)  # noqa: E731
    else:
        draw = lambda: Fraction(rng.randint(-4, 4))  # noqa: E731
    while True:
        coeffs = [[draw() for _ in range(m)] for _ in range(n)]
        constants = [draw() for _ in range(n)]
        if any(not any(r) for r in coeffs):
            continue
        ha = HyperplaneArrangement(m, coeffs, constants, check=False)
        if ha.is_valid():
            return ha


def invertible(rng: random.Random, m: int) -> list:
    """Random integer matrix with entries in [-3, 3] and nonzero determinant."""
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
        if det(Matrix(rows)) != 0:
            return rows


def apply(mat, v) -> list:
    """Matrix times column vector."""
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in mat]


def row_times(v, mat) -> list:
    """Row vector times matrix."""
    return [sum((v[i] * mat[i][j] for i in range(len(v))), Fraction(0))
            for j in range(len(mat[0]))]


class Relabel:
    """A seeded signed relabelling: old label i becomes new[i] with sign
    flip[i]; labels are 1..n."""

    def __init__(self, rng: random.Random, n: int):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        self.new = dict(zip(range(1, n + 1), images))
        self.flip = {i: rng.choice((1, -1)) for i in range(1, n + 1)}

    def place(self, items) -> list:
        """Reorder per-label items (index 0 is label 1) into new positions."""
        out = [None] * len(items)
        for i, x in enumerate(items, 1):
            out[self.new[i] - 1] = x
        return out


def transform_system(rng: random.Random, vectors, mat=None) -> tuple:
    """Relabel and flip a system's vectors, after applying ``mat`` if given.
    The returned relabelling, read as a signed bijection, is an isomorphism
    witness from the old system to the new."""
    rl = Relabel(rng, len(vectors))
    if mat is not None:
        vectors = [apply(mat, v) for v in vectors]
    moved = [[rl.flip[i] * x for x in v] for i, v in enumerate(vectors, 1)]
    return rl.place(moved), rl


def transform_witness(perm, signs, rl1: Relabel, rl2: Relabel) -> tuple:
    """Image of the witness i -> signs[i] * v2[perm[i]] after both systems
    were transformed: labels move through each relabelling and each flip
    multiplies the sign."""
    n = len(perm)
    new_perm, new_signs = [0] * n, [0] * n
    for i in range(1, n + 1):
        j = perm[i - 1]
        new_perm[rl1.new[i] - 1] = rl2.new[j]
        new_signs[rl1.new[i] - 1] = rl1.flip[i] * signs[i - 1] * rl2.flip[j]
    return tuple(new_perm), tuple(new_signs)


def transform_arrangement(rng: random.Random, coeffs, constants, relabel=True) -> tuple:
    """Flip hyperplanes (negate a_i and c_i) and, optionally, relabel them.
    Region sign vectors follow the flips and the relabelling exactly;
    boundedness is unchanged, and cone facets only follow the relabelling."""
    rl = Relabel(rng, len(coeffs))
    if not relabel:
        rl.new = {i: i for i in rl.new}
    rows = [[rl.flip[i] * x for x in a] for i, a in enumerate(coeffs, 1)]
    cons = [rl.flip[i] * c for i, c in enumerate(constants, 1)]
    return rl.place(rows), rl.place(cons), rl


def transform_regions(regions, rl: Relabel) -> set:
    """Region sign strings ("+-+..." plus a trailing "b" when bounded)
    after the relabelling and flips."""
    out = set()
    for text in regions:
        signs, bounded = text[:-1] if text.endswith("b") else text, text.endswith("b")
        new = [""] * len(signs)
        for i, ch in enumerate(signs, 1):
            s = 1 if ch == "+" else -1
            new[rl.new[i] - 1] = "+" if s * rl.flip[i] > 0 else "-"
        out.add("".join(new) + ("b" if bounded else ""))
    return out


def transform_facets(facets, rl: Relabel) -> set:
    return {tuple(sorted(rl.new[i] for i in f)) for f in facets}
