"""Each object builds its chirotope once, at construction, and
conversions hand it over; the stored chi must equal a fresh build."""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from normsys import (
    AntipodalArrangement,
    HyperplaneArrangement,
    NormalSystem,
    QuadExt,
    concurrency_sign_map,
    hyperplanes_from,
    normal_system_of,
    sign,
)
from normsys import arrangements, chirotope
from normsys.chirotope import Chirotope, scaled_minors
from normsys.field import FieldTagMismatch
from normsys.linalg import Matrix, kernel_basis
from conftest import (
    affine_image,
    random_arrangement,
    random_invertible,
    random_normal_system,
    random_scalar,
    random_sphere_arrangement,
    reference_minors,
)


def check_system(ns: NormalSystem):
    fresh = Chirotope(ns.m, dict(zip(ns.labels, ns.vectors)))
    assert (ns.chirotope.rank, ns.chirotope.signs) == (fresh.rank, fresh.signs)


def check_sphere(arr: AntipodalArrangement):
    fresh = Chirotope(arr.dim_k + 1, {i: p.rep for i, p in arr.points.items()})
    assert (arr.chirotope.rank, arr.chirotope.signs) == (fresh.rank, fresh.signs)


def check_hyperplanes(ha: HyperplaneArrangement):
    # the lift: the rows (a_i | c_i), then e = (0, ..., 0, 1)
    rows = tuple(ha.row(i) + (ha.constant(i),) for i in ha.labels)
    assert ha.lift.vectors == rows + ((0,) * ha.m + (1,),)
    assert ha.lift.m == ha.m + 1
    check_system(ha.lift)


# (m, n) with n < m, n = m and n > m, so n < m + 1 for arrangements too
SHAPES = [(1, 3), (2, 1), (2, 2), (2, 5), (3, 2), (3, 3), (3, 6), (4, 6)]


@pytest.mark.parametrize("d", [None, 2, 5])
def test_stored_chirotope_matches_a_fresh_build(d):
    rng = random.Random(31)
    for m, n in SHAPES:
        # on the 0-sphere any two points are equal or antipodal
        n_sphere = n if m > 1 else 1
        ns = random_normal_system(rng, m, n, d)
        check_system(ns)
        arr = ns.to_arrangement()
        assert arr.chirotope is ns.chirotope
        check_sphere(arr)
        back = NormalSystem.from_arrangement(random_sphere_arrangement(rng, m - 1, n_sphere, d))
        check_system(back)

        ha = random_arrangement(rng, m, n, d)
        check_hyperplanes(ha)
        normals = normal_system_of(ha)
        assert normals.vectors == ha.coeffs
        check_system(normals)
        # chi_A is the contraction of the lift's chi by e, the last label
        e = ha.n + 1
        contracted = {b[:-1]: s for b, s in ha.lift.chirotope.signs.items() if b[-1] == e}
        assert normals.chirotope.signs == contracted
        rebuilt = hyperplanes_from(normals, ha.constants)
        assert rebuilt.lift == ha.lift
        check_hyperplanes(rebuilt)
        shift = [random_scalar(rng, d) for _ in range(m)]
        check_hyperplanes(affine_image(ha, random_invertible(rng, m, d), shift))

        sphere = random_sphere_arrangement(rng, m - 1, n_sphere, d)
        check_sphere(sphere)
        check_sphere(sphere.flip_all())
        images = rng.sample(range(1, 3 * n + 1), n)
        check_sphere(sphere.relabel(dict(zip(sphere.labels, images))))


def test_stored_chirotope_of_invalid_inputs():
    one = Fraction(1)
    parallel = NormalSystem(2, [[one, 0 * one], [2 * one, 0 * one], [one, one]], check=False)
    assert not parallel.is_valid()
    check_system(parallel)
    assert parallel.chirotope.zero() == (1, 2)
    dependent = NormalSystem(3, [[one, 0, 0], [2 * one, 0, 0]], check=False)
    assert not dependent.is_valid()
    check_system(dependent)
    concurrent = HyperplaneArrangement(
        2, [[one, 0], [0, one], [one, one]], [0, 0, 0], check=False
    )
    assert not concurrent.is_valid()
    check_hyperplanes(concurrent)
    assert concurrent.lift.chirotope.zero() == (1, 2, 3)
    parallel_lines = HyperplaneArrangement(
        2, [[one, 0], [2 * one, 0], [one, one]], [0, one, 0], check=False
    )
    assert not parallel_lines.is_valid()
    check_hyperplanes(parallel_lines)
    assert parallel_lines.lift.chirotope.zero() == (1, 2, 4)
    antipodal = AntipodalArrangement.from_vectors(
        1, [[one, 0], [-2 * one, 0], [one, one]], check=False
    )
    assert antipodal.general_position() == (False, (1, 2))
    check_sphere(antipodal)


def up_to_sign(a: Chirotope, b: Chirotope) -> bool:
    """True iff a = b or a = -b, as chirotopes on the same labels."""
    negated = {base: -s for base, s in b.signs.items()}
    return (a.rank, a.labels) == (b.rank, b.labels) and a.signs in (b.signs, negated)


def gale_chirotope(ns: NormalSystem) -> Chirotope:
    """chi of the Gale transform: label i gets the i-th entries of a basis
    of the kernel of V^T, V the n x m matrix of the vectors."""
    basis = kernel_basis(Matrix(ns.vectors).transpose())
    return Chirotope(len(basis), {i: [k[i - 1] for k in basis] for i in ns.labels})


@pytest.mark.parametrize("d", [None, 2, 5])
def test_dual_is_the_gale_transform(d):
    """chi* = +-chi of the Gale transform and chi** = +-chi, for r = 1..5
    and n = r + 1..r + 4; the dual's signs are in sorted order."""
    rng = random.Random(61 + (d or 0))
    for r in range(1, 6):
        for n in range(r + 1, r + 5):
            ns = random_normal_system(rng, r, n, d)
            dual = ns.chirotope.dual()
            assert list(dual.signs) == list(combinations(ns.labels, n - r))
            assert up_to_sign(dual, gale_chirotope(ns))
            assert up_to_sign(dual.dual(), ns.chirotope)


@pytest.mark.parametrize("d", [None, 5])
def test_dual_matches_the_definition(d):
    """chi*(T) = chi(T') sgn(T' + T), T' the sorted complement of T, with
    the parity counted here by inversions, for r = 1..6 and n = r + 1..
    r + 3 on labels with gaps, so positions and label values differ.  The
    dual's bases are in sorted order, which ``zero`` and the early exit of
    the witness check read."""
    rng = random.Random(63 + (d or 0))
    gapped = (2, 5, 7, 11, 13, 17, 19, 23, 29)
    for r in range(1, 7):
        for n in range(r + 1, r + 4):
            ns = random_normal_system(rng, r, n, d)
            labels = gapped[:n]
            chi = Chirotope(r, dict(zip(labels, ns.vectors)))
            dual = chi.dual()
            assert (dual.rank, dual.labels) == (n - r, labels)
            assert list(dual.signs) == sorted(dual.signs)
            assert list(dual.signs) == list(combinations(labels, n - r))
            for rest, s in dual.signs.items():
                comp = tuple(q for q in labels if q not in rest)
                inversions = sum(a > b for a, b in combinations(comp + rest, 2))
                assert s == chi.signs[comp] * (-1) ** inversions


def test_minor_count_guard(monkeypatch):
    """The expansion takes sum_{k <= r} C(n, k) minors, 2^21 - 2 for 21
    vectors in F^20: refused before any is computed.  At the limit the
    build runs."""
    rows = [[int(i == j) for j in range(20)] for i in range(20)] + [[1] * 20]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="21 vectors of rank 20 need 2097150 minors"):
        NormalSystem(20, rows)
    assert time.perf_counter() - start < 1
    vectors = dict(enumerate([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], 1))
    monkeypatch.setattr(chirotope, "MAX_MINORS", 4 + 6 + 4)
    assert Chirotope(3, vectors).zero() is None
    monkeypatch.setattr(chirotope, "MAX_MINORS", 4 + 6 + 3)
    with pytest.raises(ValueError, match="limit 13"):
        Chirotope(3, vectors)


def test_repr_shows_rank_labels_and_signs():
    """One sign character per sorted base, zeros included, so that sign
    maps print their contents."""
    vectors = {1: [1, 0], 2: [0, 1], 3: [1, 1], 4: [2, 0]}
    chi = Chirotope(2, vectors)
    # bases 12 13 14 23 24 34
    assert repr(chi) == "Chirotope(rank=2, labels=(1, 2, 3, 4), signs='++0---')"
    smap = concurrency_sign_map(
        HyperplaneArrangement(2, [[1, 0], [0, 1], [1, 1]], [0, 0, 1])
    )
    # the rows (a_i | c_i) have determinant 1
    assert repr(smap) == "Chirotope(rank=3, labels=(1, 2, 3), signs='+')"


def mixed_vectors(rng: random.Random, rank: int, n: int, d: int) -> dict:
    """n vectors in Q(sqrt d)^rank whose entries are QuadExt or Fraction by
    a coin flip (a rational one may have a second denominator); one row
    may be all rational, and one may be zero."""
    vectors = {
        i: [random_scalar(rng, d if rng.random() < 0.5 else None) for _ in range(rank)]
        for i in range(1, n + 1)
    }
    vectors[1][0] = QuadExt(Fraction(1, 7), Fraction(-2, 3), d)  # one QuadExt at least
    if n > 1 and rng.random() < 0.5:
        vectors[rng.randint(2, n)] = [Fraction(0)] * rank
    if n > 2 and rng.random() < 0.5:
        vectors[rng.randint(2, n)] = [random_scalar(rng) for _ in range(rank)]
    return vectors


@pytest.mark.parametrize("d", [2, 3, 5])
def test_quadratic_minors_match_the_quadext_expansion(d):
    """Over Q(sqrt d) each pair (a, b) of ``scaled_minors``, divided by the
    product of its base's scales, equals the minor of the QuadExt expansion
    of the rows as given, and the chirotope reads its sign: ranks 1-4,
    n <= 8."""
    rng, zero_rows = random.Random(70 + d), 0
    for rank in range(1, 5):
        for n in range(rank, 9):
            vectors = mixed_vectors(rng, rank, n, d)
            scale, minors, radicand = scaled_minors(rank, vectors)
            want = reference_minors(rank, vectors)
            assert radicand == d and list(minors) == list(want)
            for base, (a, b) in minors.items():
                k = prod(scale[i] for i in base)
                assert QuadExt(Fraction(a, k), Fraction(b, k), d) == want[base]
            chi = Chirotope(rank, vectors)
            assert chi.signs == {base: sign(x) for base, x in want.items()}
            zero_rows += any(not any(v) for v in vectors.values())
    assert zero_rows >= 5


def test_rational_minors_are_scaled_integers():
    """Over Q the minors stay Python ints: the reference's values times the
    product of the base's scales."""
    rng = random.Random(75)
    for rank in range(1, 5):
        for n in range(rank, 9):
            vectors = {
                i: [random_scalar(rng) for _ in range(rank)] for i in range(1, n + 1)
            }
            scale, minors, radicand = scaled_minors(rank, vectors)
            assert radicand is None
            for base, x in reference_minors(rank, vectors).items():
                assert type(minors[base]) is int
                assert minors[base] == x * prod(scale[i] for i in base)


def test_wall_circuits_match_the_quadext_expansion():
    """``arrangements._circuits`` over Q(sqrt d) reads the scaled pairs of
    ``scaled_minors``: each wall is that of the QuadExt expansion of the
    normals as given times the product of the row scales k_i over S, rows
    mixing Fraction and QuadExt entries included.  Its entries on S are
    QuadExt values with Fraction parts, so dividing them stays exact."""
    rng = random.Random(76)
    for d, m, n in [(2, 1, 4), (3, 2, 6), (5, 3, 7), (2, 4, 7)]:
        ha = random_arrangement(rng, m, n, d)
        # the last m normals all rational: the minor of their base has no
        # sqrt d part
        coeffs = [list(r) for r in ha.coeffs[:-m]]
        coeffs += [[random_scalar(rng) for _ in range(m)] for _ in range(m)]
        ha = HyperplaneArrangement(m, coeffs, ha.constants)
        vectors = dict(zip(ha.labels, ha.coeffs))
        minors, scale = reference_minors(m, vectors), scaled_minors(m, vectors)[0]
        hom = concurrency_sign_map(ha).signs
        for sub, v in arrangements._circuits(ha).items():
            s, k = hom[sub] * (-1) ** m, prod(scale[i] for i in sub)
            want = [0] * n
            for j, i in enumerate(sub):
                want[i - 1] = (-s if j % 2 else s) * minors[sub[:j] + sub[j + 1 :]] * k
            assert v == want
            for i in sub:
                assert type(v[i - 1]) is QuadExt and v[i - 1].d == d
                assert type(v[i - 1].a) is type(v[i - 1].b) is Fraction


def test_two_quadratic_fields_never_mix():
    with pytest.raises(FieldTagMismatch, match=r"cannot mix sqrt\(2\) and sqrt\(3\)"):
        Chirotope(1, {1: [QuadExt(0, 1, 2)], 2: [QuadExt(0, 1, 3)]})
