import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from normsys import (
    HyperplaneArrangement,
    Matrix,
    Region,
    SignedBijection,
    adjacent_cone_constants,
    affine_image,
    arrangements_isomorphic,
    concurrency_sign_map,
    cone_facets,
    definition_oracle_isomorphic,
    enumerate_regions,
    induced_sign_map,
    is_infinity_arrangement,
    is_simplex_polyhedrality,
    normal_system_of,
    predicted_counts,
    region_counts,
    simplex_orientation_check,
    sign,
)
from normsys import fm
from normsys.arrangements import _vertex_sides
from conftest import (
    random_arrangement,
    random_invertible,
    random_simplex_arrangement,
    vertex_of,
)


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def three_lines():
    return HyperplaneArrangement(
        2,
        frac_rows([[1, 0], [0, 1], [1, 1]]),
        [Fraction(0), Fraction(0), Fraction(1)],
    )


def test_validity_rejects_concurrency():
    # three lines through the origin
    ha = HyperplaneArrangement(
        2,
        frac_rows([[1, 0], [0, 1], [1, 1]]),
        [Fraction(0), Fraction(0), Fraction(0)],
        check=False,
    )
    assert not ha.is_valid()
    assert three_lines().is_valid()


def test_region_counts_three_lines():
    ha = three_lines()
    assert region_counts(ha) == (7, 1, 6)
    assert predicted_counts(3, 2) == (7, 1, 6)
    regions = enumerate_regions(ha)
    assert len(regions) == 7
    assert sum(1 for r in regions if r.bounded) == 1


def test_region_counts_random():
    rng = random.Random(40)
    for _ in range(5):
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, 6)
        ha = random_arrangement(rng, m, n)
        assert region_counts(ha) == predicted_counts(n, m)


def _region_constraints(ha, signs):
    return [
        fm.constraint([s * x for x in row], s * c, True)
        for s, row, c in zip(signs, ha.coeffs, ha.constants)
    ]


def _region_feasible(ha, signs):
    return fm.feasible(_region_constraints(ha, signs), ha.m)


def _region_bounded(ha, signs):
    # bounded iff the recession cone {d : s_i a_i . d >= 0} is {0}
    base = [
        fm.constraint([s * x for x in row], Fraction(0), False)
        for s, row in zip(signs, ha.coeffs)
    ]
    if ha.n >= ha.m:
        # the normals span F^m, so a nonzero d in the cone has some
        # s_i a_i . d > 0, and then their sum is positive: one FM run
        total = [
            sum((s * row[j] for s, row in zip(signs, ha.coeffs)), Fraction(0))
            for j in range(ha.m)
        ]
        return not fm.feasible(base + [fm.constraint(total, Fraction(0), True)], ha.m)
    # a nonzero direction can be scaled so some coordinate is +-1
    for j in range(ha.m):
        for val in (1, -1):
            unit = [Fraction(0)] * ha.m
            unit[j] = Fraction(1)
            cons = base + fm.equality_constraints(unit, Fraction(val))
            if fm.feasible(cons, ha.m):
                return False
    return True


def fm_regions(ha):
    """Oracle: Fourier-Motzkin feasibility of every one of the 2^n sign
    vectors, and boundedness from the recession cone."""
    return sorted(
        Region(signs, _region_bounded(ha, signs))
        for signs in product((-1, 1), repeat=ha.n)
        if _region_feasible(ha, signs)
    )


@pytest.mark.parametrize("d", [None, 2, 5])
def test_regions_match_fm_oracle(d):
    rng = random.Random(48 + (d or 0))
    for m in (1, 2, 3):
        for n in range(8):
            ha = random_arrangement(rng, m, n, d)
            assert enumerate_regions(ha) == fm_regions(ha), (m, n, d)


def grown_arrangement(rng, m, n):
    """General position built one hyperplane at a time; drawing all n at
    once rarely succeeds beyond n = 10."""
    coeffs, constants = [], []
    while len(coeffs) < n:
        row = [Fraction(rng.randint(-9, 9)) for _ in range(m)]
        c = Fraction(rng.randint(-9, 9))
        if HyperplaneArrangement(m, coeffs + [row], constants + [c], check=False).is_valid():
            coeffs.append(row)
            constants.append(c)
    return HyperplaneArrangement(m, coeffs, constants)


def test_region_counts_beyond_ten_hyperplanes():
    rng = random.Random(49)
    for m, n in ((2, 14), (3, 12)):
        assert region_counts(grown_arrangement(rng, m, n)) == predicted_counts(n, m)


@pytest.mark.parametrize("d", [None, 2])
def test_vertex_sides_match_solved_vertices(d):
    rng = random.Random(50 + (d or 0))
    for _ in range(10):
        m = rng.randint(1, 3)
        ha = random_arrangement(rng, m, rng.randint(m + 1, 6), d)
        _, side = _vertex_sides(ha)
        for base in combinations(ha.labels, m):
            v = vertex_of(ha, base)
            for h in ha.labels:
                if h not in base:
                    lhs = sum(a * x for a, x in zip(ha.row(h), v))
                    assert side(base, h) == sign(lhs - ha.constant(h))


def test_standard_simplex_orientation():
    ha = HyperplaneArrangement(
        2,
        frac_rows([[-1, 0], [0, -1], [1, 1]]),
        [Fraction(0), Fraction(0), Fraction(1)],
    )
    vsign, nsign = simplex_orientation_check(ha)
    assert vsign == nsign


def test_random_simplex_orientation_agreement():
    rng = random.Random(41)
    for _ in range(25):
        m = rng.randint(1, 3)
        ha = random_simplex_arrangement(rng, m)
        vsign, nsign = simplex_orientation_check(ha)
        assert vsign == nsign


def test_sign_map_three_lines():
    smap = concurrency_sign_map(three_lines())
    assert len(smap) == 1
    assert smap[(1, 2, 3)] in (1, -1)


def test_identity_induces_own_sign_map():
    rng = random.Random(42)
    ha = random_arrangement(rng, 2, 5)
    ident = SignedBijection.identity(ha.labels)
    assert induced_sign_map(ha, ident) == concurrency_sign_map(ha)


def test_affine_image_isomorphic():
    rng = random.Random(43)
    for _ in range(3):
        m = rng.randint(2, 3)
        ha = random_arrangement(rng, m, 5)
        mat = random_invertible(rng, m)
        shift = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        img = affine_image(ha, mat, shift)
        res = arrangements_isomorphic(ha, img)
        assert res.isomorphic
        assert res.branch in ("a", "b")
        assert definition_oracle_isomorphic(ha, img)


def test_self_isomorphic():
    rng = random.Random(44)
    ha = random_arrangement(rng, 2, 4)
    res = arrangements_isomorphic(ha, ha)
    assert res.isomorphic


def test_cone_move_flips_exactly_one_sign():
    rng = random.Random(45)
    ha = random_arrangement(rng, 2, 5)
    facets = cone_facets(ha)
    assert facets
    facet = facets[0]
    assert is_simplex_polyhedrality(ha, facet)
    moved = HyperplaneArrangement(
        ha.m, [list(r) for r in ha.coeffs], adjacent_cone_constants(ha, facet)
    )
    s1 = concurrency_sign_map(ha)
    s2 = concurrency_sign_map(moved)
    flips = [k for k, v in s1 if s2[k] != v]
    assert flips == [facet]
    # moving back across the same wall restores the original sign map
    back = HyperplaneArrangement(
        ha.m,
        [list(r) for r in ha.coeffs],
        adjacent_cone_constants(moved, facet),
    )
    assert concurrency_sign_map(back) == s1


def test_cone_facets_are_polyhedralities():
    # every cone facet is a simplex polyhedrality; the converse fails
    rng = random.Random(46)
    for _ in range(3):
        ha = random_arrangement(rng, 2, 5)
        polys = {
            sub
            for sub in combinations(ha.labels, ha.m + 1)
            if is_simplex_polyhedrality(ha, sub)
        }
        assert set(cone_facets(ha)) <= polys
    # (2, 4, 6) bounds a region, yet its concurrency wall is not a facet
    ha = random_arrangement(random.Random(65), 2, 6)
    polys = {
        sub for sub in combinations(ha.labels, 3) if is_simplex_polyhedrality(ha, sub)
    }
    facets = set(cone_facets(ha))
    assert facets < polys
    assert polys - facets == {(2, 4, 6)}


def test_infinity_arrangement_examples():
    # a triangle plus a distant line admits an infinity ordering
    ha = HyperplaneArrangement(
        2,
        frac_rows([[-1, 0], [0, -1], [1, 1], [1, 2]]),
        [Fraction(0), Fraction(0), Fraction(1), Fraction(100)],
    )
    ok, order = is_infinity_arrangement(ha)
    assert ok
    assert order[-1] == 4
    # a line crossing the triangle's interior can never be placed last
    crossing = HyperplaneArrangement(
        2,
        frac_rows([[-1, 0], [0, -1], [1, 1], [1, -1]]),
        [Fraction(0), Fraction(0), Fraction(1), Fraction(1, 3)],
    )
    ok, order = is_infinity_arrangement(crossing)
    if ok:
        assert order[-1] != 4


def test_normal_system_roundtrip():
    ha = three_lines()
    ns = normal_system_of(ha)
    assert ns.m == 2 and ns.n == 3
    assert ns.is_valid()


def test_shape_mismatch_rejected():
    rng = random.Random(47)
    a = random_arrangement(rng, 2, 4)
    b = random_arrangement(rng, 2, 5)
    with pytest.raises(ValueError):
        arrangements_isomorphic(a, b)
