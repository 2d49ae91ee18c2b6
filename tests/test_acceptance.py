"""Acceptance gate: one test per top-level criterion, each reporting a
single pass/fail line.  Runtime budgets are asserted alongside the
substance.  One sub-claim is irreproducible and is reported as an honest
failure (expected-failure marker keeps the suite green); see the decisions
ledger in the project notes for the evidence.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from normsys import (
    HyperplaneArrangement,
    Matrix,
    SignedBijection,
    adjacent_cone_constants,
    affine_image,
    all_orbits,
    all_symbols,
    arrangements_isomorphic,
    automorphisms,
    compatible_symbols,
    cone_facets,
    definition_oracle_isomorphic,
    det,
    find_isomorphisms,
    is_simplex_polyhedrality,
    line_cycle,
    load_fixture,
    oracle_isomorphisms,
    positive_combination,
    predicted_counts,
    project_arrangement,
    region_counts,
    sign,
    simplex_orientation_check,
    standard_arrangement,
)
from normsys.linalg import projectors, rank
from normsys.symbols import triple_determinant_sign
from conftest import (
    random_arrangement,
    random_invertible,
    random_normal_system,
    random_simplex_arrangement,
    random_sphere_arrangement,
    transformed_system,
    vertex_of,
)


@pytest.fixture
def report(capsys):
    def emit(line):
        with capsys.disabled():
            print(line)

    return emit


def test_criterion_01_worked_example_tables(report):
    start = time.monotonic()
    equations = 0
    for fid in ("U1", "U2"):
        ns = load_fixture(fid).payload
        arr = ns.to_arrangement()
        stored = load_fixture(f"{fid}-cycles").payload
        assert len(stored) == 12
        for (j, s), cyc in stored.items():
            assert line_cycle(arr, j, positive=(s > 0)) == cyc
        for eq in load_fixture(f"{fid}-equations").payload:
            assert eq.holds_for(ns)
            equations += 1
    assert equations == 30
    elapsed = time.monotonic() - start
    assert elapsed < 5
    report(
        f"criterion 01 (worked-example cycle tables and 30 equations): "
        f"PASS [{elapsed:.2f}s]"
    )


def test_criterion_02_six_pair_non_isomorphism(report):
    u1 = load_fixture("U1").payload
    u2 = load_fixture("U2").payload
    start = time.monotonic()
    assert find_isomorphisms(u1, u2) == []
    pruned = time.monotonic() - start
    assert pruned < 5
    start = time.monotonic()
    assert oracle_isomorphisms(u1, u2) == []
    brute = time.monotonic() - start
    assert brute < 60
    report(
        f"criterion 02 (six-pair systems non-isomorphic, both deciders): "
        f"PASS [pruned {pruned:.2f}s, exhaustive {brute:.2f}s]"
    )


def test_criterion_03_symbol_algebra(report):
    start = time.monotonic()
    syms = all_symbols()
    assert len(syms) == len(set(syms)) == 384
    orbits = all_orbits()
    assert len(orbits) == 16
    assert all(len(o) == 24 for o in orbits)  # full orbits <=> free action
    arr = standard_arrangement()
    negdet = [s for s in syms if triple_determinant_sign(arr, s.triple) < 0]
    assert len(negdet) == 192
    stored = load_fixture("S4-symbols").payload
    assert compatible_symbols(arr) == stored
    assert len(stored) == 24
    elapsed = time.monotonic() - start
    assert elapsed < 5
    report(
        f"criterion 03 (symbol algebra: 384 symbols, 16 free orbits of 24, "
        f"192 negative-determinant, compatible set verbatim): PASS "
        f"[{elapsed:.2f}s]"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the 192 negative-determinant symbols span 15 orbits, not 8; "
    "the stated orbit count is not reproducible (orientation sign is not "
    "constant on orbits) — recorded as an honest failure",
)
def test_criterion_03_negdet_orbit_span(report):
    arr = standard_arrangement()
    negdet = {
        s for s in all_symbols() if triple_determinant_sign(arr, s.triple) < 0
    }
    touched = [o for o in all_orbits() if o & negdet]
    report(
        f"criterion 03 (negative-determinant symbols in 8 orbits): FAIL — "
        f"the 192 symbols span {len(touched)} orbits, not 8"
    )
    assert len(touched) == 8


def test_criterion_04_automorphism_group(report):
    start = time.monotonic()
    auts = automorphisms(standard_arrangement())
    assert len(auts) == 48
    keys = {a.key() for a in auts}
    assert len(keys) == 48
    assert SignedBijection.identity((1, 2, 3, 4)).key() in keys
    for a in auts:
        for b in auts:
            assert a.compose(b).key() in keys
    elapsed = time.monotonic() - start
    assert elapsed < 5
    report(
        f"criterion 04 (four-pair automorphism group of order 48): PASS "
        f"[{elapsed:.2f}s]"
    )


def test_criterion_05_region_count_formulas(report):
    rng = random.Random(105)
    start = time.monotonic()
    for _ in range(50):
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, 7)
        ha = random_arrangement(rng, m, n)
        assert region_counts(ha) == predicted_counts(n, m)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(
        f"criterion 05 (region counts match closed forms on 50 random "
        f"arrangements): PASS [{elapsed:.2f}s]"
    )


def test_criterion_06_orientation_signs(report):
    rng = random.Random(106)
    start = time.monotonic()
    for _ in range(1000):
        m = rng.randint(1, 3)
        ha = random_simplex_arrangement(rng, m)
        vsign, nsign = simplex_orientation_check(ha)
        assert vsign == nsign
    for _ in range(20):
        m = rng.randint(2, 3)
        n = rng.randint(m + 2, 5)
        ha = random_arrangement(rng, m, n)
        mat = random_invertible(rng, m)
        shift = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        img = affine_image(ha, mat, shift)
        d = sign(det(mat))
        for sub in combinations(ha.labels, m + 1):
            def orientation(arr):
                verts = [
                    vertex_of(arr, [j for j in sub if j != i]) for i in sub
                ]
                return sign(det(Matrix([[Fraction(1)] + list(v) for v in verts])))

            # agreement is uniform across subsets: the map's determinant sign
            assert orientation(img) == d * orientation(ha)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(
        f"criterion 06 (vertex orientation vs bordered determinant on 1000 "
        f"simplices; uniform agreement on 20 affine pairs): PASS "
        f"[{elapsed:.2f}s]"
    )


def test_criterion_07_decision_vs_definition_oracle(report):
    rng = random.Random(107)
    start = time.monotonic()
    pairs = []
    # related pairs: affine images and single adjacent-cone moves
    for _ in range(7):
        m = rng.randint(2, 3)
        n = rng.randint(m + 2, 5)
        ha = random_arrangement(rng, m, n)
        mat = random_invertible(rng, m)
        shift = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        pairs.append((ha, affine_image(ha, mat, shift)))
    moves = 0
    while moves < 3:
        ha = random_arrangement(rng, 2, rng.randint(4, 5))
        facets = cone_facets(ha)
        if not facets:
            continue
        moved = HyperplaneArrangement(
            ha.m,
            [list(r) for r in ha.coeffs],
            adjacent_cone_constants(ha, facets[0]),
        )
        pairs.append((ha, moved))
        moves += 1
    # unrelated pairs: same coefficients, independently drawn constants
    for _ in range(10):
        m = rng.randint(2, 3)
        n = rng.randint(m + 2, 5)
        ha = random_arrangement(rng, m, n)
        other = random_arrangement(rng, m, n)
        pairs.append((ha, other))
    assert len(pairs) == 20
    for ha1, ha2 in pairs:
        decided = arrangements_isomorphic(ha1, ha2).isomorphic
        assert decided == definition_oracle_isomorphic(ha1, ha2)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(
        f"criterion 07 (arrangement decision agrees with the definition "
        f"oracle on 20 pairs): PASS [{elapsed:.2f}s]"
    )


def test_criterion_08_cone_facets_are_polyhedralities(report):
    # the converse inclusion is false; see test_cone_facets_are_polyhedralities
    rng = random.Random(108)
    start = time.monotonic()
    for _ in range(20):
        n = rng.randint(4, 6)
        ha = random_arrangement(rng, 2, n)
        polys = {
            sub
            for sub in combinations(ha.labels, ha.m + 1)
            if is_simplex_polyhedrality(ha, sub)
        }
        assert set(cone_facets(ha)) <= polys
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(
        f"criterion 08 (every cone facet is a simplex polyhedrality on 20 "
        f"arrangements): PASS [{elapsed:.2f}s]"
    )


def test_criterion_09_projection_signs_and_projectors(report):
    rng = random.Random(109)
    start = time.monotonic()
    for _ in range(20):
        n = rng.randint(5, 7)
        arr = random_sphere_arrangement(rng, 3, n)
        # projector identities for the span of a random pair of reps
        while True:
            i, j = rng.sample(arr.labels, 2)
            span = Matrix([list(arr.points[i].rep), list(arr.points[j].rep)])
            if rank(span) == 2:
                break
        pq = projectors(span)
        ident = Matrix.identity(4)
        assert pq.p + pq.q == ident
        assert pq.p * pq.p == pq.p and pq.q * pq.q == pq.q
        assert pq.p.transpose() == pq.p and pq.q.transpose() == pq.q
        # sign preservation under projection, exhaustive per projection pair
        for pivot in arr.labels:
            proj = project_arrangement(arr, [pivot])
            rest = [x for x in arr.labels if x != pivot]
            for basis in combinations(rest, 3):
                for u in rest:
                    if u in basis:
                        continue
                    full = positive_combination(
                        arr.points[u],
                        [arr.points[pivot]] + [arr.points[b] for b in basis],
                    )
                    shadow = positive_combination(
                        proj.points[u], [proj.points[b] for b in basis]
                    )
                    assert full.signs[1:] == shadow.signs
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(
        f"criterion 09 (combination signs survive projection; projector "
        f"identities exact on 20 arrangements): PASS [{elapsed:.2f}s]"
    )


def test_criterion_10_witness_sets_agree(report):
    rng = random.Random(110)
    start = time.monotonic()
    pairs = []
    for _ in range(10):
        m = rng.randint(1, 4)
        n = rng.randint(max(m, 3), 6)
        ns = random_normal_system(rng, m, n)
        pairs.append((ns, transformed_system(rng, ns)))
    for _ in range(5):
        m = rng.randint(2, 4)
        n = rng.randint(max(m, 3), 6)
        ns = random_normal_system(rng, m, n)
        pairs.append((ns, ns))
    for _ in range(15):
        m = rng.randint(1, 4)
        n = rng.randint(max(m, 3), 6)
        pairs.append(
            (random_normal_system(rng, m, n), random_normal_system(rng, m, n))
        )
    assert len(pairs) == 30
    for a, b in pairs:
        assert sorted(find_isomorphisms(a, b)) == sorted(oracle_isomorphisms(a, b))
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(
        f"criterion 10 (pruned search equals exhaustive oracle as witness "
        f"sets on 30 pairs): PASS [{elapsed:.2f}s]"
    )
