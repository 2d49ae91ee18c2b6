import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from normsys import (
    HyperplaneArrangement,
    IsoResult,
    Matrix,
    QuadExt,
    Region,
    SignedBijection,
    adjacent_cone_constants,
    arrangements_isomorphic,
    concurrency_sign_map,
    cone_facets,
    definition_oracle_isomorphic,
    det,
    enumerate_regions,
    find_isomorphisms,
    induced_sign_map,
    is_convex_positive_bijection,
    is_infinity_arrangement,
    is_simplex_polyhedrality,
    normal_system_of,
    polyhedralities,
    predicted_counts,
    region_counts,
    sign,
)
from normsys import arrangements, fm
from normsys.chirotope import Chirotope, pullback_sign
from normsys.arrangements import (
    _line_masks, _line_vertex_order, _side_table, _sides, isomorphic_by_definition
)
from conftest import (
    affine_image,
    inserted,
    orientation,
    random_arrangement,
    planted_arrangement,
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


@pytest.mark.parametrize("m", [1, 2, 3])
def test_no_hyperplanes_leave_one_unbounded_region(m):
    """With n = 0 the closed form reads C(-1, k) as 0."""
    assert region_counts(HyperplaneArrangement(m, [], [])) == predicted_counts(0, m) == (1, 0, 1)


def test_input_not_in_general_position_is_rejected():
    concurrent = HyperplaneArrangement(2, [[1, 0], [0, 1], [1, 1]], [0, 0, 0], check=False)
    parallel = HyperplaneArrangement(2, [[1, 0], [1, 0], [0, 1]], [0, 1, 0], check=False)
    for ha, bad in ((concurrent, r"\(1, 2, 3\)"), (parallel, r"\(1, 2\)")):
        for call in (region_counts, is_infinity_arrangement):
            with pytest.raises(ValueError, match=bad + " are not in general position"):
                call(ha)
        with pytest.raises(ValueError, match=bad):
            is_simplex_polyhedrality(ha, (1, 2, 3))
    # below n = m the lift has no bases: dependent normals fail validation
    planes = HyperplaneArrangement(3, [[1, 0, 0], [1, 0, 0]], [0, 1], check=False)
    with pytest.raises(ValueError, match="not a general-position"):
        region_counts(planes)


def test_region_counts_reads_the_module_enumeration(monkeypatch):
    # the regions benchmark replaces this global to check every region
    calls = []
    regions = [Region((1, 1), True), Region((1, -1), False), Region((-1, 1), False)]

    def enumerate_once(ha):
        calls.append(ha)
        return regions

    monkeypatch.setattr(arrangements, "enumerate_regions", enumerate_once)
    ha = three_lines()
    assert region_counts(ha) == (3, 1, 2)
    assert len(calls) == 1 and calls[0] is ha


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


def _fills(free, pattern):
    """Every sign vector equal to pattern off the labels in free."""
    out = set()
    for choice in product((-1, 1), repeat=len(free)):
        for i, s in zip(free, choice):
            pattern[i - 1] = s
        out.add(tuple(pattern))
    return out


def reference_regions(ha):
    """Reference for ``enumerate_regions`` with one tuple per candidate: the
    vertex sides -chi(B, e) chi(B, h) of each m-subset B with all 2^m signs
    on B, unbounded iff some cocircuit chi(L, h, e) of an (m-1)-subset L or
    its negation matches off L; the Regions sorted."""
    labels, m = ha.labels, ha.m
    if ha.n < m:
        return sorted(Region(s, False) for s in product((-1, 1), repeat=ha.n))
    signs, e = ha.lift.chirotope.signs, (ha.n + 1,)
    regions, unbounded = set(), set()
    for base in combinations(labels, m):
        sides = [0 if h in base else -signs[base + e] * inserted(signs, base, h) for h in labels]
        regions |= _fills(base, sides)
    for line in combinations(labels, m - 1):
        ray = [0 if h in line else inserted(signs, line, h, e) for h in labels]
        unbounded |= _fills(line, ray) | _fills(line, [-s for s in ray])
    return sorted(Region(s, s not in unbounded) for s in regions)


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
            assert enumerate_regions(ha) == reference_regions(ha) == fm_regions(ha), (m, n, d)


def grown_arrangement(rng, m, n, d=None):
    """General position built one hyperplane at a time; drawing all n at
    once rarely succeeds beyond n = 10.  Integer entries, or a + b*sqrt(d)
    with integers a, b."""
    def entry():
        if d is None:
            return Fraction(rng.randint(-9, 9))
        return QuadExt(rng.randint(-9, 9), rng.randint(-9, 9), d)

    coeffs, constants = [], []
    while len(coeffs) < n:
        row = [entry() for _ in range(m)]
        c = entry()
        if HyperplaneArrangement(m, coeffs + [row], constants + [c], check=False).is_valid():
            coeffs.append(row)
            constants.append(c)
    return HyperplaneArrangement(m, coeffs, constants)


def test_region_counts_beyond_ten_hyperplanes():
    rng = random.Random(49)
    for m, n in ((2, 14), (3, 12)):
        ha = grown_arrangement(rng, m, n)
        assert region_counts(ha) == predicted_counts(n, m)
        assert enumerate_regions(ha) == reference_regions(ha)


@pytest.mark.parametrize("d", [2, 5])
def test_quadratic_region_counts_beyond_the_oracle(d):
    # the FM oracle stops at n = 7; these sizes rest on the formula and
    # on the reference enumeration
    rng = random.Random(70 + d)
    for m, n in ((2, 10), (3, 9)):
        ha = grown_arrangement(rng, m, n, d)
        assert region_counts(ha) == predicted_counts(n, m)
        assert enumerate_regions(ha) == reference_regions(ha)


def test_planted_quadratic_arrangement_isomorphic():
    rng = random.Random(77)
    ha = grown_arrangement(rng, 3, 8, 5)
    img = planted_arrangement(rng, ha, 5)
    res = arrangements_isomorphic(ha, img)
    assert res.isomorphic
    assert is_convex_positive_bijection(
        res.witness, normal_system_of(ha), normal_system_of(img)
    )


def solved_sides(ha):
    """sign(a_h . v_B - c_h) for every m-subset B and label h outside it,
    at the vertex v_B solved for."""
    sides = {}
    for base in combinations(ha.labels, ha.m):
        v = vertex_of(ha, base)
        for h in ha.labels:
            if h not in base:
                lhs = sum(a * x for a, x in zip(ha.row(h), v))
                sides[base, h] = sign(lhs - ha.constant(h))
    return sides


@pytest.mark.parametrize("d", [None, 2])
def test_vertex_sides_match_solved_vertices(d):
    rng = random.Random(50 + (d or 0))
    for _ in range(10):
        m = rng.randint(1, 3)
        ha = random_arrangement(rng, m, rng.randint(m + 1, 6), d)
        plus, _ = _sides(ha)
        want = {base: 0 for base in combinations(ha.labels, m)}
        for (base, h), s in solved_sides(ha).items():
            want[base] |= (s > 0) << (ha.n - h)
        assert plus == want


def read_every_side(ha):
    """What each reader of the kept side table returns on ha."""
    facets = cone_facets(ha)
    return [
        region_counts(ha),
        enumerate_regions(ha),
        polyhedralities(ha),
        [is_simplex_polyhedrality(ha, s) for s in combinations(ha.labels, ha.m + 1)],
        is_infinity_arrangement(ha),
        facets,
        [adjacent_cone_constants(ha, f) for f in facets],
    ]


def test_side_table_is_built_once_per_arrangement(monkeypatch):
    builds = {"sides": [], "masks": []}
    monkeypatch.setattr(
        arrangements, "_side_table", lambda chi: builds["sides"].append(chi) or _side_table(chi)
    )
    monkeypatch.setattr(
        arrangements, "_line_masks", lambda chi: builds["masks"].append(chi) or _line_masks(chi)
    )
    ha = random_arrangement(random.Random(45), 2, 5)
    first = read_every_side(ha)
    assert first[5] and read_every_side(ha) == first
    chi = ha.lift.chirotope
    assert [id(c) for c in builds["sides"]] == [id(c) for c in builds["masks"]] == [id(chi)]


@pytest.mark.parametrize("d", [None, 2, 5])
def test_kept_side_table_gives_the_results_of_fresh_arrangements(d):
    rng = random.Random(60 + (d or 0))
    for m in range(1, 5):
        for n in (m - 1, m, m + 1, m + 3):
            ha = random_arrangement(rng, m, n, d)
            cold = read_every_side(ha)
            fresh = HyperplaneArrangement(m, ha.coeffs, ha.constants)
            assert read_every_side(ha) == read_every_side(fresh) == cold, (m, n)


def test_refused_input_stays_refused():
    # the builder raises and keeps nothing, so every call raises again
    parallel = HyperplaneArrangement(2, [[1, 0], [1, 0], [0, 1], [1, 1]], [0, 1, 0, 5], check=False)
    concurrent = HyperplaneArrangement(2, [[1, 0], [0, 1], [1, 1], [1, 2]], [0, 0, 0, 5], check=False)
    planes = HyperplaneArrangement(3, [[1, 0, 0], [1, 0, 0]], [0, 1], check=False)
    subsets = list(combinations((1, 2, 3, 4), 3))
    readers = [region_counts, enumerate_regions, polyhedralities, is_infinity_arrangement, cone_facets]
    readers += [lambda ha, s=s: is_simplex_polyhedrality(ha, s) for s in subsets]
    readers += [lambda ha, s=s: adjacent_cone_constants(ha, s) for s in subsets]
    for ha in (parallel, concurrent, planes):
        for read in readers:
            messages = []
            for _ in range(2):
                with pytest.raises(ValueError) as err:
                    read(ha)
                messages.append(str(err.value))
            assert messages[0] == messages[1]
        tables = ha.lift.chirotope._tables
        assert _side_table not in tables and _line_masks not in tables


def test_enumerated_regions_are_public_regions():
    rng = random.Random(62)
    for m, n in ((1, 4), (2, 6), (3, 7), (3, 2)):
        regions = enumerate_regions(random_arrangement(rng, m, n))
        public = [Region(list(r.signs), r.bounded) for r in regions]
        assert regions == public and [type(r) for r in regions] == [Region] * len(public)
        assert [hash(r) for r in regions] == [hash(r) for r in public]
        assert [repr(r) for r in regions] == [repr(r) for r in public]
        assert sorted(reversed(public)) == public == sorted(regions)
        for r in regions:
            assert type(r.signs) is tuple and type(r.bounded) is bool
            for name in ("signs", "bounded", "other"):
                with pytest.raises(AttributeError):
                    setattr(r, name, None)


def reference_polyhedrality(ha, sides, subset) -> bool:
    return all(
        len({sides[tuple(j for j in subset if j != i), h] for i in subset}) == 1
        for h in ha.labels
        if h not in subset
    )


def reference_infinity_arrangement(ha, sides):
    """The ordering search of ``is_infinity_arrangement``, in the same label
    order, on sides read off solved vertices."""
    dead = set()

    def extend(built, order):
        if len(order) == ha.n:
            return order
        if built in dead:
            return None
        for h in ha.labels:
            if h in built:
                continue
            if len({sides[sub, h] for sub in combinations(sorted(built), ha.m)}) <= 1:
                res = extend(built | {h}, order + (h,))
                if res is not None:
                    return res
        dead.add(built)
        return None

    result = extend(frozenset(), ())
    return result is not None, result


@pytest.mark.parametrize("d", [None, 2, 5])
def test_polyhedralities_match_solved_vertices(d):
    rng = random.Random(80 + (d or 0))
    found = set()
    for m in (1, 2, 3):
        for n in range(m + 1, 9):
            ha = random_arrangement(rng, m, n, d)
            sides = solved_sides(ha)
            want = []
            for sub in combinations(ha.labels, m + 1):
                bounds = reference_polyhedrality(ha, sides, sub)
                assert is_simplex_polyhedrality(ha, sub) == bounds, (m, n, sub)
                want += [sub] if bounds else []
                found.add(("polyhedrality", bounds))
            assert polyhedralities(ha) == want, (m, n)
            got = is_infinity_arrangement(ha)
            assert got == reference_infinity_arrangement(ha, sides), (m, n)
            found.add(("infinity", got[0]))
    assert len(found) == 4


def test_standard_simplex_orientation():
    ha = HyperplaneArrangement(
        2,
        frac_rows([[-1, 0], [0, -1], [1, 1]]),
        [Fraction(0), Fraction(0), Fraction(1)],
    )
    assert orientation(ha, ha.labels) == ha.lift.chirotope.signs[ha.labels]


def test_random_simplex_orientation_agreement():
    rng = random.Random(41)
    for _ in range(25):
        m = rng.randint(1, 3)
        ha = random_simplex_arrangement(rng, m)
        assert orientation(ha, ha.labels) == ha.lift.chirotope.signs[ha.labels]


def test_sign_map_three_lines():
    smap = concurrency_sign_map(three_lines())
    assert len(smap.signs) == 1
    assert smap.signs[(1, 2, 3)] in (1, -1)


def test_sign_map_is_kept_with_the_lift():
    """chi_hom is copied from the lift's signs once: two calls return the
    same object.  A concurrent arrangement raises on every call, and so
    does one whose normals are dependent but has no concurrent subset."""
    ha = random_arrangement(random.Random(47), 2, 6)
    hom = concurrency_sign_map(ha)
    assert concurrency_sign_map(ha) is hom
    assert induced_sign_map(ha, SignedBijection.identity(ha.labels)) == hom
    bad = HyperplaneArrangement(2, [[1, 0], [0, 1], [1, 1]], [0, 0, 0], check=False)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"hyperplanes \(1, 2, 3\) are concurrent"):
            concurrency_sign_map(bad)
    for m, coeffs, constants in [
        (2, [[1, 0], [2, 0], [0, 1]], [0, 1, 0]),  # two parallel lines
        (3, [[1, 0, 0], [1, 0, 0]], [0, 1]),  # two parallel planes
    ]:
        dependent = HyperplaneArrangement(m, coeffs, constants, check=False)
        ident = SignedBijection.identity(dependent.labels)
        for _ in range(2):
            for call in (concurrency_sign_map, lambda h: induced_sign_map(h, ident)):
                with pytest.raises(ValueError, match="not a general-position hyperplane"):
                    call(dependent)


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


def reference_arrangements_isomorphic(ha1, ha2) -> IsoResult:
    """The sign-map criterion as stated: the first normal-system witness,
    in sorted order, that pulls chi of the rows (a_i | c_i) back to +-chi,
    with branch "a" for + and "b" for -."""
    hom1, hom2 = (
        Chirotope(ha.m + 1, {i: ha.row(i) + (ha.constant(i),) for i in ha.labels})
        for ha in (ha1, ha2)
    )
    for w in find_isomorphisms(normal_system_of(ha1), normal_system_of(ha2)):
        eps = pullback_sign(hom1, hom2, w)
        if eps:
            return IsoResult(True, w, "a" if eps > 0 else "b")
    return IsoResult(False)


@pytest.mark.parametrize("d", [None, 2, 5])
def test_arrangements_isomorphic_matches_reference(d):
    # at m = 4 the lift has rank 5: the pinned head has three labels, and
    # n = 5 (no anchor) and n = 6 (one) read its images off the probe
    rng = random.Random(60 + (d or 0))
    seen = set()
    for m, n, _ in product((1, 2, 3, 4), range(7), range(3)):
        ha = random_arrangement(rng, m, n, d)
        others = [planted_arrangement(rng, ha, d), random_arrangement(rng, m, n, d)]
        # one concurrency sign flipped: the nearest non-trivial pair
        facets = cone_facets(ha)
        if facets:
            moved = adjacent_cone_constants(ha, facets[0])
            moved_ha = HyperplaneArrangement(m, ha.coeffs, moved)
            others.append(planted_arrangement(rng, moved_ha, d))
        for other in others:
            got = arrangements_isomorphic(ha, other)
            want = reference_arrangements_isomorphic(ha, other)
            assert (got.isomorphic, got.witness, got.branch) == (
                want.isomorphic,
                want.witness,
                want.branch,
            )
            seen.add(got.branch)
    assert seen == {"a", "b", None}


def test_arrangements_isomorphic_on_twelve_points():
    # m = 1: 2 * 12! normal-system witnesses, so only the pinned lift
    # decides this pair in reasonable time
    rng = random.Random(67)
    points = rng.sample(range(-30, 30), 12)
    signs = [rng.choice((1, -1)) for _ in points]
    ha = HyperplaneArrangement(
        1, [[Fraction(s)] for s in signs], [Fraction(s * p) for s, p in zip(signs, points)]
    )
    img = planted_arrangement(rng, ha)
    res = arrangements_isomorphic(ha, img)
    assert res.isomorphic
    assert is_convex_positive_bijection(
        res.witness, normal_system_of(ha), normal_system_of(img)
    )
    smap = concurrency_sign_map(ha)
    flipped = Chirotope._of(smap.rank, smap.labels, {k: -v for k, v in smap.signs.items()})
    assert induced_sign_map(img, res.witness) == (smap if res.branch == "a" else flipped)


def test_self_isomorphic():
    rng = random.Random(44)
    ha = random_arrangement(rng, 2, 4)
    res = arrangements_isomorphic(ha, ha)
    assert res.isomorphic


def not_in_general_position():
    """(invalid arrangement, valid one of its shape, the error's pattern)"""
    bad_input = "not a general-position hyperplane arrangement"
    return [
        (  # two parallel lines
            HyperplaneArrangement(2, [[1, 0], [1, 0]], [0, 1], check=False),
            HyperplaneArrangement(2, [[1, 0], [0, 1]], [0, 0]),
            bad_input,
        ),
        (  # three lines through the origin
            HyperplaneArrangement(2, [[1, 0], [0, 1], [1, 1]], [0, 0, 0], check=False),
            three_lines(),
            r"hyperplanes \(1, 2, 3\) are concurrent",
        ),
        (  # n < m with dependent normals
            HyperplaneArrangement(3, [[1, 0, 0], [1, 0, 0]], [0, 1], check=False),
            HyperplaneArrangement(3, [[1, 0, 0], [0, 1, 0]], [0, 0]),
            bad_input,
        ),
    ]


def test_isomorphism_rejects_input_not_in_general_position():
    # an arrangement error in either position, never a normal-system one
    for bad, good, message in not_in_general_position():
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match=message):
                arrangements_isomorphic(*pair)
        assert arrangements_isomorphic(good, good).isomorphic


def test_definition_oracle_rejects_what_the_decider_rejects():
    # the concurrent x = 0, y = 0, x + y = 0 is refused, not found isomorphic
    # to itself; so is every pair by the per-bijection test
    for bad, good, message in not_in_general_position():
        identity = SignedBijection.identity(bad.labels)
        for pair in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(ValueError, match=message):
                definition_oracle_isomorphic(*pair)
            with pytest.raises(ValueError, match=message):
                isomorphic_by_definition(*pair, identity)
        assert definition_oracle_isomorphic(good, good)


def test_valid_pair_builds_no_concurrency_sign_map(monkeypatch):
    # chi_hom is copied only to name the concurrent subset of invalid input
    rng = random.Random(48)
    ha = random_arrangement(rng, 2, 5)
    copy = planted_arrangement(rng, ha)
    calls = []
    monkeypatch.setattr(arrangements, "concurrency_sign_map", calls.append)
    assert arrangements_isomorphic(ha, copy).isomorphic
    assert definition_oracle_isomorphic(ha, copy)
    assert calls == []


def test_isomorphic_by_definition_at_one_dimension():
    # points on a line: no line to order vertices along
    ha = HyperplaneArrangement(1, [[1], [2], [-1]], [0, 1, 5])
    assert isomorphic_by_definition(ha, ha, SignedBijection.identity(ha.labels))


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
    flips = [k for k, v in s1.signs.items() if s2.signs[k] != v]
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
        assert set(cone_facets(ha)) <= set(polyhedralities(ha))
    # (2, 4, 6) bounds a region, yet its concurrency wall is not a facet
    ha = random_arrangement(random.Random(65), 2, 6)
    polys = set(polyhedralities(ha))
    facets = set(cone_facets(ha))
    assert facets < polys
    assert polys - facets == {(2, 4, 6)}


def _wall_normal(ha, subset):
    """Gradient of c -> det(rows (a_i | c_i), i in subset): the cofactors of
    the last column, one bordered determinant per label."""
    g = [Fraction(0)] * ha.n
    for i in subset:
        rows = [list(ha.row(t)) + [Fraction(int(t == i))] for t in subset]
        g[i - 1] = det(Matrix(rows))
    return g


def fm_facets(ha):
    """Oracle: S is a facet iff {v_S . c = 0, v_T . c > 0 for T != S} is
    feasible, by Fourier-Motzkin elimination.  Bordered determinants do
    not change under c -> c + A x, and the first m rows of A are
    independent, so c is taken zero on the first m labels; the equality is
    solved for one more constant."""
    smap, m = concurrency_sign_map(ha), ha.m
    walls = {
        sub: [smap.signs[sub] * x for x in _wall_normal(ha, sub)[m:]]
        for sub in combinations(ha.labels, m + 1)
    }
    out = []
    for sub, v in walls.items():
        i = next(j for j, x in enumerate(v) if x)
        cons = [
            fm.constraint(
                [w[j] - w[i] * v[j] / v[i] for j in range(len(v)) if j != i],
                Fraction(0),
                True,
            )
            for other, w in walls.items()
            if other != sub
        ]
        if fm.feasible(cons, len(v) - 1):
            out.append(sub)
    return out


def rescaled(ha):
    """The same hyperplanes, each equation divided by its own integer, so
    the normals are no longer integer vectors."""
    ks = [Fraction(1, 2 + i % 3) for i in range(ha.n)]
    return HyperplaneArrangement(
        ha.m,
        [[k * x for x in r] for k, r in zip(ks, ha.coeffs)],
        [k * c for k, c in zip(ks, ha.constants)],
    )


@pytest.mark.parametrize("d", [None, 2, 5])
def test_cone_facets_match_fm_oracle(d):
    rng = random.Random(51 + (d or 0))
    for m in (1, 2, 3):
        for n in range(m + 1, 8 if d is None else 7):
            ha = random_arrangement(rng, m, n, d)
            if d is None:
                ha = rescaled(ha)
            assert cone_facets(ha) == fm_facets(ha), (m, n, d)


def flipped(ha, facet):
    """The walls whose sign changes under the cone move across facet."""
    moved = HyperplaneArrangement(
        ha.m, [list(r) for r in ha.coeffs], adjacent_cone_constants(ha, facet)
    )
    s1, s2 = concurrency_sign_map(ha), concurrency_sign_map(moved)
    return [k for k, v in s1.signs.items() if s2.signs[k] != v]


def test_cone_move_crosses_every_facet():
    # moving along the wall's normal raised on (1, 3, 4) here, and on 31 of
    # the 193 facets below, where another wall is met first on that ray
    ha = random_arrangement(random.Random(1), 2, 5)
    assert (1, 3, 4) in cone_facets(ha)
    assert flipped(ha, (1, 3, 4)) == [(1, 3, 4)]
    moved = 0
    for seed in range(1000, 1060):
        rng = random.Random(seed)
        m = rng.randint(2, 3)
        ha = random_arrangement(rng, m, rng.randint(m + 2, 6))
        scaled = rescaled(ha)
        assert cone_facets(scaled) == cone_facets(ha)
        for facet in cone_facets(ha):
            assert flipped(ha, facet) == [facet]
            assert flipped(scaled, facet) == [facet]
            moved += 1
    assert moved == 193


@pytest.mark.parametrize("d", [2, 5])
def test_quadratic_cone_move_crosses_every_facet(d):
    # over Q(sqrt d) the walls are the scaled pairs of ``scaled_minors`` read
    # as a + b sqrt d; rescaled rows give scales k_i > 1
    moved = 0
    for seed in range(2000, 2020):
        rng = random.Random(seed + 100 * d)
        m = rng.randint(1, 3)
        ha = random_arrangement(rng, m, rng.randint(m + 2, 6), d)
        scaled = rescaled(ha)
        assert cone_facets(scaled) == cone_facets(ha)
        for facet in cone_facets(ha):
            assert flipped(ha, facet) == [facet]
            assert flipped(scaled, facet) == [facet]
            moved += 1
    assert moved == {2: 63, 5: 56}[d]


def test_cone_facets_at_ten_hyperplanes():
    # 17 polyhedralities, 14 of them facets
    ha = grown_arrangement(random.Random(64), 2, 10)
    polys = set(polyhedralities(ha))
    facets = cone_facets(ha)
    assert len(facets) == 14 and set(facets) < polys
    for facet in facets:
        assert flipped(ha, facet) == [facet]
    for sub in polys - set(facets):
        with pytest.raises(ValueError, match="not a cone facet"):
            adjacent_cone_constants(ha, sub)


def test_cone_move_refuses_a_subset_of_the_wrong_size():
    ha = random_arrangement(random.Random(1), 2, 5)
    for sub in [(1, 2), (1, 2, 3, 4), (1, 1, 2), (1, 2, 6)]:
        with pytest.raises(ValueError, match="subset must be m \\+ 1 distinct"):
            adjacent_cone_constants(ha, sub)


def test_fewer_constants_than_hyperplanes_are_refused():
    with pytest.raises(ValueError, match="one constant per hyperplane required"):
        HyperplaneArrangement(2, [[1, 0], [0, 1], [1, 1]], [0, 1])


def test_cone_move_refuses_what_cone_facets_refuses():
    # rows 1 and 4 are parallel: no cone to move in, and no constants back
    rng = random.Random(50)
    cases = [
        HyperplaneArrangement(
            2, [[4, -2], [1, 3], [-3, -4], [8, -4]], [2, -1, 3, -2], check=False
        )
    ]
    while len(cases) < 20:
        m = rng.randint(2, 3)
        ha = random_arrangement(rng, m, rng.randint(m + 2, 6))
        rows = [list(r) for r in ha.coeffs]
        (i, j), k = rng.sample(range(ha.n), 2), rng.choice((2, -3))
        rows[j] = [k * x for x in rows[i]]
        cases.append(HyperplaneArrangement(m, rows, ha.constants, check=False))
    for ha in cases:
        with pytest.raises(ValueError) as want:
            cone_facets(ha)
        for sub in combinations(ha.labels, ha.m + 1):
            with pytest.raises(ValueError) as got:
                adjacent_cone_constants(ha, sub)
            assert str(got.value) == str(want.value)


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
    phi = SignedBijection.identity(a.labels)
    with pytest.raises(ValueError, match="arrangements must share n and m"):
        isomorphic_by_definition(a, b, phi)
    with pytest.raises(ValueError, match="need m - 1 hyperplanes to cut out a line"):
        _line_vertex_order(a, [1, 2])
    parallel = HyperplaneArrangement(
        3, [[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 0, 0], check=False
    )
    with pytest.raises(ValueError, match="subset does not cut out a line"):
        _line_vertex_order(parallel, [1, 2])
