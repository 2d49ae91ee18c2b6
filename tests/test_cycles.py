import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normsys import (
    AntipodalArrangement,
    LineCycle,
    NormalSystem,
    QuadExt,
    SpherePoint,
    all_cycle_invariants,
    line_cycle,
    load_fixture,
    project_arrangement,
    sign,
    standard_arrangement,
)
from normsys import cycles
from normsys.cycles import chirotope_cycles, contraction_orders
from conftest import random_normal_system, random_sphere_arrangement, reference_order


def test_cycle_canonical_rotation():
    assert LineCycle([2, 4, 6, 5, 3]) == LineCycle([5, 3, 2, 4, 6])
    assert LineCycle([2, 4, 6, 5, 3]) != LineCycle([2, 4, 6, 3, 5])
    assert hash(LineCycle([1, 2, 3])) == hash(LineCycle([3, 1, 2]))


def test_cycle_invariants_refuse_a_dependent_subset():
    # vectors 1, 2, 3 lie in one plane: chi(1, 2, 3) = 0
    arr = AntipodalArrangement.from_vectors(
        2, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]], check=False
    )
    with pytest.raises(ValueError, match=r"dependent subset \(1, 2, 3\): not in general"):
        all_cycle_invariants(arr)


def test_cycles_refuse_shapes_they_are_not_defined_on():
    units = [[int(i == j) for j in range(4)] for i in range(4)]
    arr = AntipodalArrangement.from_vectors(3, units + [[1, 1, 1, 1]])
    with pytest.raises(ValueError, match="line cycles are defined on the 2-sphere"):
        line_cycle(arr, 1)
    with pytest.raises(ValueError, match="need at least 5 antipodal pairs"):
        all_cycle_invariants(AntipodalArrangement.from_vectors(3, units))
    three = AntipodalArrangement.from_vectors(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="need at least four antipodal pairs"):
        line_cycle(three, 1)
    with pytest.raises(KeyError, match="label 5 not in arrangement"):
        line_cycle(standard_arrangement(), 5)
    plane = AntipodalArrangement.from_vectors(1, [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError, match="cycle invariants need sphere dimension >= 2"):
        all_cycle_invariants(plane)
    # lines 1 and 2 coincide through P3, so the order around P3 would be a
    # tie broken by label
    flat = AntipodalArrangement.from_vectors(
        2, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 2, 3]], check=False
    )
    with pytest.raises(ValueError, match=r"dependent subset \(1, 2, 3\): not in general"):
        line_cycle(flat, 3)


def test_cycle_inverse_and_conjugate():
    c = LineCycle([1, 2, 3, 4])
    assert c.inverse() == LineCycle([4, 3, 2, 1])
    assert c.inverse().inverse() == c
    assert c.conjugate({1: 5, 2: 6, 3: 7, 4: 8}) == LineCycle([5, 6, 7, 8])


def test_cycle_rejects_duplicates():
    with pytest.raises(ValueError):
        LineCycle([1, 2, 2])


def test_standard_dictionary_is_computed():
    arr = standard_arrangement()
    stored = load_fixture("S4-cycles").payload
    assert len(stored) == 8
    for (j, s), cyc in stored.items():
        assert line_cycle(arr, j, positive=(s > 0)) == cyc


def test_antipodal_cycles_are_inverse():
    rng = random.Random(2)
    for _ in range(5):
        arr = random_sphere_arrangement(rng, 2, 5)
        for j in arr.labels:
            pos = line_cycle(arr, j, positive=True)
            neg = line_cycle(arr, j, positive=False)
            assert neg == pos.inverse()


def test_cycles_invariant_under_rescaling():
    rng = random.Random(8)
    arr = random_sphere_arrangement(rng, 2, 5)
    scaled = AntipodalArrangement(
        2,
        {
            i: SpherePoint([Fraction(rng.randint(1, 9)) * x for x in p.rep])
            for i, p in arr.points.items()
        },
    )
    assert all_cycle_invariants(arr) == all_cycle_invariants(scaled)


def test_total_flip_swaps_signs():
    rng = random.Random(14)
    arr = random_sphere_arrangement(rng, 2, 5)
    flipped = arr.flip_all()
    for j in arr.labels:
        assert line_cycle(flipped, j, positive=True) == line_cycle(
            arr, j, positive=False
        )


def test_relabeling_conjugates_cycles():
    rng = random.Random(21)
    arr = random_sphere_arrangement(rng, 2, 5)
    mapping = {1: 3, 2: 5, 3: 1, 4: 2, 5: 4}
    relabeled = arr.relabel(mapping)
    for j in arr.labels:
        assert line_cycle(relabeled, mapping[j], positive=True) == line_cycle(
            arr, j, positive=True
        ).conjugate(mapping)


def test_worked_example_tables():
    for fid in ("U1", "U2"):
        ns = load_fixture(fid).payload
        arr = ns.to_arrangement()
        stored = load_fixture(f"{fid}-cycles").payload
        assert len(stored) == 12
        for (j, s), cyc in stored.items():
            assert line_cycle(arr, j, positive=(s > 0)) == cyc


@pytest.mark.parametrize("d", [None, 2, 5])
def test_chirotope_cycles_match_projection(d):
    """The family read off the chirotope equals the one built by projecting
    along every (k-2)-subset and ordering plane coordinates, over Q and
    over Q(sqrt d); at k = 5 over Q, j takes four places in the head."""
    rng = random.Random(27 if d is None else d)
    # quadratic-extension projections are slow, so fewer and smaller cases
    sizes = (2, 2, 3) if d is None else (2,)
    for k in (2, 3, 4, 5) if d is None else (2, 3, 4):
        for extra in sizes:
            arr = random_sphere_arrangement(rng, k, k + extra, d)
            expected = {}
            for subset in combinations(arr.labels, k - 2):
                proj = project_arrangement(arr, subset)
                for j in proj.labels:
                    for s in (1, -1):
                        expected[(subset, j, s)] = line_cycle(proj, j, positive=s > 0)
            assert all_cycle_invariants(arr).cycles == expected


@pytest.mark.parametrize("d", [None, 2, 5])
@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7, 8])
def test_contraction_orders_match_reference_order(r, d):
    """One pass over the bases gives, for every sorted head, the order of
    the comparator sort, from q0 on: ranks 2-8, n = r..10, over Q,
    Q(sqrt 2) and Q(sqrt 5)."""
    rng = random.Random(90 * r + (d or 0))
    for n in range(r, 11):
        chi = random_normal_system(rng, r, n, d).chirotope
        orders = contraction_orders(chi)
        heads = list(combinations(chi.labels, r - 2))
        assert sorted(orders) == heads
        for head in heads:
            assert orders[head] == reference_order(chi, head)


def test_chirotope_cycles_read_one_table(monkeypatch):
    """The whole cycle family comes from one ``contraction_orders`` call."""
    calls = []
    inner = cycles.contraction_orders

    def counted(chi):
        calls.append(chi)
        return inner(chi)

    monkeypatch.setattr(cycles, "contraction_orders", counted)
    chi = random_normal_system(random.Random(4), 4, 7).chirotope
    assert len(chirotope_cycles(chi)) == 2 * 7 * 6
    assert calls == [chi]


small = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 5]),
    st.sampled_from([(3, 5), (3, 6), (4, 6), (4, 7)]),
    st.data(),
)
def test_cycles_invariant_under_positive_quadratic_rescaling(seed, d, shape, data):
    """Rescaling each vector by a positive a + b sqrt(d) keeps every line
    cycle: chi, and so every contraction order, is unchanged."""
    m, n = shape
    ns = random_normal_system(random.Random(seed), m, n, d)
    nonzero = st.builds(QuadExt, small, small, st.just(d)).filter(lambda q: sign(q) != 0)
    draws = data.draw(st.lists(nonzero, min_size=n, max_size=n))
    factors = [q if sign(q) > 0 else -q for q in draws]
    scaled = NormalSystem(m, [[c * x for x in v] for c, v in zip(factors, ns.vectors)])
    assert all_cycle_invariants(scaled.to_arrangement()) == all_cycle_invariants(
        ns.to_arrangement()
    )
