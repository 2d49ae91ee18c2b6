import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from normsys import (
    NormalSystem,
    SignedBijection,
    SpherePoint,
    find_isomorphisms,
    is_convex_positive_bijection,
    load_fixture,
    oracle_isomorphisms,
    positive_combination,
)
from normsys.chirotope import Chirotope, pullback_sign
from normsys.symbols import all_signed_bijections
from conftest import random_normal_system, transformed_system


def frac(x):
    return Fraction(x)


def test_validity():
    good = NormalSystem(2, [[frac(1), frac(0)], [frac(0), frac(1)], [frac(1), frac(1)]])
    assert good.is_valid()
    parallel = NormalSystem(
        2, [[frac(1), frac(0)], [frac(2), frac(0)]], check=False
    )
    assert not parallel.is_valid()


def test_json_roundtrip():
    ns = load_fixture("U1").payload
    assert NormalSystem.from_json_dict(ns.to_json_dict()) == ns


def test_arrangement_roundtrip():
    # representatives may be rescaled by positive factors, so compare as
    # arrangements rather than raw vectors
    ns = load_fixture("U2").payload
    back = NormalSystem.from_arrangement(ns.to_arrangement())
    assert back.to_arrangement().points == ns.to_arrangement().points


def test_identity_is_always_a_witness():
    rng = random.Random(3)
    ns = random_normal_system(rng, 3, 5)
    ident = SignedBijection.identity(ns.labels)
    assert is_convex_positive_bijection(ident, ns, ns)
    assert is_convex_positive_bijection(ident.negate(), ns, ns)


def test_witness_sets_closed_under_negation():
    rng = random.Random(6)
    ns = random_normal_system(rng, 3, 5)
    ws = find_isomorphisms(ns, ns)
    keys = {w.key() for w in ws}
    assert keys == {w.negate().key() for w in ws}


def test_transformed_copies_are_isomorphic():
    rng = random.Random(12)
    for m, n in ((2, 4), (3, 5), (4, 6)):
        ns = random_normal_system(rng, m, n)
        other = transformed_system(rng, ns)
        assert find_isomorphisms(ns, other)


def test_find_matches_oracle_small():
    """Planted, random and self pairs over Q, Q(sqrt 2) and Q(sqrt 5), for
    every m = 1..4 and n = 0..5, including n < m and n = m."""
    rng = random.Random(25)
    for d in (None, 2, 5):
        for m in range(1, 5):
            for n in range(6):
                a = random_normal_system(rng, m, n, d)
                b = transformed_system(rng, a, d)
                c = random_normal_system(rng, m, n, d)
                for x, y in ((a, b), (a, c), (a, a)):
                    assert sorted(find_isomorphisms(x, y)) == sorted(
                        oracle_isomorphisms(x, y)
                    )


@pytest.mark.parametrize("d", [None, 2, 5])
def test_rank_one_and_two_witness_counts(d):
    """Past the oracle's n <= 7: any two systems in the plane are
    isomorphic, with one witness per rotation and reflection of the 2n
    signed vectors (4n), and any two on the line with 2 n! witnesses."""
    rng = random.Random(50 if d is None else d)
    for n in range(3, 13):
        a, b = random_normal_system(rng, 2, n, d), random_normal_system(rng, 2, n, d)
        assert len(find_isomorphisms(a, b)) == 4 * n
    for n in range(1, 7):
        a, b = random_normal_system(rng, 1, n, d), random_normal_system(rng, 1, n, d)
        assert len(find_isomorphisms(a, b)) == 2 * factorial(n)


def test_worked_examples_not_isomorphic():
    u1 = load_fixture("U1").payload
    u2 = load_fixture("U2").payload
    assert find_isomorphisms(u1, u2) == []
    assert len(find_isomorphisms(u1, u1)) > 0


def test_mismatched_shapes_rejected():
    a = NormalSystem(2, [[frac(1), frac(0)], [frac(0), frac(1)]])
    b = NormalSystem(2, [[frac(1), frac(0)], [frac(0), frac(1)], [frac(1), frac(1)]])
    with pytest.raises(ValueError):
        find_isomorphisms(a, b)


def test_oracle_size_guard():
    rng = random.Random(31)
    big = random_normal_system(rng, 2, 8)
    with pytest.raises(ValueError):
        oracle_isomorphisms(big, big)


def _coefficient_signs(ns):
    """Signs of the coefficients of v_u over every sorted base, by solving."""
    pts = {i: SpherePoint(ns.vector(i)) for i in ns.labels}
    return {
        (base, u): positive_combination(pts[u], [pts[i] for i in base]).signs
        for base in combinations(ns.labels, ns.m)
        for u in ns.labels
        if u not in base
    }


def _preserves_combinations(w, c1, c2) -> bool:
    """The definition: mu(u) v'_pi(u) over the base mu(i) v'_pi(i) has the
    coefficient signs of v_u over the base v_i, for every base and u."""
    for (base, u), sig1 in c1.items():
        images = tuple(sorted(w.perm[i] for i in base))
        sig2 = dict(zip(images, c2[(images, w.perm[u])]))
        for i, s in zip(base, sig1):
            if s != w.signs[u] * w.signs[i] * sig2[w.perm[i]]:
                return False
    return True


@pytest.mark.parametrize("d", [None, 2, 5])
def test_chirotope_witness_test_matches_coefficient_signs(d):
    """On every signed bijection, "the pulled-back chirotope is +-chi"
    agrees with the coefficient-sign definition, over Q and Q(sqrt d)."""
    rng = random.Random(40 if d is None else d)
    shapes = ((1, 3), (2, 4), (3, 5), (4, 5), (3, 6)) if d is None else ((2, 4), (3, 5))
    for m, n in shapes:
        a = random_normal_system(rng, m, n, d)
        planted = transformed_system(rng, a, d)
        for b in (planted, random_normal_system(rng, m, n, d)):
            chi_a = Chirotope(m, dict(zip(a.labels, a.vectors)))
            chi_b = Chirotope(m, dict(zip(b.labels, b.vectors)))
            c_a, c_b = _coefficient_signs(a), _coefficient_signs(b)
            accepted = 0
            for w in all_signed_bijections(a.labels):
                expected = _preserves_combinations(w, c_a, c_b)
                assert bool(pullback_sign(chi_a, chi_b, w)) == expected
                accepted += expected
            if b is planted:
                assert accepted >= 2
