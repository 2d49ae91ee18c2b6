import random
from math import factorial

import pytest

from normsys import (
    AntipodalArrangement,
    NormalSystem,
    SignedBijection,
    Symbol,
    all_orbits,
    all_symbols,
    automorphisms,
    compatible_symbols,
    find_isomorphisms,
    line_cycle,
    load_fixture,
    orbit,
    standard_arrangement,
)
from normsys.symbols import act, act_word, all_signed_bijections
from conftest import is_compatible, random_sphere_arrangement

GENERATORS = ("12", "23", "34", "14")


def test_symbol_parse_roundtrip():
    for text in ("4->(2,1,3)", "-4->(-2,-3,-1)", "1->(2,-4,3)"):
        assert str(Symbol.parse(text)) == text


def test_symbol_rejects_head_in_triple():
    with pytest.raises(ValueError):
        Symbol(4, (2, -4, 3))
    with pytest.raises(ValueError, match="triple must have three entries"):
        Symbol(4, (1, 2))
    with pytest.raises(ValueError, match="malformed symbol"):
        Symbol.parse("4->1,2,3")
    with pytest.raises(ValueError, match="unknown generator '13'"):
        act("13", Symbol(4, (2, 1, 3)))
    five = AntipodalArrangement.from_vectors(
        2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3]]
    )
    with pytest.raises(ValueError, match="expected a four-pair 2-sphere arrangement"):
        compatible_symbols(five)


def test_symbol_count():
    syms = all_symbols()
    assert len(syms) == 384
    assert len(set(syms)) == 384


def test_generators_are_involutions():
    s = Symbol.parse("4->(2,1,3)")
    for g in GENERATORS:
        assert act(g, act(g, s)) == s


def test_braid_and_commutation_relations():
    s = Symbol.parse("-3->(1,-2,4)")
    # adjacent transpositions braid, distant ones commute
    assert act_word(["12", "23", "12"], s) == act_word(["23", "12", "23"], s)
    assert act_word(["12", "34"], s) == act_word(["34", "12"], s)


def test_orbits_partition_into_16_of_size_24():
    orbits = all_orbits()
    assert len(orbits) == 16
    assert all(len(o) == 24 for o in orbits)
    assert sum(len(o) for o in orbits) == 384


def test_action_is_free():
    # every orbit has the full group size, so no symbol has a stabilizer
    for o in all_orbits():
        assert len(o) == 24


def test_compatible_symbols_form_one_orbit():
    arr = standard_arrangement()
    syms = compatible_symbols(arr)
    assert len(syms) == 24
    assert orbit(next(iter(syms))) == syms
    assert syms == load_fixture("S4-symbols").payload


@pytest.mark.parametrize("d", [None, 2])
def test_compatible_symbols_match_positive_combinations(d):
    # chi of the four points decides each symbol by Cramer's rule; the
    # reference solves for the head's coefficients over the triple
    rng = random.Random(60 + (d or 0))
    for _ in range(5):
        arr = random_sphere_arrangement(rng, 2, 4, d)
        syms = compatible_symbols(arr)
        assert syms == {s for s in all_symbols() if is_compatible(arr, s)}
        assert len(syms) == 24


def test_signed_bijections_count_and_group():
    bs = list(all_signed_bijections((1, 2, 3)))
    assert len(bs) == 48
    ident = SignedBijection.identity((1, 2, 3))
    assert any(b == ident for b in bs)
    b = bs[7]
    assert b.negate().negate() == b
    assert b.compose(SignedBijection.identity((1, 2, 3))) == b


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_signed_bijections_are_generated(n):
    # yielded one at a time: the oracles walk 645,120 of them at n = 7
    labels = tuple(range(1, n + 1))
    gen = all_signed_bijections(labels)
    assert iter(gen) is gen
    items = list(gen)
    assert len(items) == len(set(items)) == 2**n * factorial(n)
    assert all(w.labels == labels for w in items)


@pytest.mark.parametrize("n", range(6))
def test_signed_bijections_come_in_key_order(n):
    # the oracles and the n <= m witness list return them in this order
    keys = [w.key() for w in all_signed_bijections(range(n, 0, -1))]
    assert len(keys) == 2**n * factorial(n)
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_automorphism_group_of_standard():
    auts = automorphisms(standard_arrangement())
    assert len(auts) == 48
    keys = {a.key() for a in auts}
    ident = SignedBijection.identity((1, 2, 3, 4))
    assert ident.key() in keys
    rng = random.Random(1)
    for _ in range(30):
        a, b = rng.choice(auts), rng.choice(auts)
        assert a.compose(b).key() in keys


def carries_cycles(cycles1, cycles2, w) -> bool:
    """The rule for a decider on 2-sphere line cycles (Theorem MITTD): for
    one global eps = +-1, every cycle (j, s) of the first family, conjugated
    by pi and reversed when eps = -1, is the cycle (pi(j), mu(j) s) of the
    second."""
    pi, mu = w.perm, w.signs
    mapped = {(pi[j], mu[j] * s): c.conjugate(pi) for (j, s), c in cycles1.items()}
    return mapped == cycles2 or {k: c.inverse() for k, c in mapped.items()} == cycles2


def test_cycle_dictionary_characterises_the_automorphisms():
    # on the S4-cycles fixture the rule passes exactly the automorphisms of
    # the standard arrangement, in order; on random families, exactly chi's
    # self-isomorphisms
    def passing(cycles1, cycles2, labels):
        bijections = all_signed_bijections(labels)
        return [w for w in bijections if carries_cycles(cycles1, cycles2, w)]

    std = load_fixture("S4-cycles").payload
    auts = automorphisms(standard_arrangement())
    assert len(auts) == 48
    assert passing(std, std, (1, 2, 3, 4)) == auts
    # with its (1, +) cycle reversed, the family maps onto the standard one
    # by no bijection
    tampered = dict(std)
    tampered[(1, 1)] = std[(1, 1)].inverse()
    assert passing(tampered, std, (1, 2, 3, 4)) == []
    rng = random.Random(3)
    for n in (4, 5, 5, 5):
        arr = random_sphere_arrangement(rng, 2, n)
        cycles = {
            (j, s): line_cycle(arr, j, positive=s > 0)
            for j in arr.labels
            for s in (1, -1)
        }
        ns = NormalSystem.from_arrangement(arr)
        assert passing(cycles, cycles, arr.labels) == find_isomorphisms(ns, ns)
