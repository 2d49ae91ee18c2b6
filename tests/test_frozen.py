"""Value equality of the Frozen types: same type and equal slot values."""

from fractions import Fraction

import pytest

from normsys import (
    AntipodalArrangement,
    CycleInvariantSet,
    HyperplaneArrangement,
    IsoResult,
    LineCycle,
    Matrix,
    NormalSystem,
    PaperFixture,
    QuadExt,
    Region,
    SignedBijection,
    SpherePoint,
    Symbol,
    cone_facets,
    find_isomorphisms,
    is_infinity_arrangement,
    polyhedralities,
    region_counts,
)
from normsys.arrangements import arrangements_isomorphic
from normsys.chirotope import Chirotope
from normsys.cycles import contraction_orders
from normsys.fixtures import Equation, FixtureReport
from normsys.normal_systems import _witnesses
from normsys.sphere import PositiveCombination

ROWS = [[1, 0], [0, 1], [1, 1]]
CONSTANTS = [0, 0, 1]

# each entry builds an instance from data; the second data differs
CASES = {
    "LineCycle": (LineCycle, ([2, 3, 1],), ([3, 2, 1],)),
    "CycleInvariantSet": (
        lambda c: CycleInvariantSet({((), 1, 1): LineCycle(c)}),
        ([2, 3, 4],),
        ([2, 4, 3],),
    ),
    "Symbol": (Symbol, (1, (2, 3, 4)), (1, (2, 4, 3))),
    "SignedBijection": (
        SignedBijection,
        ({1: 2, 2: 1}, {1: 1, 2: -1}),
        ({1: 2, 2: 1}, {1: 1, 2: 1}),
    ),
    "SpherePoint": (SpherePoint, ([2, 4],), ([2, -4],)),
    "Region": (Region, ([1, -1], True), ([1, -1], False)),
    "Matrix": (Matrix, (ROWS,), ([[1, 0], [0, 1], [1, 2]],)),
    "NormalSystem": (NormalSystem, (2, ROWS), (2, [[1, 0], [0, 1], [1, 2]])),
    "AntipodalArrangement": (
        AntipodalArrangement.from_vectors,
        (1, ROWS),
        (1, [[1, 0], [0, 1], [1, 2]]),
    ),
    "HyperplaneArrangement": (
        HyperplaneArrangement,
        (2, ROWS, CONSTANTS),
        (2, ROWS, [0, 0, 2]),
    ),
    "Chirotope": (
        lambda rows: Chirotope(2, dict(enumerate(rows, 1))),
        (ROWS,),
        ([[1, 0], [0, 1], [1, -1]],),
    ),
    "IsoResult": (
        lambda s: IsoResult(True, SignedBijection({1: 1}, {1: s}), "a"),
        (1,),
        (-1,),
    ),
    "PositiveCombination": (
        PositiveCombination,
        ([Fraction(1, 2), 1],),
        ([Fraction(1, 3), 1],),
    ),
    "PaperFixture": (
        PaperFixture,
        ("x", "cycles", {(1, 1): LineCycle([2, 3, 4])}),
        ("x", "cycles", {}),
    ),
    "Equation": (
        Equation,
        ([(1, 1)], [(1, 2)], [Fraction(1)]),
        ([(1, 1)], [(1, 3)], [Fraction(1)]),
    ),
    "FixtureReport": (FixtureReport, ("x", []), ("x", ["diff"])),
}
UNHASHABLE = {
    "CycleInvariantSet", "NormalSystem", "AntipodalArrangement",
    "HyperplaneArrangement", "Chirotope", "PaperFixture",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_data_gives_equal_values(name):
    build, data, other = CASES[name]
    a, b, c = build(*data), build(*data), build(*other)
    assert a is not b and a == b and not a != b
    assert a != c and not a == c
    assert a != object()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2
    if name in ("Region", "SignedBijection", "Symbol"):  # sorted in outputs
        assert (a < c) != (c < a) and not a < b
        with pytest.raises(TypeError):
            a < object()


def test_rational_quadext_still_equals_fraction():
    q = QuadExt(Fraction(3, 2), 0, 5)
    assert q == Fraction(3, 2) and Fraction(3, 2) == q
    assert hash(q) == hash(Fraction(3, 2))
    assert QuadExt(1, 1, 5) != QuadExt(1, 1, 2)


def test_arrangements_from_equal_rows_are_equal():
    # they compared by identity before equality was defined on Frozen
    ha1 = HyperplaneArrangement(2, ROWS, CONSTANTS)
    ha2 = HyperplaneArrangement(2, [list(r) for r in ROWS], list(CONSTANTS))
    assert ha1 == ha2
    assert ha1 != HyperplaneArrangement(2, ROWS, [0, 0, 2])



# (3,6) rows in general position: the dual has rank 3, the search has a probe
ROWS6 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 4], [1, 3, 9]]
HA5 = ([[1, 0], [0, 1], [1, 1], [1, 2], [1, 3]], [0, 1, 3, 7, 13])

# each entry: (build from fixed data, the chirotope it owns, a decision on it)
TABLE_CASES = {
    "Chirotope": (
        lambda: Chirotope(3, dict(enumerate(ROWS6, 1))),
        lambda chi: chi,
        lambda chi: _witnesses(chi, chi),
    ),
    "NormalSystem": (
        lambda: NormalSystem(3, ROWS6),
        lambda ns: ns.chirotope,
        lambda ns: find_isomorphisms(ns, ns),
    ),
    "HyperplaneArrangement": (
        lambda: HyperplaneArrangement(2, *HA5),
        lambda ha: ha.lift.chirotope,
        lambda ha: arrangements_isomorphic(ha, ha),
    ),
    "HyperplaneArrangement.sides": (  # the vertex-side table and its readers
        lambda: HyperplaneArrangement(2, *HA5),
        lambda ha: ha.lift.chirotope,
        lambda ha: [
            f(ha) for f in (region_counts, polyhedralities, is_infinity_arrangement, cone_facets)
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_kept_tables_are_invisible(name):
    """Filling the tables a chirotope keeps (dual, zero, contraction orders,
    a decision's search tables, an arrangement's side table) changes
    neither ``==``, nor unhashability, nor ``repr``, of the chirotope or of
    the object that owns it: a warm object equals a cold one built from
    equal data."""
    build, owned, decide = TABLE_CASES[name]
    warm, cold = build(), build()
    before = repr(warm), repr(owned(warm))
    chi = owned(warm)
    steps = [chi.dual, chi.zero, lambda: chi._table(contraction_orders), lambda: decide(warm)]
    for step in steps:
        step()
        for x, y in ((warm, cold), (chi, owned(cold))):
            assert x == y and y == x and not x != y
            for obj in (x, y):
                with pytest.raises(TypeError):
                    hash(obj)
        assert (repr(warm), repr(chi)) == (repr(cold), repr(owned(cold))) == before
    assert len(chi._tables) > len(owned(cold)._tables)  # cold: at most its validity scan
    assert chi.dual() is chi.dual() and chi.dual() == owned(cold).dual()
