import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normsys import (
    HyperplaneArrangement,
    NormalSystem,
    SignedBijection,
    SpherePoint,
    all_cycle_invariants,
    find_isomorphisms,
    is_convex_positive_bijection,
    load_fixture,
    oracle_isomorphisms,
    positive_combination,
)
from normsys import normal_systems
from normsys.arrangements import arrangements_isomorphic
from normsys.chirotope import Chirotope, pullback_sign
from normsys.cycles import contraction_orders
from normsys.normal_systems import (
    MAX_WITNESSES,
    _accepted,
    _aligned,
    _candidates,
    _fingerprints,
    _neighbours,
    _witnesses,
)
from normsys.symbols import all_signed_bijections
from conftest import (
    planted_arrangement,
    planted_system,
    random_arrangement,
    random_normal_system,
    reference_accepted,
    reference_order,
    transformed_system,
)


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
def test_find_matches_oracle_five_points_in_rank_five(d):
    """At (5,6), n = 2m - 4: the probe's order holds only head labels."""
    rng = random.Random(70 + (d or 0))
    a = random_normal_system(rng, 5, 6, d)
    for b in (transformed_system(rng, a, d), random_normal_system(rng, 5, 6, d), a):
        assert find_isomorphisms(a, b) == oracle_isomorphisms(a, b)


def test_find_matches_oracle_without_probe():
    """At (6,7), where a rank-6 search would have no probe (n < 2m - 4),
    the dual, of rank 1, is searched: every permutation is a candidate."""
    rng = random.Random(76)
    a = random_normal_system(rng, 6, 7)
    b = transformed_system(rng, a)
    assert find_isomorphisms(a, b) == oracle_isomorphisms(a, b)


def reference_candidates(chi1, chi2, pin=None):
    """The ordered-tuple generator: the head's contraction order is aligned
    with the order of chi2 by every ordered image tuple of the head that
    fixes the pin, both ways, every rotation, and a permutation is kept iff
    it carries every other subset's order onto its image's order."""
    labels, m = chi1.labels, chi1.rank
    if m == 1:
        for images in permutations(labels):
            perm = dict(zip(labels, images))
            if perm.get(pin, pin) == pin:
                yield perm
        return
    subsets = list(combinations(labels, m - 2))
    head = next((h for h in subsets if pin in h), subsets[0])
    others = [h for h in subsets if h != head]
    orders1 = {h: reference_order(chi1, h) for h in others}
    orders2 = {h: reference_order(chi2, h) for h in subsets}
    nbrs2 = {h: _neighbours(order) for h, order in orders2.items()}
    seed = reference_order(chi1, head)
    for images in permutations(labels, m - 2):
        start = dict(zip(head, images))
        if start.get(pin, pin) != pin:
            continue
        target = orders2[tuple(sorted(images))]
        for seq in (target, target[::-1]):
            for rot in range(len(seq)):
                perm = dict(start)
                perm.update(zip(seed, seq[rot:] + seq[:rot]))
                if perm.get(pin, pin) == pin and all(
                    _aligned(perm, orders1[h], nbrs2[tuple(sorted(perm[i] for i in h))])
                    for h in others
                ):
                    yield perm


def _branch(m, n):
    """How a search at rank m finds the head's images at (m, n), which
    names the shapes of the differential test; with 2m > n the search
    runs at rank n - m instead, which ``_searched`` names."""
    if m == 2:
        return "empty-head"
    if n < 2 * m - 4:
        return "no-probe"
    if n == 2 * m - 4:
        return "zero-anchors"
    return f"{n - 2 * m + 4}-anchors"


def _both_generators(monkeypatch, chi1, chi2, pin=None):
    got = _witnesses(chi1, chi2, pin)
    with monkeypatch.context() as patch:
        patch.setattr(normal_systems, "_candidates", reference_candidates)
        want = _witnesses(chi1, chi2, pin)
    return got, want


DIFFERENTIAL_SHAPES = [(m, n, None) for m in range(2, 8) for n in range(m + 1, 10)] + [
    (m, n, d) for d in (2, 5) for m, n in ((3, 5), (4, 6), (5, 6), (5, 7))
]


@pytest.mark.parametrize(
    "m,n,d",
    DIFFERENTIAL_SHAPES,
    ids=[f"m{m}-n{n}-{_branch(m, n)}-{d or 'Q'}" for m, n, d in DIFFERENTIAL_SHAPES],
)
def test_witnesses_match_reference_candidates(monkeypatch, m, n, d):
    """Planted, independent and self pairs: the same sorted witness list
    from the deduced head images as from every ordered head tuple, both
    at the rank that is searched (n - m when 2m > n).  With
    n = m + 1 any two systems are isomorphic, by all 2 n! signed
    bijections that pull chi back to +-chi, so the planted pair is enough;
    the self pair, whose automorphisms are all of them, checks that each
    witness is found once (strictly increasing keys)."""
    rng = random.Random(100 * m + n + (d or 0))
    a = random_normal_system(rng, m, n, d)
    planted = transformed_system(rng, a, d)
    pairs = [planted, a] if n == m + 1 else [planted, random_normal_system(rng, m, n, d), a]
    for b in pairs:
        got, want = _both_generators(monkeypatch, a.chirotope, b.chirotope)
        assert got == want
        assert got or b not in (planted, a)
        keys = [w.key() for w in got]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    if n == m + 1:
        assert len(got) == 2 * factorial(n)


def _searched(m, n):
    """The rank r = min(m, n - m) that ``_witnesses`` searches at (m, n),
    and how ``_candidates`` finds the head's images there."""
    r = min(m, n - m)
    way = {1: "all-permutations", 2: "empty-head"}.get(r, f"{n - 2 * r + 4}-anchors")
    return f"r{r}-{way}"


def _primal_witnesses(chi1, chi2, pin=None):
    """The search on chi1 and chi2 themselves, at their own rank, by the
    ordered-tuple generator."""
    return _accepted(chi1, chi2, reference_candidates(chi1, chi2, pin))


DUAL_SHAPES = [(m, n, d) for m, n, d in DIFFERENTIAL_SHAPES if 2 * m > n]


@pytest.mark.parametrize(
    "m,n,d",
    DUAL_SHAPES,
    ids=[f"m{m}-n{n}-{_searched(m, n)}-{d or 'Q'}" for m, n, d in DUAL_SHAPES],
)
def test_dual_route_matches_the_primal_search(m, n, d):
    """With 2m > n the candidates come from the duals, of rank n - m; the
    search at rank m finds the same sorted witnesses on planted,
    independent and self pairs, e.g. planted (6,8) and (7,9) pairs."""
    rng = random.Random(200 * m + n + (d or 0))
    a = random_normal_system(rng, m, n, d)
    planted = transformed_system(rng, a, d)
    pairs = [planted] if n == m + 1 else [planted, random_normal_system(rng, m, n, d), a]
    for b in pairs:
        got = _witnesses(a.chirotope, b.chirotope)
        assert got == _primal_witnesses(a.chirotope, b.chirotope)
        assert got or b not in (planted, a)


def _searched_pair(chi1, chi2):
    """The chirotopes that ``_witnesses`` searches: the duals when their
    rank is lower."""
    if 2 * chi1.rank > len(chi1.labels):
        return chi1.dual(), chi2.dual()
    return chi1, chi2


def _candidate_set(chi1, chi2, pin=None):
    """The candidates of ``_candidates``, each of which it yields once,
    as a set of sorted item tuples."""
    got = [tuple(sorted(perm.items())) for perm in _candidates(chi1, chi2, pin)]
    assert len(got) == len(set(got))
    return set(got)


CANDIDATE_SHAPES = [
    (m, n) for m in range(2, 8) for n in range(m + 1, 11) if n - m > 1 or n <= 7
]
MOMENT_SHAPES = {(3, 8), (4, 9), (5, 10)}


@pytest.mark.parametrize(
    "m,n", CANDIDATE_SHAPES, ids=[f"m{m}-n{n}-{_searched(m, n)}" for m, n in CANDIDATE_SHAPES]
)
def test_candidates_match_reference_candidates(m, n):
    """Planted, independent and self pairs at the rank that is searched:
    the probe-first search yields each permutation once, and exactly the
    set that the ordered-tuple generator yields.  Rank 1 (n = m + 1, n!
    permutations) stops at n = 7.  At the MOMENT_SHAPES, planted and self
    pairs on the moment curve too: there every label has the same
    signature, so no rotation is skipped and only the probe prunes."""
    rng = random.Random(400 * m + n)
    a = random_normal_system(rng, m, n)
    pairs = [
        (a, transformed_system(rng, a), True),
        (a, random_normal_system(rng, m, n), False),
        (a, a, True),
    ]
    if (m, n) in MOMENT_SHAPES:
        curve = NormalSystem(m, [[t**k for k in range(m)] for t in range(1, n + 1)])
        searched = _searched_pair(curve.chirotope, curve.chirotope)[0]
        assert len(set(_fingerprints(searched)[3].values())) == 1  # one signature
        pairs += [(curve, transformed_system(rng, curve), True), (curve, curve, True)]
    for x, y, isomorphic in pairs:
        chi1, chi2 = _searched_pair(x.chirotope, y.chirotope)
        got = _candidate_set(chi1, chi2)
        assert got == {tuple(sorted(p.items())) for p in reference_candidates(chi1, chi2)}
        assert got or not isomorphic


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pinned_candidates_match_reference_candidates(m):
    """Lifts with e = n + 1 pinned, at the rank that is searched, as
    ``ha-iso`` runs them: the same candidate set from both generators,
    each candidate once."""
    rng = random.Random(480 + m)
    for n in range(m + 1, 9):
        ha = random_arrangement(rng, m, n)
        planted = planted_arrangement(rng, ha)
        for hb in (planted, random_arrangement(rng, m, n), ha):
            chi1, chi2 = _searched_pair(ha.lift.chirotope, hb.lift.chirotope)
            got = _candidate_set(chi1, chi2, pin=n + 1)
            want = reference_candidates(chi1, chi2, pin=n + 1)
            assert got == {tuple(sorted(p.items())) for p in want}
            assert got or hb not in (planted, ha)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pinned_dual_route_matches_the_primal_search(m):
    """Lifts of rank m + 1 on n + 1 labels with e pinned, for every n with
    2(m + 1) > n + 1: the dual route, of rank n - m, finds the same sorted
    witnesses as the search at rank m + 1."""
    rng = random.Random(180 + m)
    for n in range(m + 1, 2 * m + 1):
        ha = random_arrangement(rng, m, n)
        planted = planted_arrangement(rng, ha)
        for hb in (planted, random_arrangement(rng, m, n), ha):
            chi1, chi2 = ha.lift.chirotope, hb.lift.chirotope
            got = _witnesses(chi1, chi2, pin=n + 1)
            assert got == _primal_witnesses(chi1, chi2, pin=n + 1)
            assert got or hb not in (planted, ha)


def _fingerprint_table(chi):
    """fp(H) for every (r-2)-subset H of chi, as ``_candidates`` reads it."""
    return _fingerprints(chi)[1]


@pytest.mark.parametrize("r,n", [(3, 6), (3, 7), (4, 8), (5, 10)])
def test_fingerprints_are_invariant(r, n):
    """fp2(pi H) = fp1(H) for every head H, and sig2(pi x) = sig1(x) for
    every label x, for every witness pi: planted pairs of systems at rank
    r, and of lifts of rank r with e = n pinned.  The witnesses come from
    the ordered-tuple generator, which reads no fingerprint, and include
    the planted one."""
    rng = random.Random(600 + 10 * r + n)
    a = random_normal_system(rng, r, n)
    b, planted = planted_system(rng, a)
    ha = random_arrangement(rng, r - 1, n - 1)
    pairs = [
        (a.chirotope, b.chirotope, None),
        (ha.lift.chirotope, planted_arrangement(rng, ha).lift.chirotope, n),
    ]
    for chi1, chi2, pin in pairs:
        fp1, fp2 = _fingerprint_table(chi1), _fingerprint_table(chi2)
        sig1, sig2 = _fingerprints(chi1)[3], _fingerprints(chi2)[3]
        assert sig1 == {x: tuple(sorted(fp1[h] for h in fp1 if x in h)) for x in chi1.labels}
        witnesses = _primal_witnesses(chi1, chi2, pin)
        assert witnesses
        assert pin is not None or planted in witnesses
        for w in witnesses:
            for head, fp in fp1.items():
                assert fp2[tuple(sorted(w.perm[i] for i in head))] == fp
            assert all(sig2[w.perm[x]] == sig for x, sig in sig1.items())


def test_unequal_fingerprints_yield_no_candidates():
    """A (3,7) pair whose fingerprint multisets differ: every line of the
    first has 3 triangles, three lines of the second have 4.  No
    candidate is built, and the search agrees with the exhaustive oracle."""
    rng = random.Random(1)
    a, b = random_normal_system(rng, 3, 7), random_normal_system(rng, 3, 7)
    fp1, fp2 = _fingerprint_table(a.chirotope), _fingerprint_table(b.chirotope)
    assert sorted(fp1.values()) == [(3,)] * 7
    assert sorted(fp2.values()) == [(3,)] * 4 + [(4,)] * 3
    assert list(_candidates(a.chirotope, b.chirotope)) == []
    assert find_isomorphisms(a, b) == oracle_isomorphisms(a, b) == []


ACCEPTED_SHAPES = [(r, n) for r in (1, 2, 3) for n in range(r + 1, 7)]


@pytest.mark.parametrize("d", [None, 2, 5])
@pytest.mark.parametrize("r,n", ACCEPTED_SHAPES, ids=[f"r{r}-n{n}" for r, n in ACCEPTED_SHAPES])
def test_accepted_matches_reference_solve(r, n, d):
    """Every permutation of n <= 6 labels, fed to ``_accepted``, keeps
    exactly the signed bijections that ``reference_solve`` and
    ``pullback_sign`` accept, in the same order: planted, independent and
    self pairs of rank-r systems, and of lifts of rank r (r - 1
    dimensions, e = n pinned, so every permutation fixes n).  Every
    permutation is a witness at rank 1 and at n = r + 1; elsewhere some
    are rejected."""
    rng = random.Random(1900 + 10 * r + n + (d or 0))
    a = random_normal_system(rng, r, n, d)
    pairs = [
        (a.chirotope, b.chirotope, None)
        for b in (transformed_system(rng, a, d), random_normal_system(rng, r, n, d), a)
    ]
    if r > 1:
        ha = random_arrangement(rng, r - 1, n - 1, d)
        pairs += [
            (ha.lift.chirotope, hb.lift.chirotope, n)
            for hb in (planted_arrangement(rng, ha, d), random_arrangement(rng, r - 1, n - 1, d), ha)
        ]
    rejected = 0
    for chi1, chi2, pin in pairs:
        perms = [
            dict(zip(chi1.labels, images))
            for images in permutations(chi1.labels)
            if pin is None or images[pin - 1] == pin
        ]
        got = _accepted(chi1, chi2, perms)
        assert got == reference_accepted(chi1, chi2, perms)
        assert got or chi1 is not chi2
        rejected += len(perms) - len(got) // 2
    assert bool(rejected) == (r > 1 and n > r + 1)


def _near_misses(rng, labels, perms, count):
    """count seeded random permutations of the labels, and each of perms
    with the images of two random labels swapped."""
    found = []
    for _ in range(count):
        images = list(labels)
        rng.shuffle(images)
        found.append(dict(zip(labels, images)))
    for perm in perms:
        a, b = rng.sample(labels, 2)
        found.append({**perm, a: perm[b], b: perm[a]})
    return found


@pytest.mark.parametrize("d", [None, 2, 5])
def test_accepted_matches_reference_at_high_rank(d):
    """``_accepted`` keeps what ``reference_accepted`` keeps, in the same
    order, where a base holds up to 28 label pairs: the candidates of
    planted (4,8), (5,10), (6,12) and (8,16) pairs, and of planted
    arrangements whose lifts (e pinned) have rank 4 and 5, then seeded
    random permutations and each candidate with two images swapped."""
    rng = random.Random(2900 + (d or 0))
    pairs = []
    for m, n in [(4, 8), (5, 10), (6, 12), (8, 16)]:
        a = random_normal_system(rng, m, n, d)
        pairs.append((a.chirotope, transformed_system(rng, a, d).chirotope, None))
    for m, n in [(3, 7), (4, 9)]:
        ha = random_arrangement(rng, m, n, d)
        pairs.append((ha.lift.chirotope, planted_arrangement(rng, ha, d).lift.chirotope, n + 1))
    for chi1, chi2, pin in pairs:
        candidates = list(_candidates(chi1, chi2, pin))
        got = _accepted(chi1, chi2, candidates)
        assert got and got == reference_accepted(chi1, chi2, candidates)
        perms = _near_misses(rng, list(chi1.labels), candidates, 3)
        assert _accepted(chi1, chi2, perms) == reference_accepted(chi1, chi2, perms)


def test_accepted_reads_one_bit_per_base():
    """On a uniform rank-3 table on 6 labels (20 bases), the identity is
    a witness of chi with itself, not after any single base is flipped,
    from the first to the last (bit 19 down to bit 0 of the packed
    pass), and again after every sign is flipped."""
    chi = random_normal_system(random.Random(29), 3, 6).chirotope
    ident = SignedBijection.identity(chi.labels)
    both = [ident.negate(), ident]
    assert _accepted(chi, chi, [ident.perm]) == both
    bases = list(chi.signs)
    assert len(bases) == 20
    for k in range(20):
        signs = dict(chi.signs)
        signs[bases[k]] = -signs[bases[k]]
        flipped = Chirotope._of(3, chi.labels, signs)
        assert _accepted(chi, flipped, [ident.perm]) == []
        assert reference_accepted(chi, flipped, [ident.perm]) == []
    negated = Chirotope._of(3, chi.labels, {b: -s for b, s in chi.signs.items()})
    assert _accepted(chi, negated, [ident.perm]) == both


@pytest.mark.parametrize("seed", [0, 3, 4, 16, 17])
def test_equal_fingerprints_agree_with_the_oracle(seed):
    """Random (3,7) pairs whose fingerprint multisets are equal, so the
    search gets past its multiset test: it agrees with the exhaustive
    oracle.  All are non-isomorphic but seed 17's, which has 4 witnesses."""
    rng = random.Random(seed)
    a, b = random_normal_system(rng, 3, 7), random_normal_system(rng, 3, 7)
    fp1, fp2 = _fingerprint_table(a.chirotope), _fingerprint_table(b.chirotope)
    assert sorted(fp1.values()) == sorted(fp2.values())
    got = find_isomorphisms(a, b)
    assert got == oracle_isomorphisms(a, b)
    assert len(got) == (4 if seed == 17 else 0)


@pytest.mark.parametrize("m,n", [(3, 4), (5, 7), (6, 8), (6, 9)])
def test_search_stays_in_the_searched_space(monkeypatch, m, n):
    """With 2m > n the signs are solved and checked on the chirotopes of
    rank n - m that the candidates came from: on a planted pair, and on
    the lifts (rank m, n labels, e pinned) of a planted arrangement pair."""
    rng = random.Random(700 + 10 * m + n)
    a = random_normal_system(rng, m, n)
    ha = random_arrangement(rng, m - 1, n - 1)
    calls, inner = [], normal_systems._accepted

    def recorded(chi1, chi2, candidates):
        calls.append((chi1.rank, chi2.rank))
        return inner(chi1, chi2, candidates)

    monkeypatch.setattr(normal_systems, "_accepted", recorded)
    assert find_isomorphisms(a, transformed_system(rng, a))
    assert calls == [(n - m, n - m)]
    assert arrangements_isomorphic(ha, planted_arrangement(rng, ha)).isomorphic
    assert calls == [(n - m, n - m)] * 2


def test_rank_one_candidates_fix_the_pin():
    """The dual of a lift with n = m + 1 has rank 1, so the rank-1
    candidates must fix a pin too: (n - 1)! of the n! permutations."""
    chi = random_normal_system(random.Random(9), 1, 4).chirotope
    perms = list(_candidates(chi, chi, pin=4))
    assert len(perms) == factorial(3)
    assert all(perm[4] == 4 for perm in perms)
    assert len(list(_candidates(chi, chi))) == factorial(4)


@pytest.mark.parametrize("d", [None, 5])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_candidates_are_bijections(r, d):
    """Every map ``_candidates`` yields at rank r on n = 2r..2r+3 labels is
    a permutation of chi2's labels, and fixes the pin when one is given:
    the anchors' images fill the probe's image order but for the head's
    slots, so the head lands on its image set.  n = 2r has the fewest
    anchors (4).  Planted, independent and self pairs of systems, and of
    lifts of rank r with e = n pinned."""
    rng = random.Random(300 * r + (d or 0))
    for n in range(2 * r, 2 * r + 4):
        a = random_normal_system(rng, r, n, d)
        ha = random_arrangement(rng, r - 1, n - 1, d)
        pairs = [
            (a.chirotope, b.chirotope, None)
            for b in (transformed_system(rng, a, d), random_normal_system(rng, r, n, d), a)
        ] + [
            (ha.lift.chirotope, hb.lift.chirotope, n)
            for hb in (planted_arrangement(rng, ha, d), random_arrangement(rng, r - 1, n - 1, d), ha)
        ]
        for chi1, chi2, pin in pairs:
            perms = list(_candidates(chi1, chi2, pin))
            assert perms or chi1 is not chi2
            for perm in perms:
                assert sorted(perm) == sorted(perm.values()) == list(chi2.labels)
                assert perm.get(pin, pin) == pin


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 5]),
    st.sampled_from([(2, 5), (3, 6), (3, 7), (4, 8), (3, 5), (4, 6), (4, 7), (5, 7), (5, 8)]),
)
def test_quadratic_planted_witness_is_found(seed, d, shape):
    """Isomorphism survives a linear map with a + b sqrt(d) entries: the
    planted witness is among those found, whether rank m (2m <= n) or the
    dual's rank n - m (2m > n) is searched."""
    m, n = shape
    rng = random.Random(seed)
    a = random_normal_system(rng, m, n, d)
    b, planted = planted_system(rng, a, d)
    assert planted in find_isomorphisms(a, b)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pinned_witnesses_match_reference_candidates(monkeypatch, m):
    """Lifts of arrangements with e = n + 1 pinned, as ``ha-iso`` runs them."""
    rng = random.Random(80 + m)
    for n in range(m + 1, 8):
        ha = random_arrangement(rng, m, n)
        planted = planted_arrangement(rng, ha)
        for hb in (planted, random_arrangement(rng, m, n), ha):
            chi1, chi2 = ha.lift.chirotope, hb.lift.chirotope
            got, want = _both_generators(monkeypatch, chi1, chi2, pin=n + 1)
            assert got == want
            assert got or hb not in (planted, ha)


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


def _check_coset_law(aut, aut_b, found):
    """Aut(a) holds the identity and its negation and is closed, |Aut(b)| =
    |Aut(a)|, and W(a, b) = w Aut(a) for the first witness w: a witness
    lost by any of the searches breaks one."""
    identity = SignedBijection.identity(aut[0].labels)
    assert identity in aut and identity.negate() in aut
    assert len(aut_b) == len(aut)
    members = set(aut)
    assert all(g.compose(h) in members for g in aut[:12] for h in aut)
    assert sorted(found[0].compose(g) for g in aut) == found


def test_witness_sets_obey_the_coset_law():
    """Past the oracle's n <= 7, where witness sets are checked by their
    algebra alone: Aut(a) = W(a, a) holds the identity and its negation,
    W(a, b) holds the planted witness, and W(a, b) is a coset of Aut(a).
    Moment curves (3,8)-(6,12) and random systems (4,14)-(8,16) over Q,
    random (3,8) and (4,10) over Q(sqrt 5); lifts (2,7)-(4,9) with e
    pinned, whose witnesses are checked by pullback instead.  At most
    10 s of CPU time."""
    start = time.process_time()
    rng = random.Random(5)
    systems = [
        (NormalSystem(m, [[t**k for k in range(m)] for t in range(1, n + 1)]), None)
        for m, n in [(3, 8), (4, 9), (5, 10), (6, 12)]
    ]
    systems += [(random_normal_system(rng, m, n), None) for m, n in [(4, 14), (6, 14), (8, 16)]]
    systems += [(random_normal_system(rng, m, n, 5), 5) for m, n in [(3, 8), (4, 10)]]
    for a, d in systems:
        b, planted = planted_system(rng, a, d)
        aut, found = find_isomorphisms(a, a), find_isomorphisms(a, b)
        assert planted in found
        _check_coset_law(aut, find_isomorphisms(b, b), found)
    for m, n in [(2, 7), (3, 8), (4, 9)]:
        ha = random_arrangement(rng, m, n)
        chi1, chi2 = ha.lift.chirotope, planted_arrangement(rng, ha).lift.chirotope
        aut, found = _witnesses(chi1, chi1, pin=n + 1), _witnesses(chi1, chi2, pin=n + 1)
        assert found and all(pullback_sign(chi1, chi2, w) for w in found)
        _check_coset_law(aut, _witnesses(chi2, chi2, pin=n + 1), found)
    assert time.process_time() - start < 10


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
    c = NormalSystem(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        find_isomorphisms(b, c)
    with pytest.raises(ValueError, match="witness labels do not match the systems"):
        is_convex_positive_bijection(SignedBijection.identity(a.labels), b, b)
    shifted = b.to_arrangement().relabel({1: 2, 2: 3, 3: 4})
    with pytest.raises(ValueError, match=r"arrangement labels must be 1\.\.n"):
        NormalSystem.from_arrangement(shifted)


def test_signed_bijection_refuses_malformed_maps():
    with pytest.raises(ValueError, match="sign vector must share labels"):
        SignedBijection({1: 2, 2: 1}, {1: 1, 3: 1})
    with pytest.raises(ValueError, match="not a permutation of the label set"):
        SignedBijection({1: 2, 2: 2}, {1: 1, 2: 1})
    with pytest.raises(ValueError, match=r"signs must be \+-1"):
        SignedBijection({1: 2, 2: 1}, {1: 1, 2: 0})
    on12, on23 = SignedBijection.identity((1, 2)), SignedBijection.identity((2, 3))
    with pytest.raises(ValueError, match="composed signed bijections must share labels"):
        on12.compose(on23)


def test_vector_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match="vector 2 has length 1, expected 2"):
        NormalSystem(2, [[1, 0], [1], [0, 1]])


def test_oracle_rejects_invalid_input_like_the_decider():
    # two parallel vectors, built without the check: the exhaustive oracle
    # and the witness test refuse it as find_isomorphisms does, rather
    # than list witnesses of an object that is not a normal system
    bad = NormalSystem(2, [[1, 0], [2, 0], [0, 1]], check=False)
    ident = SignedBijection.identity(bad.labels)
    for decide in (
        find_isomorphisms,
        oracle_isomorphisms,
        lambda a, b: is_convex_positive_bijection(ident, a, b),
    ):
        with pytest.raises(ValueError, match="inputs must be valid normal systems"):
            decide(bad, bad)


def test_oracle_size_guard():
    rng = random.Random(31)
    big = random_normal_system(rng, 2, 8)
    with pytest.raises(ValueError, match="oracle limited to n <= 7"):
        oracle_isomorphisms(big, big)


def unit_system(m: int, n: int) -> NormalSystem:
    """The unit vectors of F^m, then the all-ones vector if n = m + 1."""
    rows = [[int(i == j) for j in range(m)] for i in range(m)] + [[1] * m]
    return NormalSystem(m, rows[:n])


@pytest.mark.parametrize("m, n", [(8, 8), (8, 9)])
def test_witness_enumeration_guard(m, n):
    """2^8 8! witnesses at (8, 8) and 2 * 9! at (8, 9), searched at rank
    1, exceed 2^7 7!: refused before any is built."""
    a = unit_system(m, n)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="witnesses"):
        find_isomorphisms(a, a)
    assert time.perf_counter() - start < 1


def test_witness_guard_counts(monkeypatch):
    """The guard's count is the number of witnesses found: 2^n n! for
    n <= m, 2 n! at rank 1, and 2 (n - 1)! at rank 1 with a pinned label."""
    lift = random_arrangement(random.Random(5), 2, 3).lift  # rank 1 dual, 4 labels
    searches = [
        (lambda: find_isomorphisms(unit_system(3, 3), unit_system(3, 3)), 8 * 6),
        (lambda: find_isomorphisms(unit_system(3, 4), unit_system(3, 4)), 2 * 24),
        (lambda: _witnesses(lift.chirotope, lift.chirotope, pin=4), 2 * 6),
    ]
    for search, count in searches:
        monkeypatch.setattr(normal_systems, "MAX_WITNESSES", count)
        assert len(search()) == count
        monkeypatch.setattr(normal_systems, "MAX_WITNESSES", count - 1)
        with pytest.raises(ValueError, match=f"enumerate {count} witnesses"):
            search()


def test_witness_enumeration_limit():
    """(7, 7), the largest shape the guard admits: all 2^7 7! = 645,120
    signed bijections, each once, in strictly increasing ``key`` order."""
    a = unit_system(7, 7)
    witnesses = find_isomorphisms(a, a)
    assert len(witnesses) == MAX_WITNESSES == 645_120
    prev = witnesses[0].key()
    for w in witnesses[1:]:
        key = w.key()
        assert prev < key
        prev = key


def test_witness_enumeration_memory():
    """The 46,080 witnesses at (6, 6) share their permutation and sign
    dicts: the traced peak stays under 8 MB (about 2.9 MB), where a sign
    dict per witness takes about 19 MB."""
    a = unit_system(6, 6)
    tracemalloc.start()
    try:
        witnesses = find_isomorphisms(a, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(witnesses) == 2**6 * factorial(6)
    assert peak < 8_000_000


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


# both sides of 2m > n, over Q, Q(sqrt 2) and Q(sqrt 5)
KEPT_SHAPES = [(3, 7, None), (4, 8, 2), (3, 6, 5), (5, 7, None), (4, 6, 2), (5, 8, 5)]


@pytest.mark.parametrize("m,n,d", KEPT_SHAPES)
def test_kept_tables_give_the_results_of_fresh_objects(m, n, d):
    """Every ordered pair of a system, a planted copy and an independent
    system (self pairs included), decided twice on the same objects,
    gives what it gives on fresh copies, whose tables are cold; so do
    ``arrangements_isomorphic`` on arrangements, whose pinned lifts keep
    the tables, and ``all_cycle_invariants`` on the sphere views."""
    rng = random.Random(2200 + 10 * m + n + (d or 0))
    a = random_normal_system(rng, m, n, d)
    systems = [a, transformed_system(rng, a, d), random_normal_system(rng, m, n, d)]
    ha = random_arrangement(rng, m - 1, n - 1, d)
    arrs = [ha, planted_arrangement(rng, ha, d), random_arrangement(rng, m - 1, n - 1, d)]

    def fresh(x):
        if isinstance(x, NormalSystem):
            return NormalSystem(x.m, x.vectors)
        return HyperplaneArrangement(x.m, x.coeffs, x.constants)

    for decide, objs in ((find_isomorphisms, systems), (arrangements_isomorphic, arrs)):
        for x in objs:
            for y in objs:
                want = decide(fresh(x), fresh(y))
                assert decide(x, y) == decide(x, y) == want
    assert find_isomorphisms(*systems[:2]) and arrangements_isomorphic(*arrs[:2]).isomorphic
    for x in systems:
        want = all_cycle_invariants(fresh(x).to_arrangement())
        assert all_cycle_invariants(x.to_arrangement()) == want
        assert all_cycle_invariants(x.to_arrangement()) == want


@pytest.mark.parametrize("m,n", [(3, 8), (5, 8)])
def test_pair_sweep_builds_each_table_once(monkeypatch, m, n):
    """Deciding every ordered pair of k systems builds the contraction
    orders and the fingerprints of each searched chirotope once (the
    duals' when 2m > n), and each dual once."""
    orders, fingerprints, duals = [], [], []
    rng = random.Random(2300 + m)
    a = random_normal_system(rng, m, n)
    systems = [a, transformed_system(rng, a)] + [random_normal_system(rng, m, n) for _ in range(3)]
    monkeypatch.setattr(
        normal_systems, "contraction_orders", lambda chi: orders.append(chi) or contraction_orders(chi)
    )
    monkeypatch.setattr(
        normal_systems, "_fingerprints", lambda chi: fingerprints.append(chi) or _fingerprints(chi)
    )
    inner = Chirotope._dual
    monkeypatch.setattr(Chirotope, "_dual", lambda chi: duals.append(chi) or inner(chi))
    for x in systems:
        for y in systems:
            find_isomorphisms(x, y)
    searched = [ns.chirotope.dual() if 2 * m > n else ns.chirotope for ns in systems]
    assert list(map(id, orders)) == list(map(id, fingerprints)) == list(map(id, searched))
    assert list(map(id, duals)) == [id(ns.chirotope) for ns in systems if 2 * m > n]


@pytest.mark.parametrize("d", [None, 2, 5])
def test_oracle_equals_the_exhaustive_filter(d):
    """The oracle tests 2 n! signed bijections when n > m; it returns
    exactly the list, in order, of every signed bijection that
    ``pullback_sign`` accepts: m = 1..4, n = 1..5, planted, independent
    and self pairs."""
    rng = random.Random(2400 + (d or 0))
    for m in range(1, 5):
        for n in range(1, 6):
            a = random_normal_system(rng, m, n, d)
            for b in (transformed_system(rng, a, d), random_normal_system(rng, m, n, d), a):
                want = [
                    w for w in all_signed_bijections(a.labels)
                    if pullback_sign(a.chirotope, b.chirotope, w)
                ]
                assert oracle_isomorphisms(a, b) == want
                assert want or b is not a
