import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normsys import Matrix, QuadExt, det, kernel_basis, linalg, rank, sign
from normsys.chirotope import Chirotope, scaled_minors
from normsys.linalg import solve
from conftest import (
    add,
    identity,
    inverse,
    projectors,
    random_normal_system,
    random_scalar,
)

entries = st.fractions(min_value=-20, max_value=20, max_denominator=5)


def square(n):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix)


def test_det_basics():
    assert det(identity(3)) == 1
    assert det(Matrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])) == -1


def test_det_non_square():
    with pytest.raises(ValueError):
        det(Matrix([[Fraction(1), Fraction(2)]]))


def test_det_row_swap_antisymmetry():
    a = Matrix([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(5)]])
    b = Matrix([[Fraction(3), Fraction(5)], [Fraction(1), Fraction(2)]])
    assert det(a) == -det(b) == -1


@settings(max_examples=60)
@given(square(3), square(3))
def test_det_multiplicative(a, b):
    assert det(a * b) == det(a) * det(b)


@settings(max_examples=60)
@given(square(3))
def test_det_transpose(a):
    assert det(a) == det(a.transpose())


def test_scaled_minors_equal_det():
    """Every minor of the expansion is Bareiss ``det`` of its base's
    scaled rows, for r = 1..5 and n = r..r+3 over Q, Q(sqrt 2) and
    Q(sqrt 5); a row that is a multiple of another makes every base that
    holds both a zero minor, which ``Chirotope.zero`` finds."""
    rng, dependent = random.Random(9), 0
    for d, r in product((None, 2, 5), range(1, 6)):
        for n in range(r, r + 4):
            vectors = {
                i: [random_scalar(rng, d) for _ in range(r)] for i in range(1, n + 1)
            }
            if n > 1 and rng.random() < 0.5:
                i, j = rng.sample(sorted(vectors), 2)
                c = random_scalar(rng, d)
                vectors[j] = [c * x for x in vectors[i]]
            scale, minors, radicand = scaled_minors(r, vectors)
            assert radicand == d
            assert list(minors) == list(combinations(sorted(vectors), r))
            assert all(k > 0 for k in scale.values())
            for base, value in minors.items():
                rows = [[scale[i] * x for x in vectors[i]] for i in base]
                if d is not None:  # the pair (a, b) is a + b sqrt(d)
                    value = QuadExt(*value, d)
                assert value == det(Matrix(rows))
            zeros = [base for base, value in minors.items() if value in (0, (0, 0))]
            assert Chirotope(r, vectors).zero() == (zeros[0] if zeros else None)
            dependent += bool(zeros)
    assert dependent >= 15


def test_quadratic_chirotope_needs_no_det(monkeypatch):
    """A Q(sqrt 5) chirotope is built without the generic determinant."""
    def no_det(m):
        raise AssertionError("linalg.det called")

    ns = random_normal_system(random.Random(4), 3, 6, 5)
    monkeypatch.setattr(linalg, "det", no_det)
    chi = Chirotope(3, dict(enumerate(ns.vectors, 1)))
    assert chi.signs == ns.chirotope.signs and chi.zero() is None


@settings(max_examples=60)
@given(square(4))
def test_chirotope_sign_matches_det(a):
    # rational rows are scaled to integers before the expansion
    chi = Chirotope(4, dict(zip((1, 2, 3, 4), a.rows)))
    assert chi((1, 2, 3, 4)) == sign(det(a))
    assert chi((2, 1, 3, 4)) == chi((2, 3, 4, 1)) == -sign(det(a))


@settings(max_examples=60)
@given(square(3))
def test_rank_and_kernel_dimensions(a):
    r = rank(a)
    ker = kernel_basis(a)
    assert r + len(ker) == 3
    for v in ker:
        assert all(sum(a[i, j] * v[j] for j in range(3)) == 0 for i in range(3))


@settings(max_examples=60)
@given(square(3), st.lists(entries, min_size=3, max_size=3))
def test_solve_verifies(a, b):
    if det(a) == 0:
        return
    x = solve(a, b)
    for i in range(3):
        assert sum(a[i, j] * x[j] for j in range(3)) == b[i]


def test_inverse():
    rng = random.Random(5)
    for _ in range(20):
        while True:
            a = Matrix(
                [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
            )
            if det(a) != 0:
                break
        assert a * inverse(a) == identity(3)


def test_projector_identities():
    rng = random.Random(11)
    for _ in range(20):
        rows = [
            [Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(2)
        ]
        if rank(Matrix(rows)) < 2:
            continue
        pq = projectors(Matrix(rows))
        ident = identity(4)
        assert add(pq.p, pq.q) == ident
        assert pq.p * pq.p == pq.p
        assert pq.q * pq.q == pq.q
        assert pq.p.transpose() == pq.p
        assert pq.q.transpose() == pq.q
        # P fixes the span, Q annihilates it
        for r in rows:
            assert pq.p.apply(r) == tuple(r)
            assert pq.q.apply(r) == (Fraction(0),) * 4


# Q(sqrt 2) and Q(sqrt 5): zero entries force row swaps, and rows that are
# combinations of earlier rows make singular and rank-deficient matrices
def quad_entries(d):
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.one_of(
        st.just(Fraction(0)), small, st.builds(QuadExt, small, small, st.just(d))
    )


@st.composite
def quad_matrix(draw, nrows, ncols, d=None):
    d = d or draw(st.sampled_from((2, 5)))
    rows = []
    for i in range(nrows):
        if i and draw(st.integers(0, 3)) == 0:
            coeffs = draw(st.lists(quad_entries(d), min_size=i, max_size=i))
            rows.append(
                [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                 for j in range(ncols)]
            )
        else:
            rows.append(draw(st.lists(quad_entries(d), min_size=ncols, max_size=ncols)))
    return Matrix(rows)


def leibniz_det(m):
    """Sum over permutations of the signed products of entries."""
    total = Fraction(0)
    for perm in permutations(range(m.nrows)):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term = term * m[i, j]
        total = total + term
    return total


square_shapes = st.integers(1, 4).flatmap(lambda n: quad_matrix(n, n))
any_shapes = st.one_of(square_shapes, quad_matrix(2, 4), quad_matrix(4, 2))


@settings(max_examples=80)
@given(square_shapes)
def test_det_matches_leibniz_over_quadratic_fields(a):
    assert det(a) == leibniz_det(a)


@settings(max_examples=80)
@given(any_shapes)
def test_rank_and_kernel_over_quadratic_fields(a):
    ker = kernel_basis(a)
    assert rank(a) + len(ker) == a.ncols
    assert rank(a) == rank(a.transpose())
    for v in ker:
        assert all(sign(x) == 0 for x in a.apply(v))


@st.composite
def quad_system(draw):
    d, n = draw(st.sampled_from((2, 5))), draw(st.integers(1, 4))
    b = draw(st.lists(quad_entries(d), min_size=n, max_size=n))
    return draw(quad_matrix(n, n, d)), b


@settings(max_examples=80)
@given(quad_system())
def test_solve_over_quadratic_fields(system):
    a, b = system
    if leibniz_det(a) == 0:
        with pytest.raises(ValueError, match="singular matrix"):
            solve(a, b)
        return
    assert a.apply(solve(a, b)) == tuple(b)
