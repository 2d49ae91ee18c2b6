import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normsys import Matrix, det, kernel_basis, linalg, rank, sign
from normsys.chirotope import Chirotope, scaled_minors
from normsys.linalg import ProjectorPair, inverse, projectors, solve
from conftest import random_normal_system, random_scalar

entries = st.fractions(min_value=-20, max_value=20, max_denominator=5)


def square(n):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix)


def test_det_basics():
    assert det(Matrix.identity(3)) == 1
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
            scale, minors = scaled_minors(r, vectors)
            assert list(minors) == list(combinations(sorted(vectors), r))
            assert all(k > 0 for k in scale.values())
            for base, value in minors.items():
                rows = [[scale[i] * x for x in vectors[i]] for i in base]
                assert value == det(Matrix(rows))
            zeros = [base for base, value in minors.items() if value == 0]
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
        assert a * inverse(a) == Matrix.identity(3)


def test_projector_identities():
    rng = random.Random(11)
    for _ in range(20):
        rows = [
            [Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(2)
        ]
        if rank(Matrix(rows)) < 2:
            continue
        pq = projectors(Matrix(rows))
        ident = Matrix.identity(4)
        assert pq.p + pq.q == ident
        assert pq.p * pq.p == pq.p
        assert pq.q * pq.q == pq.q
        assert pq.p.transpose() == pq.p
        assert pq.q.transpose() == pq.q
        # P fixes the span, Q annihilates it
        for r in rows:
            assert pq.p.apply(r) == tuple(r)
            assert pq.q.apply(r) == (Fraction(0),) * 4
