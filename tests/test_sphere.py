import random
from fractions import Fraction

import pytest

from normsys import (
    AntipodalArrangement,
    ArrangementError,
    Matrix,
    SpherePoint,
    det,
    oriented_complement_frame,
    positive_combination,
    project_arrangement,
    sign,
)
from conftest import random_sphere_arrangement


def frac(x):
    return Fraction(x)


def test_point_positive_scaling():
    p = SpherePoint([frac(2), frac(-4), frac(6)])
    q = SpherePoint([frac(1), frac(-2), frac(3)])
    assert p == q
    assert hash(p) == hash(q)
    assert p.antipode() != p
    assert p.antipode().antipode() == p


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        SpherePoint([frac(0), frac(0)])


def test_point_of_the_wrong_dimension_is_refused():
    points = {1: SpherePoint([1, 0, 0]), 2: SpherePoint([0, 1])}
    with pytest.raises(ArrangementError, match="point 2 lives on a 1-sphere"):
        AntipodalArrangement(2, points)
    basis = [SpherePoint([1, 0, 0]), SpherePoint([0, 1, 0])]
    with pytest.raises(ValueError, match="basis size must equal ambient dimension"):
        positive_combination(SpherePoint([1, 1, 0]), basis)


def test_relabel_refuses_a_map_that_loses_points():
    arr = AntipodalArrangement.from_vectors(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert arr.relabel({1: 5, 2: 6, 3: 7, 4: 8}).labels == (5, 6, 7, 8)
    with pytest.raises(ValueError, match="relabeling must not merge labels"):
        arr.relabel({1: 5, 2: 5, 3: 6, 4: 7})
    with pytest.raises(ValueError, match="relabeling must map every label"):
        arr.relabel({1: 5, 2: 6, 3: 7})


@pytest.mark.parametrize("d", [None, 2])
def test_json_round_trip(d):
    arr = random_sphere_arrangement(random.Random(11), 3, 6, d)
    data = arr.to_json_dict()
    assert AntipodalArrangement.from_json_dict(data) == arr
    assert any("sqrt(2)" in x for row in data["points"] for x in row) == (d is not None)


def test_positive_combination_signs_stable():
    basis = [
        SpherePoint([frac(1), frac(0), frac(0)]),
        SpherePoint([frac(0), frac(1), frac(0)]),
        SpherePoint([frac(0), frac(0), frac(1)]),
    ]
    target = SpherePoint([frac(2), frac(3), frac(-1)])
    comb = positive_combination(target, basis)
    assert comb.signs == (1, 1, -1)
    assert not comb.all_positive
    # rescaling representatives cannot change the signs
    scaled = [SpherePoint([frac(5) * x for x in b.rep]) for b in basis]
    assert positive_combination(target, scaled).signs == (1, 1, -1)


def test_general_position_detects_dependence():
    arr = AntipodalArrangement.from_vectors(
        2,
        [
            [frac(1), frac(0), frac(0)],
            [frac(0), frac(1), frac(0)],
            [frac(1), frac(1), frac(0)],
        ],
        check=False,
    )
    ok, bad = arr.general_position()
    assert not ok
    assert bad == (1, 2, 3)
    with pytest.raises(ArrangementError):
        AntipodalArrangement.from_vectors(
            2,
            [
                [frac(1), frac(0), frac(0)],
                [frac(0), frac(1), frac(0)],
                [frac(1), frac(1), frac(0)],
            ],
        )
    # an antipodal pair is reported before any dependent triple
    arr = AntipodalArrangement.from_vectors(
        2,
        [
            [frac(1), frac(0), frac(0)],
            [frac(0), frac(1), frac(0)],
            [frac(1), frac(1), frac(0)],
            [frac(0), frac(-2), frac(0)],
        ],
        check=False,
    )
    assert arr.general_position() == (False, (2, 4))
    # fewer points than the dimension: general position is their rank
    arr = AntipodalArrangement.from_vectors(
        3, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]], check=False
    )
    assert arr.general_position() == (False, (1, 2, 3))


def test_oriented_frame_orientation():
    rng = random.Random(3)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(2)]
        try:
            frame = oriented_complement_frame(rows)
        except ValueError:
            continue
        full = Matrix(rows + [list(f) for f in frame])
        assert sign(det(full)) > 0
        # frame rows are orthogonal to the span
        for f in frame:
            for r in rows:
                assert sum(x * y for x, y in zip(f, r)) == 0


def test_projection_preserves_labels_and_dimension():
    rng = random.Random(9)
    arr = random_sphere_arrangement(rng, 3, 6)
    proj = project_arrangement(arr, [2])
    assert proj.dim_k == 2
    assert proj.labels == tuple(i for i in arr.labels if i != 2)


def test_projection_preserves_combination_signs():
    rng = random.Random(17)
    arr = random_sphere_arrangement(rng, 3, 6)
    j = 1
    proj = project_arrangement(arr, [j])
    rest = [i for i in arr.labels if i != j]
    import itertools

    for basis in itertools.combinations(rest, 3):
        for u in rest:
            if u in basis:
                continue
            full = positive_combination(
                arr.points[u], [arr.points[j]] + [arr.points[b] for b in basis]
            )
            shadow = positive_combination(
                proj.points[u], [proj.points[b] for b in basis]
            )
            assert full.signs[1:] == shadow.signs


def test_projection_along_too_many_pairs():
    rng = random.Random(4)
    arr = random_sphere_arrangement(rng, 2, 5)
    with pytest.raises(ValueError):
        project_arrangement(arr, [1])
    with pytest.raises(KeyError, match="label 9 not in arrangement"):
        project_arrangement(random_sphere_arrangement(rng, 3, 6), [9])
