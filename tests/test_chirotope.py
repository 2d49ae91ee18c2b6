"""Each object builds its chirotope once, at construction, and
conversions hand it over; the stored chi must equal a fresh build."""

import random
from fractions import Fraction

import pytest

from normsys import (
    AntipodalArrangement,
    HyperplaneArrangement,
    NormalSystem,
    affine_image,
    hyperplanes_from,
    normal_system_of,
)
from normsys.chirotope import Chirotope
from conftest import (
    random_arrangement,
    random_invertible,
    random_normal_system,
    random_scalar,
    random_sphere_arrangement,
)


def check_system(ns: NormalSystem):
    fresh = Chirotope(ns.m, dict(zip(ns.labels, ns.vectors)))
    assert (ns.chirotope.rank, ns.chirotope.signs) == (fresh.rank, fresh.signs)


def check_sphere(arr: AntipodalArrangement):
    fresh = Chirotope(arr.dim_k + 1, {i: p.rep for i, p in arr.points.items()})
    assert (arr.chirotope.rank, arr.chirotope.signs) == (fresh.rank, fresh.signs)


def check_hyperplanes(ha: HyperplaneArrangement):
    check_system(ha.normals)
    assert ha.normals.vectors == ha.coeffs
    rows = {i: ha.row(i) + (ha.constant(i),) for i in ha.labels}
    assert ha.homogenized.signs == Chirotope(ha.m + 1, rows).signs


# (m, n) with n < m, n = m and n > m, so n < m + 1 for arrangements too
SHAPES = [(1, 3), (2, 1), (2, 2), (2, 5), (3, 2), (3, 3), (3, 6), (4, 6)]


@pytest.mark.parametrize("d", [None, 2, 5])
def test_stored_chirotope_matches_a_fresh_build(d):
    rng = random.Random(31)
    for m, n in SHAPES:
        # on the 0-sphere any two points are equal or antipodal
        n_sphere = n if m > 1 else 1
        ns = random_normal_system(rng, m, n, d)
        check_system(ns)
        arr = ns.to_arrangement()
        assert arr.chirotope is ns.chirotope
        check_sphere(arr)
        back = NormalSystem.from_arrangement(random_sphere_arrangement(rng, m - 1, n_sphere, d))
        check_system(back)

        ha = random_arrangement(rng, m, n, d)
        check_hyperplanes(ha)
        normals = normal_system_of(ha)
        assert normals.chirotope is ha.normals.chirotope
        check_system(normals)
        rebuilt = hyperplanes_from(normals, ha.constants)
        assert rebuilt.normals.chirotope is normals.chirotope
        check_hyperplanes(rebuilt)
        shift = [random_scalar(rng, d) for _ in range(m)]
        check_hyperplanes(affine_image(ha, random_invertible(rng, m, d), shift))

        sphere = random_sphere_arrangement(rng, m - 1, n_sphere, d)
        check_sphere(sphere)
        check_sphere(sphere.flip_all())
        images = rng.sample(range(1, 3 * n + 1), n)
        check_sphere(sphere.relabel(dict(zip(sphere.labels, images))))


def test_stored_chirotope_of_invalid_inputs():
    one = Fraction(1)
    parallel = NormalSystem(2, [[one, 0 * one], [2 * one, 0 * one], [one, one]], check=False)
    assert not parallel.is_valid()
    check_system(parallel)
    assert parallel.chirotope.zero() == (1, 2)
    dependent = NormalSystem(3, [[one, 0, 0], [2 * one, 0, 0]], check=False)
    assert not dependent.is_valid()
    check_system(dependent)
    concurrent = HyperplaneArrangement(
        2, [[one, 0], [0, one], [one, one]], [0, 0, 0], check=False
    )
    assert not concurrent.is_valid()
    check_hyperplanes(concurrent)
    assert concurrent.homogenized.zero() == (1, 2, 3)
    antipodal = AntipodalArrangement.from_vectors(
        1, [[one, 0], [-2 * one, 0], [one, one]], check=False
    )
    assert antipodal.general_position() == (False, (1, 2))
    check_sphere(antipodal)
