"""Hyperplane arrangements in general position.

Covers validation, region enumeration with boundedness, orientation
checks of simplices, concurrency sign maps and the sign-map isomorphism
decision, single cone moves of the constants vector, and the
hyperplane-at-infinity ordering search.  Regions, vertex sides and
simplex polyhedralities are read off two chirotopes, of the normals and
of the homogenized rows (a_i | c_i); Fourier-Motzkin elimination is used
only for cone facets.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from . import fm, linalg
from .chirotope import Chirotope, pullback_sign
from .field import FieldValue, format_value, parse_value, sign
from .frozen import Frozen
from .linalg import Matrix
from .normal_systems import NormalSystem, find_isomorphisms
from .symbols import SignedBijection

_INVALID = "not a general-position hyperplane arrangement"


class HyperplaneArrangement(Frozen):
    """n hyperplanes a_i . x = c_i in F^m, in general position.

    Two chirotopes are built once, at construction: ``normals``, the
    normal system of the a_i, carries chi_A, and ``homogenized`` is chi of
    the rows (a_i | c_i), whose signs are the bordered determinants of
    every (m+1)-subset.  Validation and every reader use them.
    """

    __slots__ = ("m", "coeffs", "constants", "normals", "homogenized")

    def __init__(
        self,
        m: int,
        coeffs: Sequence[Sequence[FieldValue]],
        constants: Sequence[FieldValue],
        check: bool = True,
    ):
        rows = tuple(
            tuple(Fraction(x) if isinstance(x, int) else x for x in r) for r in coeffs
        )
        cons = tuple(Fraction(x) if isinstance(x, int) else x for x in constants)
        if len(rows) != len(cons):
            raise ValueError("one constant per hyperplane required")
        for i, r in enumerate(rows):
            if len(r) != m:
                raise ValueError(f"row {i + 1} has length {len(r)}, expected {m}")
        if m < 1:  # before NormalSystem, which has its own message for it
            raise ValueError(_INVALID)
        self._build(NormalSystem(m, rows, check=False), cons, check)

    def _build(self, normals: NormalSystem, cons: tuple, check: bool):
        rows = normals.vectors
        hom = Chirotope(
            normals.m + 1, {i: r + (c,) for i, (r, c) in enumerate(zip(rows, cons), 1)}
        )
        self._set(normals.m, rows, cons, normals, hom)
        if check and not self.is_valid():
            raise ValueError(_INVALID)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def labels(self) -> Tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def row(self, label: int) -> tuple:
        return self.coeffs[label - 1]

    def constant(self, label: int) -> FieldValue:
        return self.constants[label - 1]

    def is_valid(self) -> bool:
        # every <= m rows independent (then each such intersection is a
        # nonempty affine flat of the right dimension), and every m+1
        # hyperplanes miss a common point: no zero in the chirotope of the
        # homogenized rows
        return self.normals.is_valid() and self.homogenized.zero() is None

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "coeffs": [[format_value(x) for x in r] for r in self.coeffs],
            "constants": [format_value(c) for c in self.constants],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HyperplaneArrangement":
        coeffs = [[parse_value(s) for s in row] for row in data["coeffs"]]
        constants = [parse_value(s) for s in data["constants"]]
        return cls(int(data["m"]), coeffs, constants)

    def __repr__(self):
        return f"HyperplaneArrangement(m={self.m}, n={self.n})"


def _no_concurrency(*arrangements: HyperplaneArrangement):
    """Raise on the first concurrent (m+1)-subset of any arrangement."""
    for ha in arrangements:
        bad = ha.homogenized.zero()
        if bad is not None:
            raise ValueError(f"hyperplanes {bad} are concurrent")


def normal_system_of(ha: HyperplaneArrangement) -> NormalSystem:
    return ha.normals._checked()


def hyperplanes_from(
    ns: NormalSystem, constants: Sequence[FieldValue]
) -> HyperplaneArrangement:
    """The arrangement a_i . x = c_i on the vectors of ns, which keeps
    its chirotope."""
    cons = tuple(Fraction(x) if isinstance(x, int) else x for x in constants)
    if len(cons) != ns.n:
        raise ValueError("one constant per hyperplane required")
    ha = object.__new__(HyperplaneArrangement)
    ha._build(ns, cons, True)
    return ha


class Region(Frozen):
    """An open region given by its sign vector, with exact boundedness."""

    __slots__ = ("signs", "bounded")

    def __init__(self, signs: Sequence[int], bounded: bool):
        object.__setattr__(self, "signs", tuple(signs))
        object.__setattr__(self, "bounded", bounded)

    def __eq__(self, other):
        return (
            isinstance(other, Region)
            and self.signs == other.signs
            and self.bounded == other.bounded
        )

    def __hash__(self):
        return hash((self.signs, self.bounded))

    def __lt__(self, other):
        return (self.signs, self.bounded) < (other.signs, other.bounded)

    def __repr__(self):
        return f"Region({list(self.signs)}, bounded={self.bounded})"


def _vertex_sides(ha: HyperplaneArrangement):
    """chi_A of the normals and side(B, h) = sign(a_h . v_B - c_h) for the
    vertex v_B of an m-subset B and a label h outside it: subtracting A_B v_B
    from the last column of the rows (a_i | c_i), i in B then h, leaves
    det(A_B) (c_h - a_h . v_B), so side = -chi_A(B) chi_hom(B, h).
    """
    chi_a, chi_hom = ha.normals.chirotope, ha.homogenized
    return chi_a, lambda base, h: -chi_a(base) * chi_hom(tuple(base) + (h,))


def _fills(free: Sequence[int], pattern: list) -> set:
    """Every sign vector equal to pattern off the labels in free."""
    out = set()
    for choice in product((-1, 1), repeat=len(free)):
        for i, s in zip(free, choice):
            pattern[i - 1] = s
        out.add(tuple(pattern))
    return out


def enumerate_regions(ha: HyperplaneArrangement) -> List[Region]:
    """All regions, sorted, with exact boundedness.

    In general position with n >= m every region has a vertex v_B, so the
    regions are the vertex sides off B with all 2^m signs on B.  A region is
    unbounded iff its recession cone has an extreme ray: a cocircuit
    +-(chi_A(L, h))_h of an (m-1)-subset L that agrees with its signs off L.
    With n < m every sign vector is an unbounded region.
    """
    labels, m = ha.labels, ha.m
    if ha.n < m:
        return sorted(Region(s, False) for s in product((-1, 1), repeat=ha.n))
    chi_a, side = _vertex_sides(ha)
    regions, unbounded = set(), set()
    for base in combinations(labels, m):
        regions |= _fills(base, [0 if h in base else side(base, h) for h in labels])
    for line in combinations(labels, m - 1):
        ray = [0 if h in line else chi_a(line + (h,)) for h in labels]
        unbounded |= _fills(line, ray) | _fills(line, [-s for s in ray])
    return sorted(Region(s, s not in unbounded) for s in regions)


def region_counts(ha: HyperplaneArrangement) -> Tuple[int, int, int]:
    regions = enumerate_regions(ha)
    bounded = sum(1 for r in regions if r.bounded)
    return len(regions), bounded, len(regions) - bounded


def predicted_counts(n: int, m: int) -> Tuple[int, int, int]:
    """Closed-form region counts of a general-position arrangement."""
    total = sum(comb(n, i) for i in range(m + 1))
    bounded = comb(n - 1, m)
    unbounded = sum(comb(n, i) for i in range(m)) + comb(n - 1, m - 1)
    return total, bounded, unbounded


def vertex_orientation(points: Sequence[Sequence[FieldValue]]) -> int:
    """Sign of the determinant of rows (1, P_i)."""
    mat = Matrix([[Fraction(1)] + list(p) for p in points])
    s = sign(linalg.det(mat))
    if s == 0:
        raise ValueError("points are affinely dependent")
    return s


def _vertex(ha: HyperplaneArrangement, subset: Sequence[int]) -> tuple:
    a = Matrix([ha.row(i) for i in subset])
    return linalg.solve(a, [ha.constant(i) for i in subset])


def simplex_orientation_check(
    ha: HyperplaneArrangement,
) -> Tuple[int, int]:
    """For an (m+1)-hyperplane arrangement with outward normals, the sign of
    the vertex orientation [P_1...P_{m+1}] and of det(rows (a_i | c_i)).

    P_i is the vertex opposite hyperplane i; outwardness means
    a_i . P_i < c_i for every i.
    """
    if ha.n != ha.m + 1:
        raise ValueError("expected exactly m + 1 hyperplanes")
    verts = []
    for i in ha.labels:
        rest = [j for j in ha.labels if j != i]
        p = _vertex(ha, rest)
        lhs = sum(a * x for a, x in zip(ha.row(i), p))
        if not sign(lhs - ha.constant(i)) < 0:
            raise ValueError(f"normal {i} is not outward")
        verts.append(p)
    return vertex_orientation(verts), ha.homogenized(ha.labels)


def is_simplex_polyhedrality(
    ha: HyperplaneArrangement, subset: Sequence[int]
) -> bool:
    """True iff the bounded simplex of these m+1 hyperplanes is a region of
    the whole arrangement: no other hyperplane separates its vertices."""
    subset = tuple(sorted(subset))
    if len(subset) != ha.m + 1 or not set(subset) <= set(ha.labels):
        raise ValueError("subset must be m + 1 distinct hyperplane labels")
    _, side = _vertex_sides(ha)
    for h in ha.labels:
        if h not in subset:
            sides = {side([j for j in subset if j != i], h) for i in subset}
            if 0 in sides or len(sides) > 1:
                return False
    return True


class ConcurrencySignMap(Frozen):
    """Sign of the bordered determinant for every (m+1)-subset."""

    __slots__ = ("signs",)

    def __init__(self, signs: Dict[Tuple[int, ...], int]):
        if any(s not in (1, -1) for s in signs.values()):
            raise ValueError("sign map entries must be +-1")
        object.__setattr__(self, "signs", dict(sorted(signs.items())))

    def __getitem__(self, key: Tuple[int, ...]) -> int:
        return self.signs[tuple(key)]

    def __iter__(self):
        return iter(self.signs.items())

    def __len__(self):
        return len(self.signs)

    def __eq__(self, other):
        return isinstance(other, ConcurrencySignMap) and self.signs == other.signs

    def to_json_dict(self) -> dict:
        return {
            ",".join(map(str, k)): v for k, v in self.signs.items()
        }


def _bordered_det(
    ha: HyperplaneArrangement, subset: Sequence[int], constants=None
) -> FieldValue:
    cons = ha.constants if constants is None else constants
    rows = [list(ha.row(i)) + [cons[i - 1]] for i in subset]
    return linalg.det(Matrix(rows))


def concurrency_sign_map(ha: HyperplaneArrangement) -> ConcurrencySignMap:
    _no_concurrency(ha)
    return ConcurrencySignMap(ha.homogenized.signs)


def induced_sign_map(
    ha2: HyperplaneArrangement, w: SignedBijection
) -> ConcurrencySignMap:
    """Sign map of ha2 pulled back through the signed bijection.

    Keyed by source subsets: entry for {i_1 < ... < i_{m+1}} is the sign of
    the determinant with rows mu(i) * (a2_{pi(i)} | c2_{pi(i)}) in source
    order.
    """
    _no_concurrency(ha2)
    chi = ha2.homogenized
    return ConcurrencySignMap(
        {sub: chi.pullback(w, sub) for sub in combinations(sorted(w.labels), ha2.m + 1)}
    )


class IsoResult(Frozen):
    __slots__ = ("isomorphic", "witness", "branch")

    def __init__(self, isomorphic: bool, witness=None, branch: Optional[str] = None):
        object.__setattr__(self, "isomorphic", isomorphic)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "branch", branch)

    def __repr__(self):
        if not self.isomorphic:
            return "IsoResult(non-isomorphic)"
        return f"IsoResult(witness={self.witness!r}, branch={self.branch!r})"


def arrangements_isomorphic(
    ha1: HyperplaneArrangement, ha2: HyperplaneArrangement
) -> IsoResult:
    """Decide isomorphism through the sign-map criterion.

    A normal-system witness is accepted when the pulled-back sign map agrees
    with ha1's on every key (branch "a") or is negated on every key (branch
    "b"); the alternative is global, not per key.
    """
    if ha1.m != ha2.m or ha1.n != ha2.n:
        raise ValueError("arrangements must share n and m")
    _no_concurrency(ha1, ha2)
    # find_isomorphisms validates the normal systems itself
    for w in find_isomorphisms(ha1.normals, ha2.normals):
        eps = pullback_sign(ha1.homogenized, ha2.homogenized, w)
        if eps:
            return IsoResult(True, w, "a" if eps > 0 else "b")
    return IsoResult(False)


def _line_vertex_order(
    ha: HyperplaneArrangement, line: Sequence[int]
) -> Tuple[int, ...]:
    """Labels of the other hyperplanes in the order their vertices appear
    along the line cut out by the given (m-1)-subset."""
    line = tuple(sorted(line))
    if len(line) != ha.m - 1:
        raise ValueError("need m - 1 hyperplanes to cut out a line")
    a = Matrix([ha.row(i) for i in line])
    dirs = linalg.kernel_basis(a)
    if len(dirs) != 1:
        raise ValueError("subset does not cut out a line")
    d = dirs[0]
    params = []
    for j in ha.labels:
        if j in line:
            continue
        p = _vertex(ha, list(line) + [j])
        # exact parameter along the chosen direction (up to a common
        # positive factor, which cannot change the order)
        params.append((sum(x * y for x, y in zip(d, p)), j))
    params.sort(key=lambda item: item[0])
    return tuple(j for _, j in params)


def isomorphic_by_definition(
    ha1: HyperplaneArrangement, ha2: HyperplaneArrangement, phi: SignedBijection
) -> bool:
    """Direct vertex-order oracle: along every line, the mapped vertex
    sequence must agree with the target's, up to reversal."""
    if ha1.m != ha2.m or ha1.n != ha2.n:
        raise ValueError("arrangements must share n and m")
    if ha1.m < 2:
        return True
    perm = phi.perm
    for line in combinations(ha1.labels, ha1.m - 1):
        seq1 = tuple(perm[j] for j in _line_vertex_order(ha1, line))
        seq2 = _line_vertex_order(ha2, sorted(perm[i] for i in line))
        if seq1 != seq2 and seq1 != tuple(reversed(seq2)):
            return False
    return True


def definition_oracle_isomorphic(
    ha1: HyperplaneArrangement, ha2: HyperplaneArrangement, max_n: int = 5
) -> bool:
    """Exhaustive search over all subscript bijections (factorial guard)."""
    if ha1.m != ha2.m or ha1.n != ha2.n:
        raise ValueError("arrangements must share n and m")
    if ha1.n > max_n:
        raise ValueError(f"definition oracle limited to n <= {max_n}")
    labels = list(ha1.labels)
    for images in permutations(labels):
        phi = SignedBijection(
            dict(zip(labels, images)), {i: 1 for i in labels}
        )
        if isomorphic_by_definition(ha1, ha2, phi):
            return True
    return False


def _gradient(ha: HyperplaneArrangement, subset: Tuple[int, ...]) -> list:
    """Gradient of y -> det(rows (a_i | y_i), i in subset) as a vector over
    all n constants (cofactors of the last column; zero off the subset)."""
    g = [Fraction(0)] * ha.n
    for i in subset:
        unit = [Fraction(0)] * ha.n
        unit[i - 1] = Fraction(1)
        g[i - 1] = _bordered_det(ha, subset, constants=unit)
    return g


def adjacent_cone_constants(
    ha: HyperplaneArrangement, facet: Sequence[int]
) -> tuple:
    """Constants vector in the cone across the facet's concurrency wall:
    exactly the facet's sign flips, all other signs are preserved.

    The move runs along the wall's normal, the gradient of the facet's
    bordered determinant in the constants, to halfway between this wall
    and the next one on that ray.  It is not complete: when another wall
    meets the ray first, it raises "no single-wall crossing in the normal
    direction", although the facet is real and some other direction
    crosses it alone.  The input must be a simplex polyhedrality.
    """
    facet = tuple(sorted(facet))
    if not is_simplex_polyhedrality(ha, facet):
        raise ValueError("subset is not a simplex polyhedrality")
    g = _gradient(ha, facet)
    val = _bordered_det(ha, facet)
    if sign(val) < 0:
        g = [-x for x in g]
    # moving to c - lam*g decreases M_facet toward (and past) zero
    gval = sum(gx * gx for gx in _gradient(ha, facet))
    lam0 = abs(val) / gval
    lam_max = None
    for sub in combinations(ha.labels, ha.m + 1):
        if sub == facet:
            continue
        mv = _bordered_det(ha, sub)
        mg = sum(
            gx * cx for gx, cx in zip(_gradient(ha, sub), g)
        )
        if sign(mg) == 0 or sign(mv) * sign(mg) < 0:
            continue  # this wall is never reached moving in direction -g
        lam_sub = abs(mv) / abs(mg)
        if lam_max is None or lam_sub < lam_max:
            lam_max = lam_sub
    if lam_max is not None and not lam0 < lam_max:
        raise ValueError("no single-wall crossing in the normal direction")
    lam = lam0 * 2 if lam_max is None else (lam0 + lam_max) / 2
    return tuple(c - lam * gx for c, gx in zip(ha.constants, g))


def cone_facets(ha: HyperplaneArrangement) -> List[Tuple[int, ...]]:
    """(m+1)-subsets whose concurrency wall is a facet of the cone of the
    constants vector, by exact feasibility in the n constants variables."""
    if ha.n > 7:
        raise ValueError("cone facet search limited to n <= 7")
    smap = concurrency_sign_map(ha)
    grads = {
        sub: _gradient(ha, sub) for sub in combinations(ha.labels, ha.m + 1)
    }
    out = []
    for sub, g in grads.items():
        cons = fm.equality_constraints(g, Fraction(0))
        for other, go in grads.items():
            if other == sub:
                continue
            s = smap[other]
            cons.append(fm.constraint([s * x for x in go], Fraction(0), True))
        if fm.feasible(cons, ha.n):
            out.append(sub)
    return sorted(out)


def is_infinity_arrangement(
    ha: HyperplaneArrangement,
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Search for an ordering in which every hyperplane is beyond all
    vertices of the ones placed before it (strictly on one common side)."""
    _, side = _vertex_sides(ha)

    def addable(built: frozenset, h: int) -> bool:
        sides = {side(sub, h) for sub in combinations(sorted(built), ha.m)}
        return 0 not in sides and len(sides) <= 1

    dead = set()

    def extend(built: frozenset, order: Tuple[int, ...]):
        if len(order) == ha.n:
            return order
        if built in dead:
            return None
        for h in ha.labels:
            if h in built:
                continue
            if addable(built, h):
                res = extend(built | {h}, order + (h,))
                if res is not None:
                    return res
        dead.add(built)
        return None

    result = extend(frozenset(), ())
    return result is not None, result


def affine_image(
    ha: HyperplaneArrangement, mat: Matrix, shift: Sequence[FieldValue]
) -> HyperplaneArrangement:
    """The arrangement of the images of the hyperplanes under x -> M x + t."""
    if sign(linalg.det(mat)) == 0:
        raise ValueError("affine map must be invertible")
    inv = linalg.inverse(mat)
    coeffs, constants = [], []
    for row, c in zip(ha.coeffs, ha.constants):
        new_row = inv.transpose().apply(row)  # a M^{-1} as a row vector
        coeffs.append(list(new_row))
        constants.append(c + sum(x * t for x, t in zip(new_row, shift)))
    return HyperplaneArrangement(ha.m, coeffs, constants)
