"""Hyperplane arrangements in general position.

Covers validation, region enumeration with boundedness, polyhedralities,
the sign-map isomorphism decision, single cone moves of the constants
vector, and the hyperplane-at-infinity ordering search.  All but the cone
LPs are read off one chirotope, of the lift: the rows (a_i | c_i) and
e = (0, ..., 0, 1).  The concurrency sign map is its deletion of e,
chi_hom, itself a ``Chirotope``.  Isomorphism is the normal-system decider
on the lifts with e fixed.  Cone facets and moves are exact LPs over the
wall circuits of the normals.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .chirotope import Chirotope, SignedBijection, scaled_minors
from .field import FieldValue, QuadExt, exact, format_row, parse_rows
from .frozen import Frozen
from .normal_systems import NormalSystem, _witnesses

_INVALID = "not a general-position hyperplane arrangement"


class HyperplaneArrangement(Frozen):
    """n hyperplanes a_i . x = c_i in F^m, in general position.

    ``lift`` is the normal system in F^(m+1) of the rows (a_i | c_i) and
    e = (0, ..., 0, 1), label n + 1.  Its chi, built once, gives
    chi_A(B) = chi(B, e) (the contraction by e) and chi_hom(S) = chi(S)
    (the deletion of e): for sorted B and S both are lookups in ``signs``.
    """

    __slots__ = ("m", "coeffs", "constants", "lift")

    def __init__(
        self,
        m: int,
        coeffs: Sequence[Sequence[FieldValue]],
        constants: Sequence[FieldValue],
        check: bool = True,
    ):
        rows, cons = tuple(map(exact, coeffs)), exact(constants)
        if len(rows) != len(cons):
            raise ValueError("one constant per hyperplane required")
        for i, r in enumerate(rows):
            if len(r) != m:
                raise ValueError(f"row {i + 1} has length {len(r)}, expected {m}")
        if m < 1:  # before NormalSystem, which has its own message for it
            raise ValueError(_INVALID)
        lift = [r + (c,) for r, c in zip(rows, cons)] + [(0,) * m + (1,)]
        self._set(m, rows, cons, NormalSystem(m + 1, lift, check=False))
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
        # bases with e: every <= m rows independent; without: no concurrency
        return self.lift.is_valid()

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "coeffs": [format_row(r) for r in self.coeffs],
            "constants": format_row(self.constants),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HyperplaneArrangement":
        """Raises ValueError on any shape ``field.parse_rows`` refuses."""
        return cls(*parse_rows(data, "m", "coeffs", "constants"))

    def __repr__(self):
        return f"HyperplaneArrangement(m={self.m}, n={self.n})"


def concurrency_sign_map(ha: HyperplaneArrangement) -> Chirotope:
    """chi_hom, the lift's signs on the (m+1)-subsets S without e: those of
    det(rows (a_i | c_i), i in S), kept with the lift's chi from the first
    call (``_deletion``).  Raises ValueError, on every call, on input not
    in general position: naming a concurrent S if there is one."""
    hom = ha.lift.chirotope._table(_deletion)
    bad = hom.zero()
    if bad is not None:
        raise ValueError(f"hyperplanes {bad} are concurrent")
    if not ha.is_valid():
        raise ValueError(_INVALID)
    return hom


def _deletion(chi: Chirotope) -> Chirotope:
    """The deletion of a lift's last label, e: its signs without e."""
    labels, e, signs = chi.labels[:-1], chi.labels[-1], chi.signs
    return Chirotope._of(chi.rank, labels, {s: signs[s] for s in signs if s[-1] != e})


def normal_system_of(ha: HyperplaneArrangement) -> NormalSystem:
    return NormalSystem(ha.m, ha.coeffs)


def hyperplanes_from(
    ns: NormalSystem, constants: Sequence[FieldValue]
) -> HyperplaneArrangement:
    """The arrangement a_i . x = c_i on the vectors of ns."""
    return HyperplaneArrangement(ns.m, ns.vectors, constants)


class Region(Frozen):
    """An open region given by its sign vector, with exact boundedness."""

    __slots__ = ("signs", "bounded")

    def __init__(self, signs: Sequence[int], bounded: bool):
        self._set(tuple(signs), bounded)

    def __repr__(self):
        return f"Region({list(self.signs)}, bounded={self.bounded})"


def _sides(ha: HyperplaneArrangement):
    """The vertex sides (``_side_table``), kept, read-only, with the lift's
    chi from the first call; a table that raises is not kept."""
    if ha.n < ha.m and not ha.is_valid():  # the lift has no base to scan
        raise ValueError(_INVALID)
    return ha.lift.chirotope._table(_side_table)


def _side_table(chi: Chirotope):
    """The vertex sides as bit masks, in one pass over a lift's chi: n + 1
    labels, rank m + 1, e the last label.

    Label h is bit 1 << (n - h), so masks order as the sign vectors do (a
    set bit for +1, label 1 most significant).  Bit h of plus[B], B a sorted
    m-subset, is sign(a_h . v_B - c_h) > 0 at the vertex v_B: subtracting
    A_B v_B from the last column of the rows (a_i | c_i), i in B then h,
    leaves det(A_B) (c_h - a_h . v_B), so that sign is -chi(B, e) chi(B, h).
    Bit h of ray[L], L a sorted (m-1)-subset, is chi(L, h, e) > 0: the
    cocircuit of the line L cuts out.  chi(B, h) is chi of B + h sorted,
    negated once per label of B above h; ``combinations`` drops the labels
    from the last, so the negation alternates.  Raises ValueError on the
    first zero sign.
    """
    signs, labels, m = chi.signs, chi.labels[:-1], chi.rank - 1
    n, e = len(labels), chi.labels[-1:]
    plus = dict.fromkeys(combinations(labels, m), 0)
    ray = dict.fromkeys(combinations(labels, m - 1), 0)
    for sub, s in signs.items():
        if not s:
            bad = tuple(h for h in sub if h <= n)
            raise ValueError(f"hyperplanes {bad} are not in general position")
        if sub[-1] > n:
            base = sub[:-1]
            for line, h in zip(combinations(base, m - 1), reversed(base)):
                if s > 0:
                    ray[line] |= 1 << (n - h)
                s = -s
        else:
            for base, h in zip(combinations(sub, m), reversed(sub)):
                if signs[base + e] != s:
                    plus[base] |= 1 << (n - h)
                s = -s
    return plus, ray


def _line_masks(chi: Chirotope) -> Dict[Tuple[int, ...], List[int]]:
    """For each line L of ``_side_table``, the masks of every subset of L,
    that of all of L last; kept with chi beside the side table."""
    n, free = len(chi.labels) - 1, {}
    for line in combinations(chi.labels[:-1], chi.rank - 2):
        free[line] = out = [0]
        for h in line:
            out += [x | 1 << (n - h) for x in out]
    return free


def enumerate_regions(ha: HyperplaneArrangement) -> List[Region]:
    """All regions, sorted, with exact boundedness.

    In general position with n >= m every region has a vertex v_B, so the
    regions are the masks plus[B] of ``_sides``, kept with the lift's chi,
    with any bits of B set.  A region is unbounded iff its recession cone
    has an extreme ray: ray[L] or its negation, off an (m-1)-subset L,
    agrees with its signs off L.  Regions are sorted as masks; ``product``
    lists sign vectors in mask order, so the high and low halves of a mask
    index its vector's.  Each Region is built as ``Region._of`` builds it,
    through slot setters bound once per call.  With n < m every sign
    vector is an unbounded region.  Raises ValueError on input not in
    general position.
    """
    n, k = ha.n, ha.n // 2
    (plus, ray), full = _sides(ha), (1 << n) - 1
    if n < ha.m:
        return [Region._of(s, False) for s in product((-1, 1), repeat=n)]
    high, low = list(product((-1, 1), repeat=n - k)), list(product((-1, 1), repeat=k))
    free = ha.lift.chirotope._table(_line_masks)
    regions, unbounded = set(), set()
    for base, p in plus.items():  # B's subsets: B[:-1]'s, with or without B[-1]
        f = free[base[:-1]]
        regions.update(map(p.__or__, f), map((p | 1 << (n - base[-1])).__or__, f))
    for line, r in ray.items():
        f = free[line]
        unbounded.update(map(r.__or__, f), map((full ^ r ^ f[-1]).__or__, f))
    put_signs, put_bounded, out = Region.signs.__set__, Region.bounded.__set__, []
    for x in sorted(regions):
        r = object.__new__(Region)
        put_signs(r, high[x >> k] + low[x & (1 << k) - 1])
        put_bounded(r, x not in unbounded)
        out.append(r)
    return out


def region_counts(ha: HyperplaneArrangement) -> Tuple[int, int, int]:
    regions = enumerate_regions(ha)
    bounded = sum(1 for r in regions if r.bounded)
    return len(regions), bounded, len(regions) - bounded


def predicted_counts(n: int, m: int) -> Tuple[int, int, int]:
    """Closed-form region counts of a general-position arrangement; C(-1, k)
    reads 0, so no hyperplane gives the one unbounded region."""
    total = sum(comb(n, i) for i in range(m + 1))
    bounded = comb(n - 1, m) if n else 0
    unbounded = sum(comb(n, i) for i in range(m)) + (comb(n - 1, m - 1) if n else 0)
    return total, bounded, unbounded


def polyhedralities(ha: HyperplaneArrangement) -> List[Tuple[int, ...]]:
    """Every sorted (m+1)-subset that ``is_simplex_polyhedrality`` accepts,
    off one side table."""
    plus, n = _sides(ha)[0], ha.n
    return [s for s in combinations(ha.labels, ha.m + 1) if _bounds_region(plus, s, n)]


def is_simplex_polyhedrality(ha: HyperplaneArrangement, subset: Sequence[int]) -> bool:
    """True iff the bounded simplex of these m+1 hyperplanes is a region of
    the whole arrangement: no other hyperplane separates its vertices."""
    subset = tuple(sorted(subset))
    if len(set(subset)) != ha.m + 1 or not set(subset) <= set(ha.labels):
        raise ValueError("subset must be m + 1 distinct hyperplane labels")
    return _bounds_region(_sides(ha)[0], subset, ha.n)


def _split(sides: list) -> int:
    """The bits on which the side masks disagree, their AND XOR their OR;
    0 with no masks."""
    return reduce(operator.and_, sides) ^ reduce(operator.or_, sides) if sides else 0


def _bounds_region(plus: dict, subset: Tuple[int, ...], n: int) -> bool:
    """True iff the side masks of the sorted subset's vertices agree off
    the subset."""
    sides = [plus[sub] for sub in combinations(subset, len(subset) - 1)]
    return not _split(sides) & ~sum(1 << (n - h) for h in subset)


def induced_sign_map(ha2: HyperplaneArrangement, w: SignedBijection) -> Chirotope:
    """chi_hom of ha2 pulled back through the signed bijection, on w's
    labels: the entry of sorted S is the sign of the determinant with rows
    mu(i) * (a2_pi(i) | c2_pi(i)), i in S in order."""
    hom, labels = concurrency_sign_map(ha2), tuple(sorted(w.labels))
    signs = {sub: hom.pullback(w, sub) for sub in combinations(labels, hom.rank)}
    return Chirotope._of(hom.rank, labels, signs)


def _check_pair(ha1: HyperplaneArrangement, ha2: HyperplaneArrangement) -> None:
    """Raise ValueError unless the arrangements share n and m and both are in
    general position; the decider and both definition oracles start here."""
    if ha1.m != ha2.m or ha1.n != ha2.n:
        raise ValueError("arrangements must share n and m")
    for ha in (ha1, ha2):
        if not ha.is_valid():
            concurrency_sign_map(ha)  # raises, naming a concurrent subset if any


class IsoResult(Frozen):
    __slots__ = ("isomorphic", "witness", "branch")

    def __init__(self, isomorphic: bool, witness=None, branch: Optional[str] = None):
        self._set(isomorphic, witness, branch)

    def __repr__(self):
        if not self.isomorphic:
            return "IsoResult(non-isomorphic)"
        return f"IsoResult(witness={self.witness!r}, branch={self.branch!r})"


def arrangements_isomorphic(
    ha1: HyperplaneArrangement, ha2: HyperplaneArrangement
) -> IsoResult:
    """Decide isomorphism through the sign-map criterion.

    A normal-system witness w is accepted when pullback_sign(chi_hom1,
    chi_hom2, w) != 0: w pulls chi_hom2 back to chi_hom1 (branch "a") or to
    its negation ("b").  These are the lifts' witnesses that fix e, on 1..n
    (the sign of e absorbs the branch).  The first sorted one is returned,
    its branch read off the bases without e; with none (n <= m) every
    witness has branch "a".  Raises ValueError if not in general position.
    """
    _check_pair(ha1, ha2)
    if ha1.n <= ha1.m:
        return IsoResult(True, SignedBijection.identity(ha1.labels).negate(), "a")
    chi1, chi2 = ha1.lift.chirotope, ha2.lift.chirotope
    found = _witnesses(chi1, chi2, pin=ha1.n + 1)
    if not found:
        return IsoResult(False)
    w, base = found[0], ha1.labels[: ha1.m + 1]
    eps = chi1.signs[base] * chi2.pullback(w, base)
    w = SignedBijection._of(
        {i: w.perm[i] for i in ha1.labels}, {i: w.signs[i] for i in ha1.labels}
    )
    return IsoResult(True, w, "a" if eps > 0 else "b")


def _line_orders(ha: HyperplaneArrangement) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """For every sorted (m-1)-subset L, the labels of the other hyperplanes
    in the order their vertices appear along the line L cuts out; {} when
    m < 2 (points on a line have no line).  Each vertex p is solved once
    and placed by d . p, d the line's one direction in general position (a
    factor on d at most reverses the order).  Not kept with chi: it reads
    coordinates."""
    from .linalg import Matrix, kernel_basis, solve

    orders = {}
    for line in combinations(ha.labels, ha.m - 1) if ha.m > 1 else ():
        rows, cons = [ha.row(i) for i in line], [ha.constant(i) for i in line]
        [d] = kernel_basis(Matrix(rows))
        at = {}
        for j in ha.labels:
            if j not in line:
                p = solve(Matrix(rows + [ha.row(j)]), cons + [ha.constant(j)])
                at[j] = sum(x * y for x, y in zip(d, p))
        orders[line] = tuple(sorted(at, key=at.__getitem__))
    return orders


def _carries(orders1: dict, orders2: dict, perm: Dict[int, int]) -> bool:
    """True iff perm carries the vertex order along every line of orders1
    onto that along the image line in orders2, up to reversal."""
    for line, seq in orders1.items():
        image = tuple(perm[j] for j in seq)
        target = orders2[tuple(sorted(perm[i] for i in line))]
        if image != target and image[::-1] != target:
            return False
    return True


def isomorphic_by_definition(
    ha1: HyperplaneArrangement, ha2: HyperplaneArrangement, phi: SignedBijection
) -> bool:
    """Direct vertex-order oracle: along every line, the mapped vertex
    sequence must agree with the target's, up to reversal.  Raises
    ValueError unless phi's labels are the arrangements'."""
    _check_pair(ha1, ha2)
    if set(phi.labels) != set(ha1.labels):
        raise ValueError("bijection labels do not match the arrangements")
    return _carries(_line_orders(ha1), _line_orders(ha2), phi.perm)


def definition_oracle_isomorphic(
    ha1: HyperplaneArrangement, ha2: HyperplaneArrangement, max_n: int = 5
) -> bool:
    """Exhaustive search over all subscript bijections (factorial guard):
    both line-order tables are built once, then compared under each."""
    _check_pair(ha1, ha2)
    if ha1.n > max_n:
        raise ValueError(f"definition oracle limited to n <= {max_n}")
    orders1, orders2, labels = _line_orders(ha1), _line_orders(ha2), ha1.labels
    return any(
        _carries(orders1, orders2, dict(zip(labels, images)))
        for images in permutations(labels)
    )


def _circuits(ha: HyperplaneArrangement) -> Dict[Tuple[int, ...], list]:
    """The wall normal v_S of every (m+1)-subset S over the n constants,
    up to a positive factor; the cone of c is {c : v_S . c > 0 for all S}.

    v_S = chi_hom(S) g_S, where g_S[s] = (-1)^(j+m) det A_{S-s} for the j-th
    label s of S (from 0, so the signs alternate from + at the last label
    back), the cofactors of the last column of the rows
    (a_i | c_i): a circuit of the normals.  For normals scaled by k_i > 0
    (``scaled_minors``), k_s times the scaled cofactor is g_S[s] times the
    product of the k_i over S, a positive factor.  Over Q(sqrt d) each
    scaled pair (a, b) is read as a + b sqrt d, with Fraction parts, as
    ``QuadExt.inverse`` divides them.
    """
    hom, m = concurrency_sign_map(ha).signs, ha.m
    scale, minors, d = scaled_minors(m, dict(zip(ha.labels, ha.coeffs)))
    if d is not None:
        minors = {
            base: QuadExt._of(Fraction(a), Fraction(b), d)
            for base, (a, b) in minors.items()
        }
    walls = {}
    for sub, s in hom.items():
        v = [0] * ha.n
        for rest, i in zip(combinations(sub, m), reversed(sub)):
            v[i - 1] = s * scale[i] * minors[rest]
            s = -s
        walls[sub] = v
    return walls


def _separate(columns: Sequence[list], target: list) -> Optional[list]:
    """None if target is a nonnegative combination of the columns, else a
    Farkas certificate z with target . z < 0 <= column . z for every column.

    Phase 1 of the simplex method, Bland's rule: minimize sum a over
    sum_j y_j col_j + a = target, y, a >= 0, rows negated where the target
    is negative.  The tableau holds integers (or field values) over the
    positive basis determinant d, so every pivot division is exact.  At a
    positive optimum the duals are w_i = 1 - r_i, r_i the reduced cost of
    artificial i, and z = -w on the original rows.
    """
    rows, k = len(target), len(columns)
    ints = all(type(x) is int for col in (target, *columns) for x in col)
    div = operator.floordiv if ints else operator.truediv
    flips = [-1 if t < 0 else 1 for t in target]
    tab = [
        [f * col[i] for col in columns]
        + [int(i == j) for j in range(rows)]
        + [f * target[i]]
        for i, f in enumerate(flips)
    ]
    obj = [-sum(r[j] for r in tab) for j in range(k)] + [0] * rows
    obj.append(-sum(r[-1] for r in tab))
    basis, d = list(range(k, k + rows)), 1
    while obj[-1] != 0:
        col = next((j for j in range(k + rows) if obj[j] < 0), None)
        if col is None:
            return [-f * (d - obj[k + i]) for i, f in enumerate(flips)]
        best = None
        for i, r in enumerate(tab):
            if r[col] > 0:
                if best is None:
                    best = i
                    continue
                b = tab[best]
                cmp = r[-1] * b[col] - b[-1] * r[col]
                if cmp < 0 or (cmp == 0 and basis[i] < basis[best]):
                    best = i
        prow, p = tab[best], tab[best][col]
        for r in tab + [obj]:
            if r is not prow:
                f = r[col]
                r[:] = [div(x * p - f * y, d) for x, y in zip(r, prow)]
        basis[best], d = col, p
    return None


def _certificate(walls: dict, others, sub: Tuple[int, ...], m: int) -> Optional[list]:
    """``_separate`` of wall sub against the other walls of others, on the
    coordinates past the first m (the LP of ``cone_facets``)."""
    return _separate([walls[t][m:] for t in others if t != sub], walls[sub][m:])


def cone_facets(ha: HyperplaneArrangement) -> List[Tuple[int, ...]]:
    """(m+1)-subsets whose concurrency wall is a facet of the open cone of
    constants vectors with this concurrency sign map, by exact LP.

    c lies in the cone {c : v_T . c > 0 for all T} (``_circuits``), so by
    Farkas' lemma S is a facet iff v_S is not a nonnegative combination of
    the other v_T.  The v_T lie in the left kernel of the normals, where
    the coordinates off the base of the first m labels are injective: each
    LP has n - m rows.

    Only simplex polyhedralities are tested, against each other.  They
    depend on chi_A and chi_hom only, which are constant on the cone.  Near
    the relative interior of S's wall the hyperplanes of S meet close to
    one point that no other hyperplane passes through, so the simplex of S
    is a region: every facet is a polyhedrality.  The facets' v_T are the
    extreme rays of the cone of all v_T, so the other polyhedralities
    decide S as all walls would.
    """
    walls, polys = _circuits(ha), polyhedralities(ha)
    return [sub for sub in polys if _certificate(walls, polys, sub, ha.m) is not None]


def adjacent_cone_constants(
    ha: HyperplaneArrangement, facet: Sequence[int]
) -> tuple:
    """Constants vector in the cone across the facet's concurrency wall:
    exactly the facet's sign flips, all other signs are preserved.

    The LP of ``cone_facets`` against every other wall gives a certificate
    z with v_S . z < 0 <= v_T . z for T != S, and c + 2 t0 z with
    t0 = v_S . c / (-v_S . z) negates v_S . c and lowers no other v_T . c.
    Raises ValueError("subset is not a cone facet") on any other subset,
    and the ValueError of ``cone_facets`` on input not in general position.
    """
    facet = tuple(sorted(facet))
    walls, m = _circuits(ha), ha.m
    if facet not in walls:
        raise ValueError("subset must be m + 1 distinct hyperplane labels")
    v, z = walls[facet], _certificate(walls, walls, facet, m)
    if z is None:
        raise ValueError("subset is not a cone facet")
    z = [0] * m + z
    t0 = sum(x * c for x, c in zip(v, ha.constants)) / -sum(x * y for x, y in zip(v, z))
    return tuple(c + 2 * t0 * y for c, y in zip(ha.constants, z))


def is_infinity_arrangement(
    ha: HyperplaneArrangement,
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Search for an ordering in which every hyperplane is beyond all
    vertices of the ones placed before it (strictly on one common side):
    h may follow the placed set iff the AND and the OR of the side masks of
    its m-subsets agree on h.  Raises ValueError on input not in general
    position."""
    plus, n, dead = _sides(ha)[0], ha.n, set()

    def extend(built: frozenset, order: Tuple[int, ...]):
        if len(order) == n:
            return order
        if built in dead:
            return None
        split = _split([plus[sub] for sub in combinations(sorted(built), ha.m)])
        for h in ha.labels:
            if h in built or split >> (n - h) & 1:
                continue
            res = extend(built | {h}, order + (h,))
            if res is not None:
                return res
        dead.add(built)
        return None

    result = extend(frozenset(), ())
    return result is not None, result
