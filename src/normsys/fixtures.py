"""Bundled worked-example data and its verification.

The data files under ``fixtures_data/`` hold the two six-pair rational
systems U1 and U2, the standard four-pair arrangement S4, their line-cycle
tables, the 24 compatible symbols of S4, and the fifteen positive-combination
equations of each six-pair system.  ``verify_fixture`` recomputes every
derived table from the raw vectors and reports diffs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Tuple

from .cycles import LineCycle, line_cycle
from .frozen import Frozen
from .normal_systems import NormalSystem
from .sphere import AntipodalArrangement
from .symbols import Symbol, compatible_symbols

FIXTURE_IDS = (
    "U1",
    "U2",
    "S4-standard",
    "U1-equations",
    "U2-equations",
    "U1-cycles",
    "U2-cycles",
    "S4-cycles",
    "S4-symbols",
)

#: fixtures whose payload is derived data that can be recomputed
VERIFIABLE_IDS = (
    "U1-equations",
    "U2-equations",
    "U1-cycles",
    "U2-cycles",
    "S4-cycles",
    "S4-symbols",
)


class PaperFixture(Frozen):
    __slots__ = ("id", "kind", "payload")

    def __init__(self, fixture_id: str, kind: str, payload):
        self._set(fixture_id, kind, payload)

    def __repr__(self):
        return f"PaperFixture({self.id!r}, {self.kind!r})"


def _raw(fixture_id: str) -> dict:
    ref = resources.files("normsys").joinpath(f"fixtures_data/{fixture_id}.json")
    return json.loads(ref.read_text())


class Equation(Frozen):
    """Exact identity: sum of left terms == sum of right terms == vector."""

    __slots__ = ("left", "right", "vector")

    def __init__(self, left, right, vector):
        terms = [tuple((int(c), int(i)) for c, i in side) for side in (left, right)]
        self._set(*terms, tuple(vector))

    def holds_for(self, ns: NormalSystem) -> bool:
        def side(terms):
            acc = [Fraction(0)] * ns.m
            for c, i in terms:
                v = ns.vector(i)
                for j in range(ns.m):
                    acc[j] += c * v[j]
            return acc

        return side(self.left) == side(self.right) == list(self.vector)


def load_fixture(fixture_id: str) -> PaperFixture:
    if fixture_id not in FIXTURE_IDS:
        raise KeyError(f"unknown fixture {fixture_id!r}")
    data = _raw(fixture_id)
    if fixture_id in ("U1", "U2"):
        return PaperFixture(fixture_id, "normal-system", NormalSystem.from_json_dict(data))
    if fixture_id == "S4-standard":
        return PaperFixture(
            fixture_id, "arrangement", AntipodalArrangement.from_json_dict(data)
        )
    if fixture_id.endswith("-equations"):
        eqs = [
            Equation(e["left"], e["right"], [Fraction(x) for x in e["vector"]])
            for e in data["equations"]
        ]
        return PaperFixture(fixture_id, "equations", tuple(eqs))
    if fixture_id.endswith("-cycles"):
        cycles = {
            (int(k.split(",")[0]), 1 if k.split(",")[1] == "+" else -1): LineCycle(v)
            for k, v in data["cycles"].items()
        }
        return PaperFixture(fixture_id, "cycles", cycles)
    symbols = frozenset(Symbol.parse(t) for t in data["symbols"])  # "S4-symbols"
    return PaperFixture(fixture_id, "symbols", symbols)


def _base_arrangement(fixture_id: str) -> AntipodalArrangement:
    base = fixture_id.split("-")[0]
    if base in ("U1", "U2"):
        return load_fixture(base).payload.to_arrangement()
    return load_fixture("S4-standard").payload


class FixtureReport(Frozen):
    __slots__ = ("id", "diffs")

    def __init__(self, fixture_id: str, diffs: List[str]):
        self._set(fixture_id, tuple(diffs))

    @property
    def ok(self) -> bool:
        return not self.diffs

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.diffs)} diffs"
        return f"FixtureReport({self.id!r}, {state})"


def verify_fixture(fixture_id: str) -> FixtureReport:
    """Recompute the fixture's derived data and diff against the stored
    values."""
    fx = load_fixture(fixture_id)
    diffs: List[str] = []
    if fx.kind == "cycles":
        arr = _base_arrangement(fixture_id)
        for (j, s), stored in sorted(fx.payload.items()):
            computed = line_cycle(arr, j, positive=(s > 0))
            if computed != stored:
                diffs.append(
                    f"cycle ({j},{'+' if s > 0 else '-'}): "
                    f"computed {computed} != stored {stored}"
                )
    elif fx.kind == "symbols":
        arr = load_fixture("S4-standard").payload
        computed = compatible_symbols(arr)
        if computed != fx.payload:
            missing = sorted(fx.payload - computed)
            extra = sorted(computed - fx.payload)
            diffs.append(f"symbols: missing {missing}, extra {extra}")
    elif fx.kind == "equations":
        ns = load_fixture(fixture_id.split("-")[0]).payload
        for idx, eq in enumerate(fx.payload, 1):
            if not eq.holds_for(ns):
                diffs.append(f"equation {idx} does not hold")
    else:
        raise KeyError(f"fixture {fixture_id!r} has no derived data to verify")
    return FixtureReport(fixture_id, diffs)


def verify_all() -> List[FixtureReport]:
    return [verify_fixture(fid) for fid in VERIFIABLE_IDS]


PairVertex = Tuple[Tuple[int, int], Tuple[int, int]]


def _pair_vertex(a: Tuple[int, int], b: Tuple[int, int]) -> PairVertex:
    """Unordered signed pair, modulo overall negation: the smaller label
    comes first and carries sign +1."""
    (sa, ia), (sb, ib) = a, b
    if ia > ib:
        (sa, ia), (sb, ib) = (sb, ib), (sa, ia)
    if sa < 0:
        sa, sb = -sa, -sb
    return ((sa, ia), (sb, ib))


def compatible_pair_graph(equations) -> Dict[PairVertex, set]:
    """Graph whose vertices are signed pairs and whose edges come from the
    2+2 positive rearrangements of each four-term identity.

    An identity a*x_i + b*x_j = c*x_k + d*x_l (all coefficients positive)
    links {x_i, x_j} with {x_k, x_l}, and after moving one term across,
    {x_i, -x_k} with {-x_j, x_l} and {x_i, -x_l} with {-x_j, x_k}.
    """
    graph: Dict[PairVertex, set] = {}

    def add_edge(u: PairVertex, v: PairVertex):
        graph.setdefault(u, set()).add(v)
        graph.setdefault(v, set()).add(u)

    for eq in equations:
        terms = [(1, i) for _, i in eq.left] + [(-1, i) for _, i in eq.right]
        # the identity splits the four signed terms into left vs right;
        # every balanced 2+2 regrouping with positive coefficients is an edge
        (s1, i1), (s2, i2), (s3, i3), (s4, i4) = terms
        groupings = (
            (((s1, i1), (s2, i2)), ((-s3, i3), (-s4, i4))),
            (((s1, i1), (s3, i3)), ((-s2, i2), (-s4, i4))),
            (((s1, i1), (s4, i4)), ((-s2, i2), (-s3, i3))),
        )
        for (a, b), (c, d) in groupings:
            add_edge(_pair_vertex(a, b), _pair_vertex(c, d))
    return graph
