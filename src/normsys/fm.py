"""Exact linear-inequality feasibility by Fourier-Motzkin elimination.

The library no longer calls it: it is the tests' oracle for regions and
cone facets.  It stays in the package because the benchmark tracer
targets ``fm.feasible``.

A constraint is (coeffs, rhs, strict) meaning coeffs . x > rhs when strict,
else coeffs . x >= rhs.  Everything is exact field arithmetic; equalities
are encoded as pairs of opposite non-strict constraints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .field import FieldValue, sign

Constraint = Tuple[Tuple[FieldValue, ...], FieldValue, bool]


def constraint(
    coeffs: Sequence[FieldValue], rhs: FieldValue, strict: bool
) -> Constraint:
    return (tuple(coeffs), rhs, strict)


def equality_constraints(
    coeffs: Sequence[FieldValue], rhs: FieldValue
) -> List[Constraint]:
    c = tuple(coeffs)
    return [
        (c, rhs, False),
        (tuple(-x for x in c), -rhs, False),
    ]


def _normalize(con: Constraint) -> Constraint:
    coeffs, rhs, strict = con
    lead = next((x for x in coeffs if sign(x) != 0), None)
    if lead is None:
        return con
    scale = abs(lead)
    if scale == 1:
        return con
    return (tuple(x / scale for x in coeffs), rhs / scale, strict)


def feasible(constraints: Sequence[Constraint], nvars: int) -> bool:
    """True iff the system has a solution over the field."""
    current = list({_normalize(c) for c in constraints})
    for var in reversed(range(nvars)):
        lowers, uppers, rest = [], [], []
        for coeffs, rhs, strict in current:
            s = sign(coeffs[var])
            if s == 0:
                rest.append((coeffs, rhs, strict))
            elif s > 0:
                lowers.append((coeffs, rhs, strict))
            else:
                uppers.append((coeffs, rhs, strict))
        new = rest
        for lc, lr, ls in lowers:
            a = lc[var]
            for uc, ur, us in uppers:
                b = -uc[var]
                # a*x >= lr - l(rest), b*x <= u(rest) - ur combined
                coeffs = tuple(
                    b * lx + a * ux for lx, ux in zip(lc, uc)
                )
                coeffs = coeffs[:var] + (Fraction(0),) + coeffs[var + 1 :]
                new.append(_normalize((coeffs, b * lr + a * ur, ls or us)))
        current = list(set(new))
        # drop constraints that can never bind and bail out early on an
        # outright contradiction among variable-free rows
        pruned = []
        for coeffs, rhs, strict in current:
            if all(sign(x) == 0 for x in coeffs):
                r = sign(rhs)
                if r > 0 or (r == 0 and strict):
                    return False
            else:
                pruned.append((coeffs, rhs, strict))
        current = pruned
    for coeffs, rhs, strict in current:
        r = sign(rhs)
        if r > 0 or (r == 0 and strict):
            return False
    return True
