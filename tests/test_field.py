import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normsys import QuadExt, cmp_values, format_value, parse_value, sign

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def quad(a, b, d=2):
    return QuadExt(Fraction(a), Fraction(b), d)


quads = st.builds(quad, rationals, rationals, st.sampled_from([2, 3, 5, 7]))


def test_rational_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(1, 9) * 9 == 1


def test_conjugate_product():
    one_plus = quad(1, 1)
    one_minus = quad(1, -1)
    assert one_plus * one_minus == quad(-1, 0)


def test_sign_cases():
    assert sign(quad(1, -1, 2)) == -1  # 1 < sqrt(2)
    assert sign(quad(0, 0, 2)) == 0
    assert sign(quad(3, 1, 5)) == 1
    assert sign(quad(0, 1, 2)) == 1
    assert sign(quad(-1, 0, 2)) == -1
    assert sign(quad(3, -2, 2)) == 1  # 9 > 8
    assert sign(quad(-3, 2, 2)) == -1
    assert sign(Fraction(-7, 3)) == -1
    assert sign(Fraction(0)) == 0


def test_cmp_basics():
    assert cmp_values(Fraction(1, 3), Fraction(2, 7)) == 1
    # sqrt(2) < 3/2 since 2 < 9/4
    assert cmp_values(quad(0, 1, 2), quad(Fraction(3, 2), 0, 2)) == -1
    assert cmp_values(Fraction(5), Fraction(5)) == 0


def test_square_free_requirement():
    with pytest.raises(ValueError):
        QuadExt(Fraction(1), Fraction(1), 4)
    with pytest.raises(ValueError):
        QuadExt(Fraction(1), Fraction(1), -2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        quad(1, 1) / quad(0, 0)


def test_foreign_operands_are_refused():
    # the arithmetic reads every operand through one rule; == still falls
    # back, and answers False
    x = quad(1, 1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((x, 1.5), (1.5, x)):
            with pytest.raises(TypeError, match="not a field value: 1.5"):
                op(a, b)
    assert x != 1.5


def test_inverse_roundtrip():
    x = quad(3, -1, 7)
    assert x * x.inverse() == quad(1, 0, 7)


@given(rationals, rationals, rationals)
def test_rational_order_axioms(x, y, z):
    if x <= y:
        assert x + z <= y + z
    if x >= 0 and y >= 0:
        assert x * y >= 0


@settings(max_examples=200)
@given(quads, quads, quads)
def test_quad_order_axioms(x, y, z):
    d = x.d
    y = QuadExt(y.a, y.b, d)
    z = QuadExt(z.a, z.b, d)
    if x <= y:
        assert x + z <= y + z
    if sign(x) >= 0 and sign(y) >= 0:
        assert sign(x * y) >= 0


@settings(max_examples=200)
@given(quads, quads)
def test_cmp_antisymmetric_total(x, y):
    y = QuadExt(y.a, y.b, x.d)
    c = cmp_values(x, y)
    assert c == -cmp_values(y, x)
    assert c == sign(x - y)


def test_quad_sign_matches_float():
    rng = random.Random(20260823)
    checked = 0
    while checked < 10**4:
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
        d = rng.choice((2, 3, 5, 7, 11))
        approx = float(a) + float(b) * math.sqrt(d)
        if abs(approx) < 1e-6:
            continue  # guard band: skip float-borderline values
        assert sign(QuadExt(a, b, d)) == (1 if approx > 0 else -1)
        checked += 1


def test_zero_denominator_is_a_parse_error():
    for text in ("1/0", "1/0+1*sqrt(2)", "1/0*sqrt(2)", "1+1/0*sqrt(2)"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_value(text)


def test_malformed_values_are_refused():
    # a sqrt term needs its coefficient; the grammar has no exponent, which
    # Fraction would expand to the whole power of ten
    for text in ("1+sqrt(2)", "sqrt(2)", "1e5", "2E-3", "1.5e2"):
        with pytest.raises(ValueError, match="malformed field value"):
            parse_value(text)


def test_parse_format_roundtrip():
    for text in ("3/4", "-2", "0", "1/2+3/5*sqrt(2)", "-1+1*sqrt(7)"):
        v = parse_value(text)
        assert parse_value(format_value(v)) == v


@given(rationals)
def test_rational_roundtrip(x):
    assert parse_value(format_value(x)) == x


@settings(max_examples=200)
@given(rationals, rationals, rationals, rationals, st.sampled_from([2, 3, 5, 7]), rationals)
def test_results_equal_validated_values(a, b, c, e, d, r):
    # results skip the constructor's checks; each must equal the value the
    # validating constructor builds from the same parts
    x, y = QuadExt(a, b, d), QuadExt(c, e, d)
    expected = [
        (x + y, (a + c, b + e)),
        (x - y, (a - c, b - e)),
        (x * y, (a * c + b * e * d, a * e + b * c)),
        (-x, (-a, -b)),
        (x + r, (a + r, b)),
        (r - x, (r - a, -b)),
        (x * 3, (3 * a, 3 * b)),
        (x / 3, (a / 3, b / 3)),
    ]
    if y:
        norm = c * c - e * e * d
        expected.append((y.inverse(), (c / norm, -e / norm)))
    for got, (p, q) in expected:
        assert type(got) is QuadExt and type(got.a) is type(got.b) is Fraction
        assert (got.a, got.b, got.d) == (p, q, d)
        assert got == QuadExt(p, q, d)
    with pytest.raises(AttributeError):
        x.a = Fraction(0)


def test_bad_radicand_still_raises():
    # square-freeness is decided by trial division, so radicands are bounded
    # below 2**32; the prime just below the bound parses
    for d in (0, 1, 4, 12, 49, -3, 2**32, 2**32 + 15, 10**38 + 3):
        with pytest.raises(ValueError):
            QuadExt(Fraction(1), Fraction(1), d)
    for text in ("1+1*sqrt(8)", "1*sqrt(100000000000000000000000000000000000003)"):
        with pytest.raises(ValueError):
            parse_value(text)
    assert parse_value("1*sqrt(4294967291)") == QuadExt(0, 1, 4294967291)
