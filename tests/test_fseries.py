from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwlab.fseries import (
    NonSquareConstantTerm,
    RatSeries,
    ZeroConstantTerm,
    inv_sqrt_series,
    inverse,
    series,
    sqrt_series,
)

rat = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=6)


@st.composite
def rat_series(draw, min_order=0, max_order=6):
    n = draw(st.integers(min_order, max_order))
    return RatSeries(tuple(draw(rat) for _ in range(n + 1)))


@st.composite
def unit_series(draw, max_order=6):
    """Series with constant term 1; always invertible and square-rootable."""
    n = draw(st.integers(1, max_order))
    return RatSeries((F(1),) + tuple(draw(rat) for _ in range(n)))


def test_sqrt_one_plus_u():
    got = sqrt_series(series([1, 1], 4))
    assert got == series([1, F(1, 2), F(-1, 8), F(1, 16), F(-5, 128)])


def test_inverse_geometric():
    assert inverse(series([1, 1], 2)) == series([1, -1, 1])


def test_kernel_series_frozen():
    # 1/(8(1 + u + sqrt(1+u))) = (1/16)(1 - 3u/4 + 5u**2/8 - 35u**3/64 + ...)
    s = series([1, 1], 3) + sqrt_series(series([1, 1], 3))
    got = inverse(s) * F(1, 8)
    assert got == series([F(1, 16), F(-3, 64), F(5, 128), F(-35, 1024)])


def test_compose_arctan_tan_is_identity():
    # arctan(tan u) = u to order 9: an oracle for inverse() and the truncated product
    order = 9
    sin = RatSeries(
        tuple(F((-1) ** (k // 2), factorial(k)) if k % 2 else F(0) for k in range(order + 1))
    )
    cos = RatSeries(
        tuple(F((-1) ** (k // 2), factorial(k)) if k % 2 == 0 else F(0) for k in range(order + 1))
    )
    tan = sin * inverse(cos)
    acc = series([0], order)
    for k in range(order, -1, -1):  # Horner; arctan has the coefficients (-1)^j / (2j + 1)
        acc = acc * tan + series([F((-1) ** (k // 2), k) if k % 2 else 0], order)
    assert acc == series([0, 1], order)


def test_inverse_zero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        inverse(series([0, 1], 3))
    with pytest.raises(ZeroConstantTerm):
        inv_sqrt_series(series([0, 1], 3))


def test_sqrt_non_square_constant():
    with pytest.raises(NonSquareConstantTerm):
        sqrt_series(series([2, 1]))
    with pytest.raises(NonSquareConstantTerm):
        sqrt_series(series([-1, 1]))


def test_sqrt_rational_square_constant():
    got = sqrt_series(series([F(9, 4), 1]))
    assert got[0] == F(3, 2)


def test_truncation_order_explicit():
    a = series([1, 2, 3])
    b = series([1, 1])
    assert (a * b).order_max == 1
    assert (a + b).order_max == 1


@given(unit_series())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sqrt_squares_back(s):
    r = sqrt_series(s)
    assert r * r == s


@given(unit_series())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_inverse_multiplies_to_one(s):
    assert s * inverse(s) == series([1], s.order_max)


@given(unit_series())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_inv_sqrt_defining_identity(s):
    b = inv_sqrt_series(s)
    assert b * b * s == series([1], s.order_max)


@given(rat_series())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_json_roundtrip(s):
    assert RatSeries(tuple(F(c) for c in s.to_json_obj())) == s
