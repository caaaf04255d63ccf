from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkit.laurent import LaurentPoly, laurent_from_json


def poly(lowest, *coeffs):
    return LaurentPoly(lowest, tuple(coeffs))


polys = st.builds(
    LaurentPoly,
    st.integers(min_value=-4, max_value=4),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6).map(tuple),
)


def test_trimming_and_zero():
    p = poly(2, 0, 0, 1, 0)
    assert p.lowest == 4 and p.coeffs == (1,)
    z = poly(3, 0, 0)
    assert z.is_zero() and z.lowest == 0
    with pytest.raises(ValueError):
        z.maxdeg


def test_product_difference_of_squares():
    one_minus_t = poly(0, 1, -1)
    one_plus_t = poly(0, 1, 1)
    assert one_minus_t * one_plus_t == poly(0, 1, 0, -1)


def test_exact_div():
    num = poly(0, 1, 0, 0, -1)  # 1 - t^3
    den = poly(0, 1, -1)        # 1 - t
    assert num.exact_div(den) == poly(0, 1, 1, 1)
    with pytest.raises(ValueError):
        poly(0, 1, 1, 1).exact_div(poly(0, 1, -1))


def test_exact_div_with_laurent_shift():
    p = poly(-2, 1, 0, -1)  # t^-2 - 1
    q = poly(-1, 1, -1)     # t^-1 - 1
    assert p.exact_div(q) == poly(-1, 1, 1)


def test_eval_at():
    p = poly(0, 1, -1, 1)  # 1 - t + t^2
    assert p.eval_at(-1) == 3
    q = poly(-1, 3)  # 3/t
    assert q.eval_at(2) == Fraction(3, 2)
    assert q.eval_at(3) == 1
    assert LaurentPoly().eval_at(5) == 0


def test_display_format():
    assert poly(0, 1, -1, 1).display() == "+ z^(+2) - z^(+1) + 1"
    assert poly(-2, -1, 3, -1).display() == "- 1 + 3*z^(-1) - z^(-2)"
    assert poly(-1, -1, 3, -1).display() == "- z^(+1) + 3 - z^(-1)"
    assert LaurentPoly().display() == "0"


def reciprocal_symmetric(p: LaurentPoly) -> bool:
    """True when p(z) == p(1/z) or p(z) == -p(1/z) coefficient-wise."""
    if p.is_zero():
        return True
    if p.mindeg != -p.maxdeg:
        return False
    rev = tuple(reversed(p.coeffs))
    return rev == p.coeffs or rev == tuple(-c for c in p.coeffs)


def test_reciprocal_symmetry():
    assert reciprocal_symmetric(poly(-1, -1, 3, -1))
    assert reciprocal_symmetric(poly(-1, 1, 0, -1))
    assert not reciprocal_symmetric(poly(0, 1, 1))


def test_json_round_trip():
    p = poly(-2, 3, 0, -1)
    assert laurent_from_json(p.to_json()) == p


@given(polys, polys, polys)
@settings(max_examples=150)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + LaurentPoly() == p
    assert p * LaurentPoly.const(1) == p
    assert p - p == LaurentPoly()


@given(polys, polys)
@settings(max_examples=150)
def test_mul_then_exact_div_round_trips(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


@given(polys)
@settings(max_examples=100)
def test_eval_is_ring_hom(p):
    x = Fraction(3, 2)
    q = poly(0, 2, -1)
    assert (p * q).eval_at(x) == p.eval_at(x) * q.eval_at(x)
    assert (p + q).eval_at(x) == p.eval_at(x) + q.eval_at(x)


def test_power():
    t = LaurentPoly.var()
    assert t ** 3 == poly(3, 1)
    assert (poly(0, 1, 1)) ** 2 == poly(0, 1, 2, 1)
    with pytest.raises(ValueError):
        t ** -1
