from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkit.laurent import _KRONECKER_MIN_TERMS, LaurentPoly, laurent_from_json
from braidkit.linalg import _pack, _unpack


def poly(lowest, *coeffs):
    return LaurentPoly(lowest, tuple(coeffs))


polys = st.builds(
    LaurentPoly,
    st.integers(min_value=-4, max_value=4),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6).map(tuple),
)


def _mul_schoolbook(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """The O(d^2) product, a reference for the Kronecker multiply."""
    if p.is_zero() or q.is_zero():
        return LaurentPoly()
    width = len(q.coeffs)
    out = [0] * (len(p.coeffs) + width - 1)
    for i, c in enumerate(p.coeffs):
        if c:
            out[i : i + width] = [x + c * d for x, d in zip(out[i : i + width], q.coeffs)]
    return LaurentPoly(p.lowest + q.lowest, tuple(out))


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


@given(polys)
@settings(max_examples=100)
def test_int_operands_act_as_laurent_constants(p):
    # ints on either side, 0 and 1 (shared constants) among them, give what
    # the constant polynomial gives
    for c in (0, 1, -1, 7):
        const = LaurentPoly(0, (c,))
        pairs = ((c + p, const + p), (p + c, p + const), (c - p, const - p), (p - c, p - const),
                 (c * p, const * p), (p * c, p * const), (sum([p, p]), p + p))
        for got, ref in pairs:
            assert type(got) is LaurentPoly and got == ref
    assert LaurentPoly.const(0) == LaurentPoly() and 0 - LaurentPoly() == LaurentPoly()


def test_power():
    t = LaurentPoly.var()
    assert t ** 3 == poly(3, 1)
    assert (poly(0, 1, 1)) ** 2 == poly(0, 1, 2, 1)
    with pytest.raises(ValueError):
        t ** -1


def test_trimming_long_zero_runs():
    p = LaurentPoly(-3, (0,) * 50000 + (1, 0, -2) + (0,) * 50000)
    assert p.lowest == 49997 and p.coeffs == (1, 0, -2)
    z = LaurentPoly(7, [0] * 100000)
    assert z.is_zero() and z.lowest == 0 and z.coeffs == ()
    q = LaurentPoly(2, [0, 0, 5] + [0] * 20000)
    assert q.lowest == 4 and q.coeffs == (5,)
    assert LaurentPoly(1, iter([3, 0, 4, 0])) == poly(1, 3, 0, 4)


def _slot_values(K):
    """Coefficients that fit a K-bit balanced slot, weighted to its edges,
    to powers of two and to zero."""
    top = 2 ** (K - 1) - 1
    return st.one_of(
        st.sampled_from([top, -top, 0, 0, 1, -1]),
        st.integers(0, K - 2).flatmap(lambda j: st.sampled_from([2**j, -(2**j)])),
        st.integers(-top, top),
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda b: st.tuples(st.just(8 * b), st.lists(_slot_values(8 * b), max_size=40))))
def test_pack_unpack_round_trip(kc):
    K, coeffs = kc
    E = _pack(coeffs, K)
    assert E == sum(c << (K * j) for j, c in enumerate(coeffs))
    z, got = _unpack(E, K)
    nonzero = [j for j, c in enumerate(coeffs) if c]
    if not nonzero:
        assert (z, got) == (0, ())
    else:
        assert z == nonzero[0]
        assert got == tuple(coeffs[nonzero[0] : nonzero[-1] + 1])


def _wide_polys(max_len):
    coeff = st.integers(1, 400).flatmap(lambda b: st.integers(-(2**b), 2**b))
    return st.builds(LaurentPoly, st.integers(-50, 50), st.lists(coeff, min_size=1, max_size=max_len).map(tuple))


@settings(max_examples=300, deadline=None)
@given(_wide_polys(80), _wide_polys(80))
def test_kronecker_mul_matches_schoolbook(p, q):
    assert repr(p * q) == repr(_mul_schoolbook(p, q))


def test_kronecker_mul_covers_both_sides_of_the_cutoff():
    for n in (_KRONECKER_MIN_TERMS - 1, _KRONECKER_MIN_TERMS, 80):
        for top in (1, 2**400 - 1):
            p = LaurentPoly(-n, tuple((-1) ** k * top for k in range(n)))
            q = LaurentPoly(3, tuple(top if k % 3 else -top for k in range(n + 5)))
            assert p * q == _mul_schoolbook(p, q) and p * p == _mul_schoolbook(p, p)
    # Equal coefficients of one sign put the middle product coefficient at
    # the slot bound: 127 * (2**401 - 1) * (2**400 - 1) has 808 bits, a
    # whole number of bytes, so it needs the slot's sign bit.
    p = LaurentPoly(0, (2**401 - 1,) * 127)
    q = LaurentPoly(0, (-(2**400 - 1),) * 127)
    assert p * q == _mul_schoolbook(p, q)


@pytest.mark.parametrize("one", [1.5, Fraction(2, 3)], ids=["float", "Fraction"])
@pytest.mark.parametrize("n", [_KRONECKER_MIN_TERMS - 1, _KRONECKER_MIN_TERMS, 80])
def test_non_int_coefficients_multiply_by_schoolbook_at_every_length(one, n):
    p = LaurentPoly(-2, tuple(one * (k % 5 + 1) for k in range(n)))
    q = LaurentPoly(1, tuple([7] * (n - 1) + [one]))  # mostly ints, one non-int
    for a, b in ((p, p), (p, q), (q, p)):
        got = a * b
        assert repr(got) == repr(_mul_schoolbook(a, b))
        assert all(type(c) is type(one) for c in got.coeffs)
    assert repr(p**2) == repr(_mul_schoolbook(p, p))


def _exact_div_reference(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """The schoolbook exact division that walks every coefficient of the
    divisor for each quotient coefficient, O(d n): the reference for
    ``exact_div``, which walks only the divisor's nonzero terms."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly()
    num, den = list(p.coeffs), list(q.coeffs)
    qlen = len(num) - len(den) + 1
    if qlen <= 0:
        raise ValueError("division leaves a remainder")
    out = [0] * qlen
    for k in range(qlen - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1] != 0:
            raise ValueError("division leaves a remainder")
        out[k] = c // den[-1]
        for j, d in enumerate(den):
            num[k + j] -= out[k] * d
    if any(num):
        raise ValueError("division leaves a remainder")
    return LaurentPoly(p.lowest - q.lowest, tuple(out))


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


# divisors dense, sparse (1 - t**n and a few far-apart terms) or monomials
divisors = st.one_of(
    polys,
    st.integers(1, 40).map(lambda n: LaurentPoly(0, (1,) + (0,) * (n - 1) + (-1,))),
    st.builds(
        lambda lowest, gaps, cs: LaurentPoly(lowest, tuple(x for g, c in zip(gaps, cs) for x in (0,) * g + (c,))),
        st.integers(-5, 5), st.lists(st.integers(0, 12), min_size=1, max_size=5),
        st.lists(st.integers(-3, 3).filter(bool), min_size=5, max_size=5),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.builds(LaurentPoly, st.integers(-6, 6), st.lists(st.integers(-50, 50), max_size=40).map(tuple)),
       divisors, polys)
def test_exact_div_matches_the_schoolbook_reference(p, q, r):
    # exact products divide back; adding a remainder r that q does not
    # divide must raise in both
    for num in (p * q, p * q + r):
        assert _outcome(num.exact_div, q) == _outcome(_exact_div_reference, num, q)
    if not q.is_zero():
        assert (p * q).exact_div(q) == p


def test_exact_div_by_one_minus_t_power():
    t = LaurentPoly.var()
    for n in (1, 2, 7, 30):
        d = 1 - t**n
        p = LaurentPoly(-3, tuple(range(1, 50)))
        assert (p * d).exact_div(d) == p
        with pytest.raises(ValueError, match="remainder"):
            (p * d + 1).exact_div(d)


@pytest.mark.parametrize("E, K", [(-128, 8), (32640, 8), (-128 << 16, 8), (-(1 << 15), 16)])
def test_unpack_refuses_values_outside_the_codec_range(E, K):
    # -128 was read as (0, (-128, 0)), a trailing zero slot; 32640 has the
    # balanced digits (-128, -128, 1) and overflowed the bias
    with pytest.raises(OverflowError, match=r"outside the slot codec's range"):
        _unpack(E, K)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda b: st.tuples(
    st.just(8 * b), st.lists(_slot_values(8 * b), max_size=20), st.lists(_slot_values(8 * b), max_size=20))))
def test_unpack_refuses_any_value_with_a_digit_at_the_slot_floor(kcc):
    # balanced digits are unique, so a digit -2**(K-1) anywhere puts the
    # value outside the range of the codec
    K, low, high = kcc
    digits = low + [-(1 << (K - 1))] + high
    with pytest.raises(OverflowError):
        _unpack(sum(c << (K * j) for j, c in enumerate(digits)), K)
