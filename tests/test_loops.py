import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidkit as bk


def test_make_loop_splits_halves():
    l = bk.make_loop([-1, 1, -2, 0, -1, 0])
    assert l.a == (-1, 1, -2)
    assert l.b == (0, -1, 0)
    assert l.n == 5
    assert l.totaln == 5
    assert str(l) == "(( -1 1 -2 0 -1 0 ))"


def test_make_loop_small_and_batch():
    l = bk.make_loop([0, -1])
    assert l.totaln == 3
    ll = bk.make_loop([[-1, 1, -2, 0], [1, -2, 3, 4]])
    assert isinstance(ll, list) and len(ll) == 2
    assert ll[0].a == (-1, 1)


def test_make_loop_rejects_bad_vectors():
    with pytest.raises(ValueError):
        bk.make_loop([1, 2, 3])
    with pytest.raises(ValueError):
        bk.make_loop([])


def test_canonical_loop_with_basepoint():
    l = bk.canonical_loop(5, basepoint=True)
    assert str(l) == "(( 0 0 0 0 -1 -1 -1 -1 ))*"
    assert l.n == 5
    assert l.totaln == 6


def test_canonical_loop_patterns():
    assert bk.canonical_loop(3, basepoint=True).coords == (0, 0, -1, -1)
    assert bk.canonical_loop(5, basepoint=False).coords == (0, 0, 0, -1, -1, -1)
    with pytest.raises(ValueError):
        bk.canonical_loop(1, basepoint=True)
    with pytest.raises(ValueError):
        bk.canonical_loop(2, basepoint=False)


def test_intersec_fixture():
    inums = bk.intersec(bk.make_loop([-1, 1, -2, 0, -1, 0]))
    assert inums.mu == (2, 0, 1, 3, 4, 0)
    assert inums.nu == (2, 2, 4, 4)


def test_intersec_definition_recovers_coordinates():
    l = bk.make_loop([-1, 1, -2, 0, -1, 0])
    inums = bk.intersec(l)
    for i in range(3):
        assert (inums.mu[2 * i + 1] - inums.mu[2 * i]) % 2 == 0
        assert (inums.mu[2 * i + 1] - inums.mu[2 * i]) // 2 == l.a[i]
        assert (inums.nu[i] - inums.nu[i + 1]) // 2 == l.b[i]


def test_intersec_canonical_regression():
    # frozen from the reconstruction formulas
    inums = bk.intersec(bk.canonical_loop(5, basepoint=True))
    assert inums.mu == (1, 1, 2, 2, 3, 3, 4, 4)
    assert inums.nu == (0, 2, 4, 6, 8)


def test_intersec_round_trip_bulk():
    rng = random.Random(9)
    for _ in range(10_000):
        m = rng.randint(1, 6)
        coords = [rng.randint(-20, 20) for _ in range(2 * m)]
        l = bk.make_loop(coords)
        inums = bk.intersec(l)
        a = tuple((inums.mu[2 * i + 1] - inums.mu[2 * i]) // 2 for i in range(m))
        b = tuple((inums.nu[i] - inums.nu[i + 1]) // 2 for i in range(m))
        assert a == l.a and b == l.b
        assert all(x >= 0 for x in inums.mu)
        assert all(x >= 0 for x in inums.nu)


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=14).filter(
        lambda c: len(c) % 2 == 0
    )
)
@settings(max_examples=200)
def test_intersec_round_trip_property(coords):
    l = bk.make_loop(coords)
    inums = bk.intersec(l)
    m = len(coords) // 2
    assert tuple((inums.mu[2 * i + 1] - inums.mu[2 * i]) // 2 for i in range(m)) == l.a
    assert tuple((inums.nu[i] - inums.nu[i + 1]) // 2 for i in range(m)) == l.b


def test_minlength_fixtures():
    assert bk.minlength(bk.make_loop([-1, 1, -2, 0, -1, 0])) == 12
    assert bk.minlength(bk.make_loop([-1, 1, -2, 0])) == 14
    assert bk.minlength(bk.make_loop([1, -2, 3, 4])) == 34


def test_intaxis_fixture_and_basics():
    assert bk.intaxis(bk.make_loop([-1, 1, -2, 0, -1, 0])) == 12
    # frozen regression value for the small canonical multiloop
    assert bk.intaxis(bk.canonical_loop(3, basepoint=True)) == 4


def test_minlength_intaxis_nonnegative_integers():
    rng = random.Random(12)
    for _ in range(500):
        m = rng.randint(1, 5)
        coords = [rng.randint(-9, 9) for _ in range(2 * m)]
        if all(c == 0 for c in coords):
            continue
        l = bk.make_loop(coords)
        ml, ia = bk.minlength(l), bk.intaxis(l)
        assert isinstance(ml, int) and isinstance(ia, int)
        assert ml >= 0
        assert ia >= 2  # an essential loop must cross the axis


def test_functionals_depend_only_on_braid_class():
    a = bk.make_braid([1, -2])
    b = bk.make_braid([1, -2, 2, 1, 2, -1, -2, -1])
    rng = random.Random(3)
    for _ in range(25):
        coords = [rng.randint(-8, 8) for _ in range(4)]
        if all(c == 0 for c in coords):
            continue
        l = bk.make_loop(coords)
        ia_img = bk.act(a, l)
        ib_img = bk.act(b, l)
        assert bk.minlength(ia_img) == bk.minlength(ib_img)
        assert bk.intaxis(ia_img) == bk.intaxis(ib_img)


def test_accessors_and_round_trip():
    l = bk.make_loop([-1, 1, -2, 0, -1, 0])
    a, b = l.ab
    assert a == (-1, 1, -2) and b == (0, -1, 0)
    assert bk.make_loop(l.coords, l.basepoint) == l
    lbp = bk.canonical_loop(5, basepoint=True)
    assert lbp.n == 5 and lbp.totaln == 6
    assert bk.loop_from_json(lbp.to_json()) == lbp


def test_loop_coordinates_are_python_ints():
    # int64 coordinates overflowed under the action: the image below was
    # (2039794562012071225, 3424192270742303141)
    import numpy as np

    l = bk.make_loop(np.array([0, -1]))
    assert l == bk.make_loop([0, -1]) and all(type(c) is int for c in l.coords)
    image = bk.act(bk.make_braid([1, -2] * 60), l)
    assert image.coords == (5358359254990966640871840, -3311648143516982017180081)
    assert bk.make_loop([2.0, -1]).coords == (2, -1)
    for bad in ([0.5, -1], [0, float("inf")]):
        with pytest.raises(TypeError, match="^loop coordinates must be integers"):
            bk.make_loop(bad)
    with pytest.raises(TypeError, match="loop coordinates"):
        bk.Loop(a=(1,), b=(np.float64(0.25),))
