import numbers
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidkit as bk
from braidkit.burau import FractionalPowersError, alexander, burau, burau_det_matches_writhe
from braidkit.laurent import LaurentPoly
from braidkit.linalg import det_exact, mat_mul


# ---------------------------------------------------------------- references


def _det_cofactor(rows):
    """Determinant by cofactor expansion along the first row (factorial
    time; a reference for small sizes)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    first = rows[0][0]
    zero_like = first - first if isinstance(first, LaurentPoly) else 0
    total = zero_like
    for j in range(n):
        entry = rows[0][j]
        if isinstance(entry, LaurentPoly) and entry.is_zero():
            continue
        if not isinstance(entry, LaurentPoly) and entry == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * _det_cofactor(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _gen_matrix(i, n, positive, one, zero, t, tinv):
    rows = [[one if r == c else zero for c in range(n - 1)] for r in range(n - 1)]
    r = i - 1
    left, diag, right = (one, -t, t) if positive else (tinv, -tinv, one)
    if r - 1 >= 0:
        rows[r][r - 1] = left
    rows[r][r] = diag
    if r + 1 < n - 1:
        rows[r][r + 1] = right
    return rows


def _full_product(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _burau_by_products(b, t=None):
    """Burau entries as the product of full generator matrices, latest
    applied leftmost: O(n^3) per generator, a reference for the row update."""
    n = b.n
    if t is None:
        one, zero = LaurentPoly.const(1), LaurentPoly()
        tt, tinv = LaurentPoly.var(), LaurentPoly.term(1, -1)
    else:
        one, zero = 1, 0
        tt = int(t) if isinstance(t, numbers.Integral) else t
        if isinstance(tt, int):
            f = Fraction(1, tt)
            tinv = int(f) if f.denominator == 1 else f
        else:
            tinv = 1 / tt
    acc = [[one if r == c else zero for c in range(n - 1)] for r in range(n - 1)]
    for w in b.word:
        acc = _full_product(_gen_matrix(abs(w), n, w > 0, one, zero, tt, tinv), acc)
    if t is not None:
        acc = [[int(x) if isinstance(x, Fraction) and x.denominator == 1 else x for x in row] for row in acc]
    return tuple(tuple(r) for r in acc)


def _gens(n):
    return st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))


words = st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(_gens(n), max_size=12)))


def rand_braid(rng, nmax=5, kmax=8):
    n = rng.randint(2, nmax)
    word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, kmax))]
    return bk.make_braid(word, n)


def test_burau_at_minus_one_fixture():
    B = burau(bk.make_braid([1, -2]), -1)
    assert B.entries == ((1, -1), (-1, 2))
    assert not B.symbolic


def test_burau_symbolic_fixture():
    B = burau(bk.make_braid([1, -2]))
    t = LaurentPoly.var()
    one = LaurentPoly.const(1)
    tinv = LaurentPoly.term(1, -1)
    assert B.entries[0][0] == -t
    assert B.entries[0][1] == t
    assert B.entries[1][0] == -one
    assert B.entries[1][1] == one - tinv


def test_burau_identity():
    B = burau(bk.identity_braid(4))
    for i in range(3):
        for j in range(3):
            expected = LaurentPoly.const(1) if i == j else LaurentPoly()
            assert B.entries[i][j] == expected


def test_burau_multiplicative_in_action_order():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(2, 5)
        wa = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 5))]
        wb = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 5))]
        a, b = bk.make_braid(wa, n), bk.make_braid(wb, n)
        lhs = burau(bk.mul(a, b)).entries
        rhs = mat_mul(burau(b).entries, burau(a).entries)
        assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(nw=words)
def test_row_update_matches_generator_matrix_products(nw):
    n, w = nw
    b = bk.make_braid(w, n)
    assert burau(b).entries == _burau_by_products(b)
    for t in (2, -1, 3, Fraction(1, 3), 0.5, -2.5):
        got = burau(b, t).entries
        ref = _burau_by_products(b, t)
        # the same values, of the same number types
        assert repr(got) == repr(ref)


@settings(max_examples=150, deadline=None)
@given(nw=words)
def test_symbolic_at_t_equals_evaluated(nw):
    n, w = nw
    b = bk.make_braid(w, n)
    sym = burau(b).entries
    for t in (2, -1, Fraction(1, 3)):
        assert [[p.eval_at(t) for p in row] for row in sym] == [list(r) for r in burau(b, t).entries]
    ev = burau(b, 0.5).entries
    for prow, erow in zip(sym, ev):
        for p, x in zip(prow, erow):
            assert p.eval_at(0.5) == pytest.approx(x, rel=1e-12, abs=1e-12)


small_ints = st.integers(-9, 9)
small_polys = st.builds(
    LaurentPoly, st.integers(-3, 3), st.lists(st.integers(-4, 4), max_size=3).map(tuple)
)


def _square(elements, max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(max_examples=300, deadline=None)
@given(M=_square(small_ints))
def test_det_exact_matches_cofactor_over_integers(M):
    assert det_exact(M) == _det_cofactor(M)


@settings(max_examples=100, deadline=None)
@given(M=_square(small_polys))
def test_det_exact_matches_cofactor_over_laurent_polys(M):
    got = det_exact(M)
    assert isinstance(got, LaurentPoly)
    assert got == _det_cofactor(M)


@settings(max_examples=100, deadline=None)
@given(M=_square(st.fractions(-5, 5, max_denominator=4), max_n=4))
def test_det_exact_matches_cofactor_over_fractions(M):
    assert det_exact(M) == _det_cofactor(M)


def test_det_exact_laurent_singular_dense_and_mixed():
    t = LaurentPoly.var()
    one = LaurentPoly.const(1)
    # two equal rows: zero, and of the entries' ring
    M = [[t, one - t, one], [t, one - t, one], [one, t, t * t]]
    assert det_exact(M) == LaurentPoly() and isinstance(det_exact(M), LaurentPoly)
    rng = random.Random(12)
    for _ in range(3):
        M = [[LaurentPoly(rng.randint(-2, 2), (rng.randint(-3, 3), rng.randint(-3, 3))) for _ in range(6)] for _ in range(6)]
        assert det_exact(M) == _det_cofactor(M)
    # mixed int and LaurentPoly entries
    assert det_exact([[2, t], [one, 3]]) == 6 - t


def test_burau_det_is_writhe_power():
    rng = random.Random(7)
    for _ in range(100):
        assert burau_det_matches_writhe(rand_braid(rng))


def test_burau_generator_inverse_cancels():
    for n in range(2, 6):
        for i in range(1, n):
            prod = burau(bk.make_braid([i, -i], n))
            iden = burau(bk.identity_braid(n))
            assert prod.entries == iden.entries


def test_alexander_trefoil():
    assert alexander(bk.make_braid([1, 1, 1])) == LaurentPoly(0, (1, -1, 1))


def test_alexander_figure_eight_and_centered():
    fe = alexander(bk.make_braid([1, -2, 1, -2]))
    assert fe == LaurentPoly(-2, (-1, 3, -1))
    cent = alexander(bk.make_braid([1, -2, 1, -2]), centered=True)
    assert cent == LaurentPoly(-1, (-1, 3, -1))
    assert cent.reciprocal_symmetric()


def test_alexander_hopf():
    hopf = alexander(bk.make_braid([1, 1]))
    assert hopf == LaurentPoly(0, (1, -1))
    with pytest.raises(FractionalPowersError) as err:
        alexander(bk.make_braid([1, 1]), centered=True)
    assert "Polynomial with fractional powers." in str(err.value)


def test_alexander_values_at_one():
    # knots evaluate to +-1 at t=1, the two-component link to 0
    assert abs(alexander(bk.make_braid([1, 1, 1])).eval_at(1)) == 1
    assert abs(alexander(bk.make_braid([1, -2, 1, -2])).eval_at(1)) == 1
    assert alexander(bk.make_braid([1, 1])).eval_at(1) == 0


def test_alexander_conjugation_invariant():
    rng = random.Random(9)
    for _ in range(20):
        b = rand_braid(rng, nmax=4, kmax=6)
        cw = [rng.choice([1, -1]) * rng.randint(1, b.n - 1) for _ in range(rng.randint(1, 3))]
        c = bk.make_braid(cw, b.n)
        conj = bk.mul(bk.mul(c, b), bk.inverse(c))
        assert alexander(conj) == alexander(b)


def test_alexander_unknot():
    assert alexander(bk.make_braid([1], 2)) == LaurentPoly.const(1)


def test_centered_symmetry_property():
    rng = random.Random(10)
    for _ in range(25):
        b = rand_braid(rng, nmax=4, kmax=7)
        try:
            cent = alexander(b, centered=True)
        except FractionalPowersError:
            continue
        assert cent.reciprocal_symmetric()
