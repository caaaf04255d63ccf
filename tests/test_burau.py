import importlib
import math
import numbers
import sys
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidkit as bk
from braidkit.burau import FractionalPowersError, alexander, burau
from braidkit.laurent import LaurentPoly
from braidkit.linalg import _slot_bits, det_exact, mat_mul
from test_laurent import reciprocal_symmetric

burau_module = importlib.import_module("braidkit.burau")


# ---------------------------------------------------------------- references


def burau_det_matches_writhe(b) -> bool:
    """Exact check that det(Burau) == (-t)**writhe."""
    w = bk.writhe(b)
    expected = LaurentPoly.term(1 if w % 2 == 0 else -1, w)
    return burau(b).det() == expected


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


def _burau_ring_rows(word, dim, one, zero, t, tinv):
    """The generic row update over the ring of ``t``: the reference for the
    integer kernel in both exact modes."""
    acc = [[zero] * dim]
    acc += [[one if r == c else zero for c in range(dim)] for r in range(dim)]
    acc.append([zero] * dim)
    pos, neg = (one, -t, t), (tinv, -tinv, one)
    for w in word:
        left, diag, right = pos if w > 0 else neg
        i = abs(w)
        acc[i] = [zero + left * x + diag * y + right * z for x, y, z in zip(acc[i - 1], acc[i], acc[i + 1])]
    return acc[1:-1]


def _burau_reference(b, t=None):
    """Burau entries by the ring row update: Laurent polynomials, or
    Fractions at an integer ``t`` turned into ints where they are whole."""
    dim = b.n - 1
    if t is None:
        rows = _burau_ring_rows(b.word, dim, LaurentPoly.const(1), LaurentPoly(), LaurentPoly.var(), LaurentPoly.term(1, -1))
        return tuple(tuple(r) for r in rows)
    tinv = Fraction(1, t) if b.word else t
    rows = _burau_ring_rows(b.word, dim, 1, 0, t, tinv)
    return tuple(tuple(int(x) if isinstance(x, Fraction) and x.denominator == 1 else x for x in r) for r in rows)


INTEGER_TS = (2, -1, 1, 3, -7)


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


longer_words = st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(_gens(n), max_size=60)))


@settings(max_examples=150, deadline=None)
@given(nw=longer_words)
def test_integer_kernel_matches_ring_rows(nw):
    # chunks of 4 generators make the symbolic product re-pack mid-word
    n, w = nw
    b = bk.make_braid(w, n)
    with mock.patch.object(burau_module, "_CHUNK", 4):
        assert repr(burau(b).entries) == repr(_burau_reference(b))
    for t in INTEGER_TS:
        assert repr(burau(b, t).entries) == repr(_burau_reference(b, t))


def _long_cases():
    rng = random.Random(2024)
    past = bk.make_braid([rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(2800)], 4)
    return [bk.make_braid([1, -2] * 300, 3), past]


def _counting(name):
    """A patch of ``linalg.<name>``, which symbolic ``burau`` imports where
    it runs, that records the slot width of each call, and the list it
    records into."""
    calls = []
    linalg = importlib.import_module("braidkit.linalg")
    real = getattr(linalg, name)

    def counted(x, K):
        calls.append(K)
        return real(x, K)

    return mock.patch.object(linalg, name, counted), calls


@pytest.mark.parametrize("case", [0, 1])
def test_integer_kernel_matches_ring_rows_on_long_words(case):
    b = _long_cases()[case]
    ref = repr(_burau_reference(b))
    patch, packed = _counting("_pack")
    with patch:
        assert repr(burau(b).entries) == ref
    if case == 1:  # at least one re-pack, of all dim + 2 rows of dim entries
        assert len(packed) >= (b.n + 1) * (b.n - 1)
    for t in (2, -7):
        assert repr(burau(b, t).entries) == repr(_burau_reference(b, t))


def _linf_slot(word, dim):
    """The slot of the per-row bound ``N[i] += N[i-1] + N[i+1]`` advanced
    over the whole word, as one pass computes it."""
    N = [0] + [1] * dim + [0]
    for w in word:
        N[abs(w)] += N[abs(w) - 1] + N[abs(w) + 1]
    return _slot_bits(max(N).bit_length())


@pytest.mark.parametrize("n, L", [(3, 20), (4, 255), (4, 256), (9, 200), (16, 256)])
def test_one_chunk_words_take_the_bound_slot_without_a_repack(n, L):
    rng = random.Random(n * L)
    assert L <= burau_module._CHUNK
    b = bk.make_braid([rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(L)], n)
    pack, packed = _counting("_pack")
    unpack, read = _counting("_unpack")
    with pack, unpack:
        got = burau(b).entries
    assert not packed
    assert set(read) == {_linf_slot(b.word, n - 1)}
    assert repr(got) == repr(_burau_reference(b))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 6), data=st.data())
def test_burau_at_zero_for_positive_words(n, data):
    w = data.draw(st.lists(st.integers(1, n - 1), max_size=15))
    b = bk.make_braid(w, n)
    got = burau(b, 0).entries
    assert got == tuple(tuple(p.eval_at(0) for p in row) for row in burau(b).entries)
    assert all(type(x) is int for row in got for x in row)
    with pytest.raises(ZeroDivisionError):
        burau(bk.make_braid(w + [-(n - 1)] + w, n), 0)


_ZEROS = [0, 0.0, -0.0, Fraction(0), 0j]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), data=st.data())
def test_zero_t_follows_one_rule_in_every_number_type(n, data):
    # 0.0, Fraction(0) and 0j used to divide by zero on positive words too
    w = data.draw(st.lists(st.integers(1, n - 1), max_size=15))
    at_zero = tuple(tuple(p.eval_at(0) for p in row) for row in burau(bk.make_braid(w, n)).entries)
    inverse = bk.make_braid(w + [-(n - 1)] + w, n)
    for zero in _ZEROS:
        assert burau(bk.make_braid(w, n), zero).entries == at_zero
        with pytest.raises(ZeroDivisionError, match=r"^an inverse generator needs 1/t, undefined at t = 0$"):
            burau(inverse, zero)


def test_evaluated_entries_past_the_float_range_refuse_json():
    # exactly 1/3**700, which used to be written as 0.0, and (3/2)**2000,
    # which failed with "integer division result too large for a float"
    for b, t in ((bk.make_braid([-1] * 700, 2), 3), (bk.make_braid([1] * 2000, 2), Fraction(3, 2))):
        B = burau(b, t)
        assert isinstance(B[0, 0], Fraction) and B[0, 0]
        with pytest.raises(OverflowError, match=r"burau\(b, t\)\.entries, or as a polynomial with --symbolic"):
            B.to_json()
    # in the float range, exact and float entries are written as before
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(2, 5)
        b = bk.make_braid([rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 30))], n)
        for t in (2, -3, Fraction(2, 3), 0.5, -1.5):
            B = burau(b, t)
            want = [[x if isinstance(x, int) else float(x) for x in row] for row in B.entries]
            assert B.to_json()["entries"] == want


def test_complex_entries_refuse_json_by_name():
    # float() of a complex entry raised "float() argument must be a string or
    # a real number, not 'complex'"
    B = burau(bk.make_braid([1, 2]), 1.25 + 0.5j)
    with pytest.raises(TypeError, match=r"^the JSON format has no complex Burau entry"):
        B.to_json()


def test_evaluated_burau_past_the_float_range_raises():
    # at t = 1e-3 the entries of (s1 s2^-1)^300 pass 1e308; the row update
    # used to return them as NaN, which no later step could tell from a value
    b = bk.make_braid([1, -2] * 300, 3)
    for t in (1e-3, complex(1e-3, 1e-3)):
        with pytest.raises(OverflowError, match=r"int or Fraction t, or burau\(b\) and then eval_at"):
            burau(b, t)
    # the exact routes the message names agree with each other
    exact = burau(b, Fraction(1, 1000)).entries
    assert exact == tuple(tuple(p.eval_at(Fraction(1, 1000)) for p in row) for row in burau(b).entries)
    assert max(abs(x) for row in exact for x in row) > 1e308
    # a short word at the same t stays finite and is returned as before
    short = bk.make_braid([1, -2] * 3, 3)
    want = [float(x) for row in burau(short, Fraction(1, 1000)).entries for x in row]
    assert [x for row in burau(short, 1e-3).entries for x in row] == pytest.approx(want, rel=1e-12)


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


# ------------------------------------------- determinants of float entries


def test_float_det_takes_lu_with_pivoting():
    # Bareiss elimination of floats, without pivoting on magnitude, gave
    # -3375536.85 and 9.964 for these words, whose determinant is (-3)**2
    for b in (bk.random_braid(7, 40, 19), bk.random_braid(5, 20, 17)):
        assert bk.writhe(b) == 2
        assert burau(b, 3.0).det() == pytest.approx(9, rel=1e-9)
    assert det_exact([[1.0, 2.0], [2.0, 4.0]]) == 0 and det_exact([[0j]]) == 0
    assert type(det_exact([[2.0, 1], [1, 1]])) is float and type(det_exact([[2j, 1], [1, 1]])) is complex
    with pytest.raises(ValueError, match="finite entries"):
        det_exact([[1.0, math.nan], [0, 1]])


def test_float_det_outside_the_float_range_raises():
    # det = (-t)**1200: 1e-361 at t = 0.5 and 1e572 at t = 3.0, which the
    # float Bareiss returned as 0.0 and inf
    b = bk.make_braid([1, 2] * 600, 3)
    for t in (0.5, 3.0):
        with pytest.raises(OverflowError, match=r"log\|det\| = .* int or Fraction t, or burau\(b\) and then eval_at"):
            burau(b, t).det()
    # the exact routes the message names
    assert burau(b, Fraction(1, 2)).det() == Fraction(1, 2**1200)
    assert burau(b, 3).det() == 3**1200 == burau(b).det().eval_at(3)
    # at t = 0.5+0.5j, |det| = 2**-600 is in range, and real
    d = burau(b, 0.5 + 0.5j).det()
    assert type(d) is complex and d == pytest.approx(2.0**-600, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 7), t=st.floats(0.5, 2), data=st.data())
def test_float_det_matches_the_writhe_or_raises(n, t, data):
    letters = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    b = bk.make_braid(data.draw(st.lists(letters, max_size=60)), n)
    w = bk.writhe(b)
    try:
        got = burau(b, t).det()
    except OverflowError:
        assert not math.log(sys.float_info.min) <= w * math.log(t) <= math.log(sys.float_info.max)
    else:
        assert got == pytest.approx((-t) ** w, rel=1e-9)


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
    assert reciprocal_symmetric(cent)


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
        assert reciprocal_symmetric(cent)
