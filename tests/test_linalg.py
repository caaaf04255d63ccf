import cmath
import logging
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidkit as bk
from braidkit.laurent import LaurentPoly
from braidkit.linalg import (
    _eliminate,
    _inverse_mod_power_of_two,
    _unpack,
    charpoly,
    det_exact,
    log_spectral_radius,
    mat_mul,
    mat_vec,
    poly_str,
    spectral_radius,
)
from test_burau import _det_cofactor, _square, small_ints, small_polys


def identity_matrix(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def companion_matrix(coeffs):
    """Companion matrix of a monic polynomial given leading-first."""
    if coeffs[0] != 1:
        raise ValueError("polynomial must be monic")
    n = len(coeffs) - 1
    rows = []
    for i in range(n):
        row = [0] * n
        if i > 0:
            row[i - 1] = 1
        row[n - 1] = -coeffs[n - i]
        rows.append(tuple(row))
    return tuple(rows)


def test_charpoly_2x2_matches_trace_det():
    M = ((2, -1), (-1, 1))
    tr = M[0][0] + M[1][1]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    assert charpoly(M) == (1, -tr, det)


def test_charpoly_identity():
    # (x - 1)^4
    assert charpoly(identity_matrix(4)) == (1, -4, 6, -4, 1)


def test_charpoly_companion_round_trip():
    coeffs = (1, -1, 0, -1)  # x^3 - x^2 - 1
    assert charpoly(companion_matrix(coeffs)) == coeffs


def test_charpoly_matches_numpy_on_random_matrices():
    rng = random.Random(4)
    for _ in range(30):
        d = rng.randint(1, 6)
        M = tuple(tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(d))
        got = charpoly(M)
        expected = np.poly(np.array(M, dtype=float))
        assert len(got) == len(expected)
        assert all(abs(g - e) < 1e-6 for g, e in zip(got, expected))


def test_det_exact_matches_charpoly_constant():
    rng = random.Random(5)
    for _ in range(50):
        d = rng.randint(1, 6)
        M = tuple(tuple(rng.randint(-7, 7) for _ in range(d)) for _ in range(d))
        cp = charpoly(M)
        assert det_exact(M) == (-1) ** d * cp[-1]


def test_mat_helpers():
    A = ((1, 2), (3, 4))
    B = ((0, 1), (1, 0))
    assert mat_mul(A, B) == ((2, 1), (4, 3))
    assert mat_vec(A, (1, 1)) == (3, 7)


def test_spectral_radius_values():
    assert abs(spectral_radius(((2, -1), (-1, 1))) - (3 + math.sqrt(5)) / 2) < 1e-10
    assert abs(spectral_radius(identity_matrix(3)) - 1.0) < 1e-12
    # numpy ints have no bit_length and go to numpy as floats
    assert abs(spectral_radius(np.array([[2, -1], [-1, 1]])) - (3 + math.sqrt(5)) / 2) < 1e-10


def test_spectral_radius_huge_entries_fallback():
    big = 10 ** 200
    M = ((big, 0), (0, 1))
    assert abs(spectral_radius(M) / big - 1.0) < 1e-10


def test_poly_str():
    assert poly_str((1, -3, 1)) == "x^2 - 3*x + 1"
    assert poly_str((1, 0, 0)) == "x^2"
    assert poly_str((0,)) == "0"


def test_spectral_radius_reads_entries_attribute():
    import braidkit as bk

    M = bk.LinearAction(((2, -1), (-1, 1)))
    assert bk.spectral_radius(M) == spectral_radius(M.entries)
    assert bk.charpoly(M) == charpoly(M.entries) == (1, -3, 1)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_charpoly_over_laurent_polys(n):
    # Berkowitz is division-free, so it runs over Z[t, 1/t]: at x = 1 the
    # characteristic polynomial is det(I - B), and its constant term is
    # det(-B)
    import braidkit as bk

    B = bk.burau(bk.random_braid(n, 12, seed=n))
    coeffs = charpoly(B)
    I_minus_B = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(B.entries)]
    assert sum(coeffs[1:], coeffs[0]) == det_exact(I_minus_B)
    assert (-1) ** (n - 1) * coeffs[-1] == B.det()


@pytest.mark.parametrize("k", [400, 900])
def test_log_spectral_radius_matches_entropy_past_float_range(k):
    import braidkit as bk

    b = bk.power(bk.make_braid([1, -2]), k)
    r = bk.cycle(b)
    rate = log_spectral_radius(r.product()) / r.period
    assert rate == pytest.approx(bk.entropy(b).value, rel=1e-8)
    if rate > 709:
        with pytest.raises(OverflowError, match="log_spectral_radius"):
            spectral_radius(r.product())
    else:
        assert math.log(spectral_radius(r.product())) / r.period == pytest.approx(rate, rel=1e-12)


def test_log_spectral_radius_small_and_zero():
    assert log_spectral_radius(((2, -1), (-1, 1))) == pytest.approx(math.log((3 + math.sqrt(5)) / 2))
    assert log_spectral_radius(((0, 1), (0, 0))) == -math.inf
    assert spectral_radius(((0, 0), (0, 0))) == 0.0


@pytest.mark.parametrize("t", [-1, 0.5, Fraction(1, 3), cmath.exp(0.7j), 2])
def test_spectral_radius_of_evaluated_burau(t):
    B = bk.burau(bk.make_braid([1, -2, 3, -2, 1], 4), t)
    dtype = complex if isinstance(t, complex) else float
    expected = max(abs(np.linalg.eigvals(np.array([[dtype(x) for x in row] for row in B.entries]))))
    assert spectral_radius(B) == pytest.approx(expected, rel=1e-12)
    assert log_spectral_radius(B) == pytest.approx(math.log(expected), rel=1e-12, abs=1e-12)


def test_spectral_radius_of_symbolic_matrix_names_the_fix():
    B = bk.burau(bk.make_braid([1, -2], 3))
    for fn in (spectral_radius, log_spectral_radius):
        with pytest.raises(TypeError, match="evaluate"):
            fn(B)



def test_spectral_radius_of_fractions_outside_the_float_range():
    # Fraction(10**400, 3) has no float and Fraction(1, 10**400) rounds to
    # 0.0; the common denominator and a power-of-two shift keep both exact
    big, tiny = [[Fraction(10**400, 3)]], [[Fraction(1, 10**400)]]
    assert log_spectral_radius(big) == pytest.approx(400 * math.log(10) - math.log(3), rel=1e-14)
    assert log_spectral_radius(tiny) == pytest.approx(-400 * math.log(10), rel=1e-14)
    for M in (big, tiny):
        with pytest.raises(OverflowError, match="log_spectral_radius"):
            spectral_radius(M)


def test_spectral_radius_of_fractions_in_range():
    M = [[Fraction(1, 3), 1], [2, Fraction(-5, 7)]]
    expected = max(abs(np.linalg.eigvals(np.array(M, dtype=float))))
    assert spectral_radius(M) == pytest.approx(expected, rel=1e-14)
    scaled = [[x * Fraction(1, 2**3000) for x in row] for row in M]
    assert log_spectral_radius(scaled) == pytest.approx(math.log(expected) - 3000 * math.log(2), rel=1e-14)
    assert spectral_radius([[Fraction(0)]]) == 0.0 and log_spectral_radius([[Fraction(0)]]) == -math.inf


def test_spectral_radius_of_floats_past_the_float_range():
    # every entry is a float, but the radius 2e308 is not: the matrix is
    # scaled by 2**-1024 and the exponent joins the shift
    M = [[1e308, 1e308], [1e308, 1e308]]
    assert log_spectral_radius(M) == pytest.approx(math.log(2) + math.log(1e308), rel=1e-14)
    assert log_spectral_radius([[1e308j, 0], [0, -1e308]]) == pytest.approx(math.log(1e308), rel=1e-14)
    for A in (M, [[1e308 + 1e308j, 1e308], [1e308, 1e308]]):
        with pytest.raises(OverflowError, match="log_spectral_radius"):
            spectral_radius(A)
    # subnormal entries keep their exponent as well
    assert log_spectral_radius([[5e-320, 0.0], [0.0, 1e-320]]) == pytest.approx(math.log(5e-320), rel=1e-3)
    assert spectral_radius(np.array([[3.0, 0.0], [0.0, -4.0]])) == 4.0
    assert spectral_radius([[0.0, 0.0], [0.0, 0.0]]) == 0.0 and log_spectral_radius([[0.0]]) == -math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.nan), complex(math.inf, 0)])
def test_spectral_radius_rejects_nan_and_infinite_entries(bad):
    for fn in (spectral_radius, log_spectral_radius):
        with pytest.raises(ValueError, match="finite entries"):
            fn([[1.0, bad], [0.5, 2.0]])


# ------------------------------------------- determinants over Z[t, 1/t]


def _det_bareiss_generic(A):
    """Bareiss elimination one ring operation at a time, exact ``//`` on ints
    and ``exact_div`` on Laurent polynomials: the reference for the values
    and result types of the packed elimination over ``LaurentPoly``."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not M[k][k]:
            pivot = next((r for r in range(k + 1, n) if M[r][k]), None)
            if pivot is None:
                return M[k][k]
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[i][j] * M[k][k] - M[i][k] * M[k][j]
                M[i][j] = num.exact_div(prev) if isinstance(num, LaurentPoly) else num // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def _lifted(x):
    return x if isinstance(x, LaurentPoly) else LaurentPoly.const(x)


def _same(got, ref):
    return type(got) is type(ref) and got == ref


def _i_minus_burau(b):
    B = bk.burau(b)
    return [[int(r == c) - x for c, x in enumerate(row)] for r, row in enumerate(B.entries)]


# zeros of both types, often, so that pivots vanish and columns run out
_sparse_entries = st.one_of(st.just(0), st.just(LaurentPoly()), small_ints, small_polys)


@settings(max_examples=200, deadline=None)
@given(M=_square(st.one_of(small_ints, small_polys)))
def test_packed_det_matches_cofactor_on_mixed_int_and_laurent_entries(M):
    got = det_exact(M)
    assert _lifted(got) == _lifted(_det_cofactor(M))
    assert _same(got, _det_bareiss_generic(M))


@settings(max_examples=300, deadline=None)
@given(M=_square(_sparse_entries))
def test_packed_det_on_zero_pivots_and_singular_matrices(M):
    # the result's type follows the generic elimination: an int zero where
    # it stops on a leading block of ints
    got = det_exact(M)
    assert _same(got, _det_bareiss_generic(M))
    assert _lifted(got) == _lifted(_det_cofactor(M))


def test_packed_det_row_swaps_and_singular_cases():
    t = LaurentPoly.var()
    one = LaurentPoly.const(1)
    # a zero pivot at step 0 and again at step 1, each fixed by a row swap
    M = [[0 * t, one, t], [0 * t, 0 * t, one - t], [t, 2 + t, 3 * t]]
    assert det_exact(M) == _det_cofactor(M)
    swapped = [[t, one], [one, 0 * t]]
    assert det_exact(swapped) == -one
    assert det_exact([[0 * t, one], [t, 0 * t]]) == -t
    # singular: a zero column at step 0, a zero column after elimination,
    # and two equal rows
    assert _same(det_exact([[0 * t, t], [0 * t, one]]), LaurentPoly())
    assert _same(det_exact([[0, t], [0, 1]]), 0)
    assert _same(det_exact([[t, t], [t, t]]), LaurentPoly())
    assert _same(det_exact([[1, t, 2], [1, t, 2], [t, 1, 0]]), LaurentPoly())


@pytest.mark.parametrize("n, L, seed", [(n, L, n + L) for n in range(3, 13) for L in (0, 17, 120, 300) if n * L <= 2400])
def test_packed_det_matches_generic_bareiss_on_i_minus_burau(n, L, seed):
    M = _i_minus_burau(bk.random_braid(n, L, seed))
    assert _same(det_exact(M), _det_bareiss_generic(M))


@pytest.mark.parametrize("n, seed", [(3, 1), (5, 2), (8, 3)])
def test_packed_det_matches_generic_bareiss_on_annular_braids(n, seed):
    rng = random.Random(seed)
    word = [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(60)]
    M = _i_minus_burau(bk.make_annular_braid(word, n))
    assert _same(det_exact(M), _det_bareiss_generic(M))


def _forcing_matrices():
    """3x3 matrices whose step-1 quotient ``-s`` fails the certificate at
    the first slot width, with the numerator ``-s p``:
    ``s = (1 - t)**24`` and ``p = (1 + t)**24`` cancel to coefficients no
    larger than those of ``s``, so only the factor ``|p|_1 = 2**24`` of the
    certificate asks for the wider slot; ``s = [12]_t!`` (coefficients up to
    25,598,186) and ``p = (1 - t)**12`` cancel to coefficients of at most 4,
    so ``s`` does not fit the first slot at all."""
    t = LaurentPoly.var()
    factorial = LaurentPoly.const(1)
    for i in range(1, 13):
        factorial = factorial * LaurentPoly(0, (1,) * i)
    for p, s in (((1 + t) ** 24, (1 - t) ** 24), ((1 - t) ** 12, factorial)):
        yield [[p, 1, 0], [1, 0, 0], [0, 0, s]], -s


@pytest.mark.parametrize("case", [0, 1])
def test_packed_det_widens_its_slot_and_stays_exact(case, caplog):
    M, expected = list(_forcing_matrices())[case]
    with caplog.at_level(logging.DEBUG, logger="braidkit"):
        got = det_exact(M)
    assert got == expected == _det_cofactor(M)
    widenings = [r.args for r in caplog.records if r.name == "braidkit"]
    assert widenings and all(r.levelno == logging.DEBUG for r in caplog.records)
    for (step, old, new), nxt in zip(widenings, widenings[1:] + [None]):
        assert step == 1 and new > old
        assert nxt is None or nxt[1] == new


def test_packed_det_fails_a_residue_the_codec_cannot_decode():
    # N = 2 (64 + 64t) - t * 1 = 128 + 127t over P = 1: at K = 8 the residue
    # N(2**8) = 32640 has the balanced digits (-128, -128, 1), which the codec
    # cannot decode
    with pytest.raises(OverflowError):
        _unpack(32640, 8)
    M = [[(0, (2,)), (0, (1,))], [(1, (1,)), (0, (64, 64))]]
    bound = [[64 * 2 + 1 * 1]]
    rows, width = _eliminate(M, 0, (0, (1,)), bound, 8)
    assert rows is None and width > 8
    assert _eliminate(M, 0, (0, (1,)), bound, width) == ([[(0, (128, 127))]], None)


def test_packed_det_takes_integral_coefficients_of_any_type():
    t = LaurentPoly.var()
    A = [[LaurentPoly(-1, (np.int64(2), np.int64(-3))), t], [np.int64(2), LaurentPoly(0, (Fraction(5), 1))]]
    got = det_exact(A)
    assert got == _det_cofactor(A) == LaurentPoly(-1, (10, -13, -5))
    assert all(type(c) is int for c in got.coeffs)


def test_packed_det_rejects_non_integer_coefficients():
    with pytest.raises(TypeError, match="integer coefficients"):
        det_exact([[LaurentPoly(0, (1.5, 2)), 1], [0, 1]])
    with pytest.raises(TypeError, match="integer coefficients"):
        det_exact([[LaurentPoly(0, (Fraction(1, 2), 2)), 1], [0, 1]])
    with pytest.raises(TypeError, match="Fraction"):
        det_exact([[LaurentPoly.var(), Fraction(1, 2)], [0, 1]])


@pytest.mark.parametrize("m", [1, 7, 63, 64, 65, 128, 129, 1000, 4099])
def test_inverse_mod_power_of_two(m):
    rng = random.Random(m)
    for _ in range(20):
        p = rng.getrandbits(rng.choice([3, 70, 3000])) | 1
        for q in (p, -p):
            x = _inverse_mod_power_of_two(q, m)
            assert 0 <= x < 2**m and q * x % 2**m == 1 % 2**m
